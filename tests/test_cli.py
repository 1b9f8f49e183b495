import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orlnorm
from orlnorm.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_sum_type(capsys):
    code, out, _ = run(capsys, "norm", "--phi", "power:2", "--p", "l1", "--values", "3,4")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "1"
    assert payload["value"] == pytest.approx(10.0, rel=1e-9)
    assert payload["k_star"] == pytest.approx(0.2, rel=1e-6)
    assert payload["attained"] is True
    assert isinstance(payload["evaluations"], int)


def test_norm_max_type_is_luxemburg(capsys):
    code, out, _ = run(capsys, "norm", "--phi", "power:2", "--p", "linf", "--values", "3,4")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(5.0, abs=1e-8)


def test_norm_zero(capsys):
    code, out, _ = run(capsys, "norm", "--values", "0,0")
    assert code == 0
    assert json.loads(out)["value"] == 0.0


def test_norm_with_space_descriptor(capsys):
    code, out, _ = run(capsys, "norm", "--phi", "flat_then_power:1,2", "--p", "lq:2",
                       "--values", "1", "--space", '{"atoms":[{"w":"inf"}]}')
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-9)


def test_input_errors_exit_2(capsys):
    assert run(capsys, "norm", "--phi", "nosuch:1", "--values", "1,2")[0] == 2
    assert run(capsys, "norm", "--values", "a,b")[0] == 2
    assert run(capsys, "norm")[0] == 2  # missing --values
    assert run(capsys, "modulus", "--grid", "1.5")[0] == 2
    assert run(capsys, "verify", "T99")[0] == 2
    assert run(capsys, "norm", "--values", "3,4", "--tol", "0")[0] == 2
    # malformed descriptors name themselves instead of dying with a traceback
    for flag, text in (("--space", '{"atoms":[{}]}'), ("--phi", '{"kind":"power"}'),
                       ("--p", '{"kind":"lq"}'), ("--phi", '{"kind":"pwl","points":5}'),
                       ("--space", "[1]")):
        code, out, err = run(capsys, "norm", "--values", "1", flag, text)
        assert code == 2 and out == "" and "bad " in err and "descriptor" in err
    assert run(capsys, "verify", "T2", "--budget", "-5", "--json")[0] == 2
    # a zero budget runs no trial, so it cannot pass a suite
    assert run(capsys, "verify", "T2", "--budget", "0")[0] == 2


def test_negative_seed_names_its_flag(tmp_path, capsys):
    code, out, err = run(capsys, "verify", "T2", "--seed", "-3", "--budget", "2")
    assert code == 2 and out == "" and "--seed" in err and "-3" in err
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": -3, "budget": 2}))
    code, out, err = run(capsys, "verify", "T2", "--config", str(cfg))
    assert code == 2 and out == "" and "--seed" in err and "-3" in err


def test_verify_takes_the_run_suites_budget(capsys):
    # without --budget, verify runs run_suites' default
    code, out, _ = run(capsys, "verify", "T2", "--json")
    rep, = json.loads(out)["reports"]
    want = orlnorm.suite_norm_axioms(orlnorm.power(2), orlnorm.l1(), orlnorm.unit_weights(6))
    assert code == 0 and rep == want.to_dict() and rep["trials"] == 200


def test_boundary_samples_out_of_convex_position_exit_2(capsys):
    dent = "boundary:0,1;1.35,1;1.45,1.6;1.5707963267948966,1"
    code, out, err = run(capsys, "modulus", "--p", dent)
    assert code == 2 and out == "" and "convex position" in err
    # a ball that bulges past the max-norm square is convex, not monotone: it runs
    code, out, _ = run(capsys, "norm", "--values", "3,4", "--p",
                       "boundary:0,1;0.7853981633974483,1.8;1.5707963267948966,1")
    assert code == 0 and json.loads(out)["value"] > 0.0


def test_modulus_of_a_ball_that_is_not_monotone_exits_2(capsys):
    # first facet b < 0: the modulus's endpoint argument does not hold
    ball = "boundary:0,1;0.4,1.1;1.1,1.15;1.5707963267948966,1"
    code, out, err = run(capsys, "modulus", "--p", ball)
    assert code == 2 and out == "" and "monotone" in err


def test_norm_outside_space_exits_2(capsys):
    code, out, err = run(capsys, "norm", "--phi", "power:2", "--values", "1",
                         "--space", '{"atoms":[{"w":"inf"}]}')
    assert code == 2 and out == ""
    assert "error: x is outside the Orlicz space (modular infinite at every k > 0)" in err


def test_modulus_csv_identity_column(capsys):
    code, out, _ = run(capsys, "modulus", "--p", "l1", "--grid", "0.1:0.9:9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,delta"
    assert len(lines) == 10
    for line in lines[1:]:
        e, d = (float(t) for t in line.split(","))
        assert d == pytest.approx(e, abs=1e-6)


def test_modulus_csv_zero_column_for_max_norm(capsys):
    code, out, _ = run(capsys, "modulus", "--p", "linf", "--grid", "0.2:0.8:4")
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        assert float(line.split(",")[1]) == pytest.approx(0.0, abs=1e-9)


def test_modulus_single_point_closed_form(capsys):
    code, out, _ = run(capsys, "modulus", "--p", "lq:2", "--grid", "0.6")
    assert code == 0
    d = float(out.strip().split("\n")[1].split(",")[1])
    assert d == pytest.approx(0.2, abs=1e-3)


def test_verify_all_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--all", "--phi", "power:2", "--p", "l1",
                       "--budget", "30")
    assert code == 0
    assert "T7" in out and "passed" in out


def test_verify_expected_counterexample_passes(capsys):
    code, out, _ = run(capsys, "verify", "T6", "--phi", "flat_then_power:1,2",
                       "--p", "lq:2", "--json")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["status"] == "passed"
    pair = rep["details"]["constructed_flat_pair"]
    assert abs(pair["norm_z"] - pair["norm_y"]) <= 1e-9


def test_verify_hypothesis_gate_status(capsys):
    code, out, _ = run(capsys, "verify", "T5", "--phi", "pwl:0,0;1,0;2,1", "--p", "l1",
                       "--json")
    assert code == 0
    assert json.loads(out)["reports"][0]["status"] == "hypothesis-not-met"


def test_verify_attainment_runs_for_slowly_growing_power(capsys):
    # Phi(u)/u = u^0.5 diverges, so L1's hypothesis holds and its trials run
    code, out, _ = run(capsys, "verify", "L1", "--phi", "power:1.5", "--p", "l1",
                       "--budget", "20", "--json")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["status"] == "passed" and rep["trials"] == 20


def test_verify_on_a_space_without_finite_atoms(capsys):
    # the samples live on the finite atoms: suites that need them are gated
    space = '{"atoms":[{"w":"inf"},{"w":"inf"}]}'
    for phi, p in (("power:2", "l1"), ("flat_then_power:1,2", "lq:2")):
        code, out, _ = run(capsys, "verify", "--all", "--json", "--budget", "20",
                           "--phi", phi, "--p", p, "--space", space)
        assert code == 0
        reports = {r["theorem_id"]: r for r in json.loads(out)["reports"]}
        assert all(r["status"] != "failed" for r in reports.values())
        assert reports["T7"]["details"]["reason"] == "needs a finite atom"


def test_verify_on_the_space_of_the_space_help(capsys):
    # the --space help's example holds an infinite atom, where T6's samples
    # vanish: the scan shrinks a finite atom, so no pair has x == y
    space = '{"atoms":[{"w":1},{"w":"inf"}]}'
    for phi in ("power:2", "exp_minus"):
        code, out, _ = run(capsys, "verify", "--all", "--json", "--budget", "20",
                           "--phi", phi, "--p", "l1", "--space", space)
        assert code == 0, phi
        t6, = (r for r in json.loads(out)["reports"] if r["theorem_id"] == "T6")
        assert t6["status"] == "passed" and t6["trials"] > 0


def test_verify_all_on_a_flat_zone_past_double_range(capsys):
    # Phi(1.5 a) overflows for a = 1e12 under power 40: L2's case is out of
    # its hypothesis, and R2's steep level lies past the flat zone, where the
    # doubling ratio leaves the last tail a norm bound above 1, so no suite
    # stops the run with an input error or fails
    code, out, _ = run(capsys, "verify", "--all", "--json", "--budget", "20",
                       "--phi", "flat_then_power:1e12,40", "--p", "l1")
    assert code == 0
    reports = {r["theorem_id"]: r for r in json.loads(out)["reports"]}
    assert reports["L2"]["status"] == "hypothesis-not-met"
    assert reports["L2"]["details"]["reason"] == "modular of x must be finite"
    assert reports["R2"]["status"] == "hypothesis-not-met"
    assert reports["R2"]["details"]["bound"] >= 1.0


def test_verify_json_is_deterministic(capsys):
    args = ("verify", "T1", "T2", "--phi", "exp_minus", "--p", "lq:2",
            "--seed", "7", "--budget", "20", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_verify_statuses_match_the_recorded_catalog_run(capsys):
    # tests/data/verify_statuses.json records the exit code and each suite's
    # status, trials and violation kinds of its "command" on the 20 catalog
    # pairs; a change to the engine's search must not move any of them
    record = json.loads((Path(__file__).parent / "data" / "verify_statuses.json").read_text())
    assert len(record["pairs"]) == 20
    for pair, want in record["pairs"].items():
        phi, p = pair.split()
        code, out, _ = run(capsys, *record["command"].split(), "--phi", phi, "--p", p)
        reports = {r["theorem_id"]: {"status": r["status"], "trials": r["trials"],
                                     "violation_kinds": sorted({v["kind"] for v in r["violations"]})}
                   for r in json.loads(out)["reports"]}
        assert {"exit": code, "reports": reports} == want, pair


def test_unread_flags_exit_2(capsys):
    # each subcommand parses only the flags it reads
    for argv in (("modulus", "--phi", "power:2"), ("modulus", "--space", "{}"),
                 ("modulus", "--seed", "1"), ("modulus", "--budget", "5"),
                 ("modulus", "--tol", "1e-9"), ("norm", "--values", "3,4", "--budget", "5"),
                 ("norm", "--values", "3,4", "--json"), ("verify", "T1", "--tol", "1e-9")):
        assert run(capsys, *argv)[0] == 2, argv


def test_python_m_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(Path(orlnorm.__file__).parents[1]))

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "orlnorm", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    done = run_module("norm", "--phi", "power:2", "--p", "l1", "--values", "3,4")
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["value"] == pytest.approx(10.0, rel=1e-9)
    assert run_module("norm", "--values", "3,4", "--budget", "5").returncode == 2


def test_config_file_merges_under_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phi": "power:2", "p": "l1", "values": "3,4"}))
    code, out, _ = run(capsys, "norm", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(10.0, rel=1e-9)
    # explicit flag wins over the config value
    code, out, _ = run(capsys, "norm", "--config", str(cfg), "--p", "linf")
    assert json.loads(out)["value"] == pytest.approx(5.0, abs=1e-8)
    # values of any JSON type: a list joins with commas, an object becomes
    # JSON text, a scalar converts with the flag's own type
    cfg.write_text(json.dumps({"values": [3, 4], "seed": "3", "p": "l1",
                               "phi": {"kind": "power", "q": 2},
                               "space": {"atoms": [{"w": 1}, {"w": 1}]}}))
    code, out, _ = run(capsys, "norm", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(10.0, rel=1e-9) and payload["seed"] == 3
    cfg.write_text(json.dumps({"grid": [0.2, 0.5], "p": "l1"}))
    code, out, _ = run(capsys, "modulus", "--config", str(cfg))
    assert code == 0 and out.startswith("epsilon,delta\n0.2,")
    for bad in ({"values": "3,4", "seed": "x"}, {"values": "3,4", "seed": 3.5},
                {"values": "3,4", "tol": True}, [1, 2]):
        cfg.write_text(json.dumps(bad))
        code, out, err = run(capsys, "norm", "--config", str(cfg))
        assert code == 2 and out == "" and err.startswith("error: ")


def test_config_sets_every_value_flag(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"grid": [0.5], "p": "lq:2"}))
    code, out, _ = run(capsys, "modulus", "--config", str(cfg))
    assert (code, out) == run(capsys, "modulus", "--p", "lq:2", "--grid", "0.5")[:2]
    assert float(out.split("\n")[1].split(",")[1]) == pytest.approx(1.0 - math.sqrt(0.75), abs=1e-12)
    target = tmp_path / "table.csv"
    cfg.write_text(json.dumps({"grid": [0.5], "p": "lq:2", "out": str(target)}))
    assert run(capsys, "modulus", "--config", str(cfg))[:2] == (0, "")
    assert target.read_text() == out


def test_successive_calls_share_the_parser_and_nothing_else(tmp_path, capsys):
    # one parser per process; each call parses into a fresh namespace, so a
    # config value or flag of one call never reaches the next
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"phi": "power:3", "p": "l1", "values": "3,4", "seed": 5}))
    calls = [("norm", "--config", str(cfg)),
             ("verify", "T2", "--budget", "3", "--json"),
             ("norm", "--values", "3,4"),
             ("modulus", "--p", "lq:2", "--grid", "0.5", "--json"),
             ("verify", "T2", "--budget", "3", "--json", "--config", str(cfg)),
             ("norm", "--values", "3,4", "--p", "nosuch"),
             ("norm", "--values", "3,4")]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    in_turn = [run(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    assert in_turn == alone
    assert [code for code, _, _ in in_turn] == [0, 0, 0, 0, 0, 2, 0]
    # the config's generator, norm and seed stay with the calls that read it
    first, plain = json.loads(in_turn[0][1]), json.loads(in_turn[2][1])
    assert first["seed"] == 5 and first["value"] == pytest.approx(
        orlnorm.generated_norm(orlnorm.power(3), orlnorm.l1(),
                               orlnorm.simple_function(orlnorm.unit_weights(2), [3, 4])).value)
    assert plain["seed"] == 0 and plain["value"] == pytest.approx(5.0, abs=1e-8)
    assert json.loads(in_turn[1][1])["phi"] == {"kind": "power", "q": 2.0}
    assert json.loads(in_turn[4][1])["phi"] == {"kind": "power", "q": 3.0}


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "modulus.csv"
    code, out, _ = run(capsys, "modulus", "--p", "l1", "--grid", "0.5", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.startswith("epsilon,delta\n")
    assert "\r" not in text


def test_space_file_loading(tmp_path, capsys):
    sp = tmp_path / "space.json"
    sp.write_text(json.dumps({"atoms": [{"w": 1}, {"w": 1}]}))
    code, out, _ = run(capsys, "norm", "--phi", "power:2", "--p", "l1",
                       "--values", "3,4", "--space", str(sp))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(10.0, rel=1e-9)
