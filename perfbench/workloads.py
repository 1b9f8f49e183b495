"""The four workloads.  Each builds its inputs from the seed; its `ops` are
one round of fixed work, run_op(i) runs op i, and check() checks every
output of every round.

All are closed loop with one client: the next op starts when the previous
one returns.  Every round repeats the same seeded inputs, so later rounds
must reproduce the first round's outputs exactly.

    norm-stream     one generated_norm call per op, cycling through the 20
                    catalog (phi, p) pairs on fresh 6-atom signed elements.
                    The element shape every suite uses; search overhead
                    (about 117 evaluations per call) dominates.
    norm-wide       the same stream on 256-atom elements with log-uniform
                    weights: the per-atom work in spaces.modular and
                    OrliczFunction.evaluate dominates.
    verify-catalog  one `orlnorm verify --all --json` CLI call per pair.  The
                    users' verification path end to end; the only workload
                    where verify and cli run.  Table builds and norm calls
                    each take a large share.
    tables          modulus CLI, modulus tables, dual norms, Young conjugates
                    and doubling checks.  No timed generated_norm call: the
                    bypass workload for engine changes, and the heavy one for
                    the planar modulus and Young conjugation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import time
from array import array
from pathlib import Path

import numpy as np

import orlnorm
import orlnorm.cli
import orlnorm.engine
import oracles
from tracer import Patcher

PHI_NAMES = ("power:2", "power:3", "exp_minus", "flat_then_power:1,2")
P_NAMES = ("linf", "l1", "lq:1.5", "lq:2", "lq:3")
VERIFY_PAIRS = (("power:2", "linf"), ("exp_minus", "l1"), ("flat_then_power:1,2", "lq:2"))
WIDE_ATOMS = 256
WIDE_WEIGHTS = (0.25, 4.0)  # log-uniform atom weights of norm-wide
WIDE_INFINITE_ATOMS = 4
VERIFY_BUDGET = 20
TABLE_RESOLUTION = 2e-3     # the suites' setting
CLI_RESOLUTION = 1e-3       # the modulus CLI default
MODULUS_GRID = "0.25,0.5,0.75"  # three of the CLI's nine default epsilons keep a round near 8 s
DUALS_PER_PHI = 3
AMEMIYA_PER_PHI = 150
AMEMIYA_CHUNK = 100  # Amemiya calls run between two ops of a round
REPLAY_CHUNK = 1000  # recorded suite norm calls replayed between two ops
CONJUGATE_POINTS = 2000
REGIMES = ("zero", "infinity", "global")
EXPECTED_STATUS = Path(__file__).with_name("verify_expected.json")


def _signed(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(0.05, 1.0, n) * rng.choice([-1.0, 1.0], n)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = orlnorm.cli.main(argv)
    return rc, buf.getvalue()


def _cli_json(result) -> dict | None:
    """The JSON payload of a CLI call that exited 0, else None."""
    if isinstance(result, Exception) or result[0] != 0:
        return None
    try:
        return json.loads(result[1])
    except json.JSONDecodeError:
        return None


def _count_failed(ok: list[bool], rounds: int, mismatched) -> int:
    """Op runs that failed: every run of an op whose first output failed its
    oracle, and each later run that did not reproduce the first output."""
    return sum(mismatched[i] if good else rounds for i, good in enumerate(ok))


def attempt(fn, *args, **kwargs):
    """Run one op; an exception becomes its output and fails its check."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # any failure of the program is a failed op
        return exc


class Workload:
    """A round of ops, with no-op defaults for the hooks that only
    VerifyCatalog and Tables fill in."""

    ops: list

    def norm_stream(self, until: float = 0.0) -> None:
        """Norm calls run before and after the rounds (none by default)."""

    def between_ops(self) -> None:
        """Work run after each op, outside its time (none by default)."""

    def norm_ms(self) -> list[float] | None:
        """Norm latencies (reference ms) from calls outside the rounds
        (None: the rounds' own calls)."""
        return None

    def replayed_norm_ms(self) -> list[array] | None:
        """Latencies (reference ms) of the replays of the round's own norm
        calls, per call in call order (None: no replays)."""
        return None

    def trials(self, outs: list) -> int:
        return 0

    def cli_output_bytes(self, outs: list) -> int:
        return 0


class NormWorkload(Workload):
    """generated_norm over all 20 catalog pairs: 6-atom elements with unit
    weights (norm-stream), or 256-atom elements with log-uniform weights
    (norm-wide)."""

    def __init__(self, seed: int, *, per_pair: int, atoms: int = 6):
        self.atoms = atoms
        phis = orlnorm.catalog_orlicz_functions()
        planars = orlnorm.catalog_planar_norms()
        rng = np.random.default_rng(seed)
        self.ops = []  # (phi name, phi, p name, p, x)
        for j in range(per_pair):
            for phi_name in PHI_NAMES:
                flat = phis[phi_name].zero_bound > 0.0
                for p_name in P_NAMES:
                    x = self._element(rng, flat, j)
                    self.ops.append((phi_name, phis[phi_name], p_name, planars[p_name], x))

    def _element(self, rng, flat: bool, j: int):
        """Nonzero values sit on infinite atoms only for flat generators;
        elsewhere the modular would be +inf at every scale.  Of the flat
        generators' elements, half put their last atoms (2 of 6, 4 of 256)
        on infinite atoms; of the 6-atom ones, half of those carry support
        only there (the T4 contract)."""
        n = self.atoms
        if n == 6:
            weights = np.ones(n)
        else:
            weights = _log_uniform(rng, WIDE_WEIGHTS[0], WIDE_WEIGHTS[1], n)
        values = _signed(rng, n)
        if flat and j % 2 == 1:
            infinite = 2 if n == 6 else WIDE_INFINITE_ATOMS
            weights[-infinite:] = math.inf
            if n == 6 and j % 4 == 3:
                values[:-infinite] = 0.0
        space = orlnorm.measure_space(weights)
        return orlnorm.simple_function(space, values)

    def run_op(self, i: int) -> float:
        _, phi, _, p, x = self.ops[i]
        return orlnorm.generated_norm(phi, p, x).value

    def check(self, first: list, rounds: int, mismatched) -> tuple[int, int, dict]:
        ok = [not isinstance(v, Exception)
              and oracles.check_norm(phi_name, phi, p_name, p, x, v)
              for (phi_name, phi, p_name, p, x), v in zip(self.ops, first)]
        failed = _count_failed(ok, rounds, mismatched)
        kinds = {}
        for phi_name, _, _, _, x in self.ops:
            kind = oracles.norm_kind(phi_name, x)
            kinds[kind] = kinds.get(kind, 0) + 1
        bad = [f"{self.ops[i][0]}|{self.ops[i][2]}#{i}" for i, good in enumerate(ok) if not good]
        return rounds * len(self.ops), failed, {"oracle_kinds": kinds, "failing_ops": bad[:10]}


class VerifyCatalog(Workload):
    """`orlnorm verify --all --json` over a fixed set of catalog pairs.

    A run holds only a few rounds, too few repeats of each suite norm call
    for a steady median.  So the first round records every generated_norm
    call the suites make (arguments and value), and the run replays them
    between ops and after the rounds; each call's latency is its median
    over the rounds and the replays."""

    def __init__(self, seed: int, probe):
        self.ops = [["verify", "--all", "--json", "--phi", phi, "--p", p,
                     "--seed", str(seed), "--budget", str(VERIFY_BUDGET)]
                    for phi, p in VERIFY_PAIRS]
        self.expected = json.loads(EXPECTED_STATUS.read_text(encoding="utf-8"))
        # Captured before the benchmark's clock wraps generated_norm, so that
        # replays stay outside the round's timed pieces.
        self._generated_norm = orlnorm.generated_norm
        self._recording = True
        self.norm_calls: list[list] = []  # [args, kwargs, value] per suite call
        self.probe = probe
        self._replay_ms: list[array] = []
        self._replays = 0
        self._replay_mismatched = 0
        self._next_call = 0

    def run_op(self, i: int) -> tuple[int, str]:
        if not self._recording:
            return _cli(self.ops[i])
        current = orlnorm.engine.generated_norm
        calls = self.norm_calls

        def record(*args, **kwargs):
            call = [args, kwargs, None]
            calls.append(call)
            result = current(*args, **kwargs)
            call[2] = result.value
            return result

        patcher = Patcher()
        patcher.replace(current, record)
        try:
            return _cli(self.ops[i])
        finally:
            patcher.restore()
            self._recording = i < len(self.ops) - 1
            if not self._recording:
                self._replay_ms = [array("d") for _ in calls]

    def _replay(self, j: int) -> None:
        args, kwargs, value = self.norm_calls[j]
        self.probe.tick()
        t0 = time.perf_counter()
        r = attempt(self._generated_norm, *args, **kwargs)
        self._replay_ms[j].append(1e3 * (time.perf_counter() - t0) * self.probe.scale())
        self._replays += 1
        if isinstance(r, Exception) or not same(r.value, value):
            self._replay_mismatched += 1

    def between_ops(self) -> None:
        """The next REPLAY_CHUNK recorded calls, once the first round has
        recorded them; their time is outside every op."""
        if self._recording or not self.norm_calls:
            return
        for _ in range(REPLAY_CHUNK):
            self._replay(self._next_call)
            self._next_call = (self._next_call + 1) % len(self.norm_calls)

    def norm_stream(self, until: float = 0.0) -> None:
        """After the rounds: replay passes while the clock is before `until`."""
        while self.norm_calls and not self._recording and time.perf_counter() < until:
            for j in range(len(self.norm_calls)):
                self._replay(j)

    def replayed_norm_ms(self) -> list[array]:
        return self._replay_ms

    def _statuses_ok(self, pair: tuple[str, str], result) -> bool:
        payload = _cli_json(result)
        if payload is None:
            return False
        got = {rep["theorem_id"]: rep["status"] for rep in payload["reports"]}
        return got == self.expected["|".join(pair)]

    def check(self, first: list, rounds: int, mismatched) -> tuple[int, int, dict]:
        ok = [self._statuses_ok(pair, r) for pair, r in zip(VERIFY_PAIRS, first)]
        failed = _count_failed(ok, rounds, mismatched)
        # the determinism contract: same configuration and seed, same bytes
        again = attempt(_cli, self.ops[0])
        failed += not same(again, first[0])
        bad = ["|".join(pair) for pair, good in zip(VERIFY_PAIRS, ok) if not good]
        info = {"failing_pairs": bad, "norm_replays": self._replays,
                "replay_mismatches": self._replay_mismatched}
        return (rounds * len(self.ops) + 1 + self._replays,
                failed + self._replay_mismatched, info)

    def cli_output_bytes(self, outs: list) -> int:
        return sum(len(r[1].encode()) for r in outs if not isinstance(r, Exception))

    def trials(self, outs: list) -> int:
        total = 0
        for r in outs:
            if not isinstance(r, Exception) and r[0] == 0:
                total += sum(rep["trials"] for rep in json.loads(r[1])["reports"])
        return total


class Tables(Workload):
    """Modulus tables, dual norms, Young conjugates and doubling checks."""

    def __init__(self, seed: int, probe):
        self.probe = probe
        self.phis = orlnorm.catalog_orlicz_functions()
        self.monotone = orlnorm.strictly_monotone_planar_norms()
        self.l1 = orlnorm.catalog_planar_norms()["l1"]
        rng = np.random.default_rng(seed)
        # Amemiya stream: the sum-norm side of the dual-norm oracle; its first
        # elements per generator are the dual-norm op inputs.
        self.amemiya = []  # (phi name, x)
        for phi_name in PHI_NAMES:
            for _ in range(AMEMIYA_PER_PHI):
                space = orlnorm.measure_space(_log_uniform(rng, 0.25, 4.0, 6))
                self.amemiya.append((phi_name, orlnorm.simple_function(space, _signed(rng, 6))))
        self.grid = np.sort(rng.uniform(0.0, 20.0, CONJUGATE_POINTS))
        self.ops = [("modulus-cli", p) for p in P_NAMES]
        self.ops += [("table", p) for p in self.monotone]
        self.ops += [("dual", phi, j) for phi in PHI_NAMES for j in range(DUALS_PER_PHI)]
        self.ops += [("conjugate", phi) for phi in PHI_NAMES]
        self.ops += [("delta2", phi) for phi in PHI_NAMES]
        # Captured before the benchmark's clock wraps generated_norm, so that
        # the stream stays outside the round's timed pieces.
        self._generated_norm = orlnorm.generated_norm
        # Per stream element: latencies (reference ms), first value, calls,
        # and calls that did not reproduce the first value.
        n = len(self.amemiya)
        self._amemiya_ms = [array("d") for _ in range(n)]
        self._amemiya_first: list = [None] * n
        self._amemiya_calls = [0] * n
        self._amemiya_mismatched = [0] * n
        self._next_call = 0

    @staticmethod
    def _stream_index(phi_name: str, j: int) -> int:
        """Index in the Amemiya stream of the generator's j-th element."""
        return PHI_NAMES.index(phi_name) * AMEMIYA_PER_PHI + j

    def _dual_input(self, phi_name: str, j: int):
        return self.amemiya[self._stream_index(phi_name, j)][1]

    def run_op(self, i: int):
        op = self.ops[i]
        kind, name = op[0], op[1]
        if kind == "modulus-cli":
            return _cli(["modulus", "--json", "--p", name, "--grid", MODULUS_GRID])
        if kind == "table":
            return orlnorm.build_modulus_table(self.monotone[name], resolution=TABLE_RESOLUTION)
        if kind == "dual":
            return orlnorm.orlicz_dual_norm(self.phis[name], self._dual_input(name, op[2]))
        if kind == "conjugate":
            return orlnorm.young_conjugate_many(self.phis[name], self.grid)
        return {regime: orlnorm.delta2_check(self.phis[name], regime) for regime in REGIMES}

    def _amemiya_call(self, j: int) -> None:
        phi_name, x = self.amemiya[j]
        self.probe.tick()
        t0 = time.perf_counter()
        r = attempt(self._generated_norm, self.phis[phi_name], self.l1, x)
        self._amemiya_ms[j].append(1e3 * (time.perf_counter() - t0) * self.probe.scale())
        value = r if isinstance(r, Exception) else r.value
        if self._amemiya_calls[j] == 0:
            self._amemiya_first[j] = value
        elif not same(value, self._amemiya_first[j]):
            self._amemiya_mismatched[j] += 1
        self._amemiya_calls[j] += 1

    def norm_stream(self, until: float = 0.0) -> None:
        """One pass of the Amemiya stream (generated_norm with p = l1), and
        more while the clock is before `until`."""
        while True:
            for j in range(len(self.amemiya)):
                self._amemiya_call(j)
            if time.perf_counter() >= until:
                return

    def between_ops(self) -> None:
        """The next AMEMIYA_CHUNK calls of the stream, so that its repeats
        spread over the whole run; their time is outside every op."""
        for _ in range(AMEMIYA_CHUNK):
            self._amemiya_call(self._next_call)
            self._next_call = (self._next_call + 1) % len(self.amemiya)

    def norm_ms(self) -> list[float]:
        """Each Amemiya call's median latency over its repeats: the timed
        ops make no norm call."""
        return [float(np.median(ms)) for ms in self._amemiya_ms]

    def _op_ok(self, op, out, by_op: dict, amemiya: list) -> bool:
        if isinstance(out, Exception):
            return False
        kind, name = op[0], op[1]
        if kind == "modulus-cli":
            table = by_op.get(("table", name))
            payload = _cli_json(out)
            return payload is not None and oracles.check_modulus(
                name, payload["epsilon"], payload["delta"], CLI_RESOLUTION,
                None if isinstance(table, Exception) else table)
        if kind == "table":
            if name in oracles.MODULUS_CLOSED_FORMS:
                return oracles.check_modulus(name, out.epsilons, out.deltas, TABLE_RESOLUTION)
            payload = _cli_json(by_op[("modulus-cli", name)])
            return payload is not None and oracles.check_modulus(
                name, payload["epsilon"], payload["delta"], CLI_RESOLUTION, out)
        if kind == "dual":
            ref = amemiya[self._stream_index(name, op[2])]
            return not isinstance(ref, Exception) and oracles.check_dual(name, out, ref)
        if kind == "conjugate":
            return oracles.check_conjugate(name, self.grid, out)
        return oracles.check_delta2(name, out)

    def check(self, first: list, rounds: int, mismatched) -> tuple[int, int, dict]:
        """Needs a norm_stream() pass for the Amemiya values."""
        amemiya = self._amemiya_first
        am_ok = [not isinstance(v, Exception)
                 and oracles.check_norm(phi_name, self.phis[phi_name], "l1", self.l1, x, v)
                 for (phi_name, x), v in zip(self.amemiya, amemiya)]
        am_failed = sum(mismatched if good else calls for good, calls, mismatched
                        in zip(am_ok, self._amemiya_calls, self._amemiya_mismatched))
        by_op = dict(zip(self.ops, first))
        ok = [self._op_ok(op, out, by_op, amemiya) for op, out in zip(self.ops, first)]
        failed = _count_failed(ok, rounds, mismatched)
        info = {"failing_ops": [str(op) for op, good in zip(self.ops, ok) if not good],
                "amemiya_failures": am_failed, "dual_gap": self._dual_gap(first, amemiya)}
        attempted = rounds * len(self.ops) + sum(self._amemiya_calls)
        return attempted, failed + am_failed, info

    def _dual_gap(self, first: list, amemiya: list) -> dict:
        """Per generator, the largest shortfall of the dual norm below the
        Amemiya norm, relative to max(1, amemiya)."""
        gaps = {}
        for op, dual in zip(self.ops, first):
            ref = amemiya[self._stream_index(op[1], op[2])] if op[0] == "dual" else None
            if isinstance(dual, float) and isinstance(ref, float):
                gaps[op[1]] = max(gaps.get(op[1], -math.inf), (ref - dual) / max(1.0, ref))
        return gaps


def make(name: str, seed: int, probe):
    """The named workload; `probe` (a HostProbe) scales the latencies of the
    norm calls it runs outside the rounds."""
    if name == "norm-stream":
        return NormWorkload(seed, per_pair=100)
    if name == "norm-wide":
        return NormWorkload(seed, per_pair=15, atoms=WIDE_ATOMS)
    if name == "verify-catalog":
        return VerifyCatalog(seed, probe)
    if name == "tables":
        return Tables(seed, probe)
    raise ValueError(f"unknown workload {name!r}")

