import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest

from orlnorm import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, DomainError,
                     LinfEmbeddingWitness, boundary_sampled, build_linf_witness,
                     build_modulus_table, exp_minus, flat_then_power, generated_norm, l1,
                     linf, lower_local_um_estimate, lq, measure_space, modular, power,
                     replay_violation, run_suites, simple_function,
                     suitable_delta2_regime, unit_weights)
from orlnorm import verify
from orlnorm.verify import (SUITE_IDS, STATUS_EMPTY, STATUS_FAILED, STATUS_HNM,
                            STATUS_PASSED, suite_attainment, suite_decomposition_estimate,
                            suite_lower_local_um, suite_modular_norm_equivalence,
                            suite_norm_axioms, suite_order_continuity,
                            suite_sandwich_ordering, suite_strict_convexity,
                            suite_strict_monotonicity, suite_uniform_monotonicity,
                            suite_unit_ball_bounds)

SP6 = unit_weights(6)
SPW = measure_space([0.7, 0.5, 0.3, 0.2])


def test_t1_passes_and_catches_bad_norm():
    rep = suite_sandwich_ordering(power(2), lq(2), SP6, budget=25)
    assert rep.status == STATUS_PASSED
    bad = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.8), (math.pi / 2, 1.0)])
    rep_bad = suite_sandwich_ordering(power(2), bad, SP6, budget=0)
    assert rep_bad.status == STATUS_FAILED
    sandwich = [v for v in rep_bad.violations if v["kind"] == "sandwich"]
    assert sandwich
    assert replay_violation(sandwich[0])


def test_t2_axioms_pass():
    rep = suite_norm_axioms(exp_minus(), lq(1.5), SP6, budget=30)
    assert rep.status == STATUS_PASSED


def test_l1_attainment_and_gate():
    assert suite_attainment(power(2), l1(), SP6).status == STATUS_PASSED
    assert suite_attainment(power(1), l1(), SP6).status == STATUS_HNM


def test_l2_bounds_and_gate():
    rep = suite_unit_ball_bounds(flat_then_power(1, 2), lq(2))
    assert rep.status == STATUS_PASSED
    assert suite_unit_ball_bounds(power(2), lq(2)).status == STATUS_HNM


def test_t3_witness_and_gates():
    w, rep = build_linf_witness(exp_minus(), lq(2), 4, "approximate", z_samples=30, seed=2)
    assert rep.status == STATUS_PASSED
    assert isinstance(w, LinfEmbeddingWitness) and not w.exact
    assert w.threshold_achieved >= 2.0
    # per-basis modular budgets hold and the scaled modular explodes
    for j, b in enumerate(w.basis):
        assert modular(exp_minus(), b) <= 0.1 / 2.0 ** (j + 1) + 1e-15
        assert modular(exp_minus(), b, scale=1.01) >= 2.0
    _, gate = build_linf_witness(power(2), l1(), 4, "approximate", seed=2)
    assert gate.status == STATUS_HNM


def test_t4_witness_and_gate():
    w, rep = build_linf_witness(flat_then_power(1, 2), lq(2), 4, "exact", z_samples=30, seed=2)
    assert rep.status == STATUS_PASSED
    assert w.exact and len(w.basis) == 4
    _, gate = build_linf_witness(power(2), lq(2), 4, "exact", seed=2)
    assert gate.status == STATUS_HNM


def test_t4_specific_vector_is_exact():
    phi = flat_then_power(1, 2)
    sp = measure_space([math.inf] * 3)
    pz = simple_function(sp, [1.0 * 1.0, 1.0 * -1.0, 1.0 * 0.5])
    for p in (linf(), l1(), lq(2)):
        r = generated_norm(phi, p, pz)
        assert abs(r.value - 1.0) <= 1e-12, p.label


def test_witness_rejects_overlapping_supports():
    sp = measure_space([math.inf, math.inf])
    b1 = simple_function(sp, [1.0, 0.0])
    with pytest.raises(DomainError):
        LinfEmbeddingWitness(2, (b1, b1), epsilon=0.0, eta=None, exact=True,
                             threshold_achieved=None)


def test_t5_scan_and_gates():
    rep = suite_strict_convexity(power(2), l1(), SP6, budget=25)
    assert rep.status == STATUS_PASSED
    assert rep.details["min_midpoint_gap"] > 0.0
    from orlnorm import piecewise_linear
    pwl = piecewise_linear([(0, 0), (1, 0.5), (2, 2)])
    assert suite_strict_convexity(pwl, l1(), SP6).status == STATUS_HNM
    assert suite_strict_convexity(power(2), linf(), SP6).status == STATUS_HNM


def test_t6_both_directions():
    rep = suite_strict_monotonicity(power(2), l1(), SP6, budget=80)
    assert rep.status == STATUS_PASSED and not rep.violations
    rep_flat = suite_strict_monotonicity(flat_then_power(1, 2), lq(2), SP6, budget=10)
    assert rep_flat.status == STATUS_PASSED
    pair = rep_flat.details["constructed_flat_pair"]
    assert abs(pair["norm_z"] - pair["norm_y"]) <= 1e-9
    assert pair["z"] != pair["y"]


def test_t6_fallback_when_no_free_atom():
    # a single finite atom leaves nothing outside the support; the random
    # search cannot find a flat pair in a one-dimensional slice
    sp1 = unit_weights(1)
    rep = suite_strict_monotonicity(flat_then_power(1, 2), lq(2), sp1, budget=40)
    assert rep.status == STATUS_HNM


def test_norm_result_reports_its_own_evaluation():
    from orlnorm import modular
    phi, p = power(2), lq(2)
    x = simple_function(SP6, [0.5, 1.0, 0.2, 0.0, 0.7, 0.1])
    r = generated_norm(phi, p, x)
    g_at_star = p.evaluate((1.0, modular(phi, x, scale=r.k_star))) / r.k_star
    assert g_at_star <= r.value + 1e-9


def test_t7_estimate_and_gate():
    table = build_modulus_table(l1(), resolution=5e-3)
    rep = suite_decomposition_estimate(power(2), l1(), SP6, budget=60, table=table)
    assert rep.status == STATUS_PASSED and rep.details["checked"] == 60
    assert suite_decomposition_estimate(power(2), linf(), SP6).status == STATUS_HNM


def test_t7_trivial_endpoints():
    # x = 0: the difference is y itself, bound reduces to the norm being 1
    phi, p = power(2), l1()
    rng = np.random.default_rng(1)
    y = simple_function(SP6, rng.uniform(0.1, 1.0, 6))
    ny = generated_norm(phi, p, y).value
    y = y.scaled(1.0 / ny)
    assert generated_norm(phi, p, y).value <= 1.0 + 1e-9
    # x = y: the difference vanishes and the left side is 0
    assert generated_norm(phi, p, y.minus_dominated(y)).value == 0.0


def test_t8_estimates_and_empty_feasible():
    phi, p = power(2), lq(2)
    table = build_modulus_table(p, resolution=5e-3)
    rng = np.random.default_rng(0)
    y = simple_function(SP6, rng.uniform(0.3, 1.0, 6))
    d, rep = lower_local_um_estimate(phi, p, y, 0.5, samples=40, seed=1, table=table)
    assert rep.status == STATUS_PASSED
    assert d > 0.0
    d2, rep2 = lower_local_um_estimate(phi, p, y, 1.5, samples=10, seed=1, table=table)
    assert rep2.status == STATUS_EMPTY and d2 == 0.0
    assert suite_lower_local_um(phi, p, SP6, budget=20, table=table).status == STATUS_PASSED


def test_t9_positive_and_failure_branches():
    table = build_modulus_table(l1(), resolution=5e-3)
    rep = suite_uniform_monotonicity(power(2), l1(), SP6, budget=30, table=table)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "positive"
    for eps_label, eps_info in rep.details["per_epsilon"].items():
        assert eps_info["delta_hat_modular"] > 0.0
        # the scaled witness keeps the empirical modulus at or below eps
        assert eps_info["empirical_modulus"] <= float(eps_label) + 1e-6

    rep_f = suite_uniform_monotonicity(exp_minus(), lq(2), SPW, n_max=8)
    assert rep_f.status == STATUS_PASSED
    assert rep_f.details["branch"] == "failure-construction"
    k = rep_f.details["k"]
    assert k > 1.0
    for m in rep_f.details["measured"]:
        assert m["norm_x_n"] >= 2.0 / (3.0 * k) - 1e-9
        assert m["norm_sum"] <= 1.0 + 2.0 ** -m["n"] + 1e-9
        assert m["modular_at_k"] <= 2.0 ** -m["n"] + 1e-12

    assert suite_uniform_monotonicity(flat_then_power(1, 2), l1(), SP6).status == STATUS_HNM
    assert suite_uniform_monotonicity(power(2), linf(), SP6).status == STATUS_HNM


def test_r2_branches():
    rep = suite_order_continuity(power(2), l1(), SP6)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "order-continuous"
    assert rep.details["tail_norms"][-1] <= 1e-2
    rep_f = suite_order_continuity(exp_minus(), lq(2), SPW)
    assert rep_f.status == STATUS_PASSED and rep_f.details["branch"] == "not-order-continuous"
    assert min(rep_f.details["tail_norms"]) >= 0.9
    assert rep_f.details["last_tail_modular"] <= 2.0 ** -15


def test_r3_branches():
    rep = suite_modular_norm_equivalence(power(2), linf(), SP6, n_max=20)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "convergent"
    assert rep.details["norms"][-1] <= 1e-3
    rep_c = suite_modular_norm_equivalence(exp_minus(), lq(2), SPW, n_max=20)
    assert rep_c.status == STATUS_PASSED and rep_c.details["branch"] == "counterexample"
    assert all(v >= 0.9 for v in rep_c.details["norms"])
    rep_flat = suite_modular_norm_equivalence(flat_then_power(1, 2), lq(2), SP6)
    assert rep_flat.status == STATUS_PASSED and rep_flat.details["branch"] == "flat-witness"


def test_strict_convexity_implies_strict_monotonicity():
    # scans agree in the strictly convex cases
    for phi in (power(2), power(3)):
        for p in (l1(), lq(2)):
            r5 = suite_strict_convexity(phi, p, SP6, budget=15, seed=5)
            r6 = suite_strict_monotonicity(phi, p, SP6, budget=30, seed=5)
            if r5.status == STATUS_PASSED:
                assert r6.status == STATUS_PASSED


def test_suitable_regime_mapping():
    assert suitable_delta2_regime(unit_weights(4)) == REGIME_ZERO
    assert suitable_delta2_regime(SPW) == REGIME_INFINITY
    assert suitable_delta2_regime(measure_space([1.0, math.inf])) == REGIME_GLOBAL


def test_run_suites_order_and_validation():
    reports = run_suites(["T2", "T1"], power(2), l1(), unit_weights(4), budget=10)
    assert [r.theorem_id for r in reports] == ["T1", "T2"]
    with pytest.raises(DomainError):
        run_suites(["T99"], power(2), l1(), SP6)
    assert set(SUITE_IDS) == {"T1", "T2", "L1", "L2", "T3", "T4", "T5", "T6", "T7",
                              "T8", "T9", "R2", "R3"}


def test_reports_serialize_to_plain_json():
    import json
    reports = run_suites(["T1", "L2", "T4"], flat_then_power(1, 2), lq(2),
                         unit_weights(4), budget=10)
    blob = json.dumps([r.to_dict() for r in reports], sort_keys=True)
    assert json.loads(blob)[0]["theorem_id"] == "T1"


def test_replay_rejects_unknown_kind():
    with pytest.raises(DomainError):
        replay_violation({"kind": "nonsense"})


# ---------------------------------------------------------------------------
# Violation registry: one measurement and one predicate per kind

BAD = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.8), (math.pi / 2, 1.0)])
SP2 = unit_weights(2)
SP3 = unit_weights(3)
INF1 = measure_space([math.inf])
INF2 = measure_space([math.inf, math.inf])


def _rec(kind, phi=None, p=None, space=SP2, **inputs):
    return {"kind": kind, "phi": (phi or power(2)).descriptor(),
            "p": (p or l1()).descriptor(), "space": space.descriptor(), **inputs}


def _stand_in_engine(transform):
    """generated_norm with its value passed through `transform`: a broken
    engine for the axioms the working one cannot be made to violate."""
    def engine(phi, p, x, **kwargs):
        r = generated_norm(phi, p, x, **kwargs)
        return dataclasses.replace(r, value=transform(r.value))
    return engine


_SQUARED = _stand_in_engine(lambda v: v * v)
_ZERO = _stand_in_engine(lambda v: 0.0)
_FLAT = flat_then_power(1, 2)
_DIFF_TRUE = {"x": [0.0, 0.0], "y": [0.2, 0.1], "delta_floor": 1.0, "slack": 0.0}
_DIFF_FALSE = {**_DIFF_TRUE, "delta_floor": 0.0}

# kind -> (record that replays True, record that replays False[, stand-in engine
# used for the True record])
REPLAY_CASES = {
    "sandwich": (_rec("sandwich", p=BAD, point=[1.0, 1.0]),
                 _rec("sandwich", p=BAD, point=[1.0, 0.0])),
    "ordering": (_rec("ordering", p=BAD, values=[1.0, 1.0]),
                 _rec("ordering", p=lq(2), values=[1.0, 1.0])),
    "norm_triangle": (_rec("norm_triangle", x=[1.0, 0.0], y=[1.0, 0.0], lam=1.0),
                      _rec("norm_triangle", x=[1.0, 0.0], y=[0.0, 1.0], lam=1.0), _SQUARED),
    # capped at k = 1e12, the finite-slope generator misses homogeneity by ~1e-6
    "norm_homogeneity": (_rec("norm_homogeneity", phi=power(1), x=[0.5, 0.5], y=[0.0, 0.0],
                              lam=1e6),
                         _rec("norm_homogeneity", x=[0.5, 0.5], y=[0.0, 0.0], lam=2.0)),
    "norm_zero": (_rec("norm_zero", values=[1.0, 0.0]),
                  _rec("norm_zero", values=[1.0, 0.0]), _ZERO),
    "attainment": (_rec("attainment", phi=power(1), values=[0.5, 0.5]),
                   _rec("attainment", values=[0.5, 0.5])),
    "unit_ball_bounds": (_rec("unit_ball_bounds", phi=_FLAT, p=BAD,
                              space=measure_space([math.inf, 1.0, 1.0]), values=[1.0, 1.5, 2.0]),
                         _rec("unit_ball_bounds", phi=_FLAT, p=lq(2),
                              space=measure_space([math.inf, 1.0, 1.0]), values=[1.0, 1.5, 2.0])),
    # on a finite atom the flat zone no longer pins the norm at max|z|
    "embedding_exact": (_rec("embedding_exact", phi=_FLAT, z=[1.0, 0.0]),
                        _rec("embedding_exact", phi=_FLAT, space=INF2, z=[1.0, -0.5])),
    "embedding_bounds": (_rec("embedding_bounds", levels=[1.0, 1.0], z=[1.0, 0.0],
                              epsilon=0.0, eta=0.0),
                         _rec("embedding_bounds", levels=[1.0, 1.0], z=[1.0, 0.0],
                              epsilon=2.0, eta=0.0)),
    "midpoint": (_rec("midpoint", x=[0.5, 0.0], y=[0.5, 0.0]),
                 _rec("midpoint", x=[0.5, 0.0], y=[0.0, 0.5])),
    "strict_monotonicity": (_rec("strict_monotonicity", phi=_FLAT, p=lq(2), x=[0.2, 0.1],
                                 y=[0.2, 0.1]),
                            _rec("strict_monotonicity", phi=_FLAT, p=lq(2), x=[0.1, 0.05],
                                 y=[0.2, 0.1])),
    "flat_pair_mismatch": (_rec("flat_pair_mismatch", y=[0.5, 0.0], z=[1.0, 0.0], k=1.0),
                           _rec("flat_pair_mismatch", y=[0.5, 0.0], z=[0.5, 0.0], k=1.0)),
    "decomposition": (_rec("decomposition", **_DIFF_TRUE), _rec("decomposition", **_DIFF_FALSE)),
    "lower_local_um": (_rec("lower_local_um", **_DIFF_TRUE),
                       _rec("lower_local_um", **_DIFF_FALSE)),
    "uniform_monotonicity": (_rec("uniform_monotonicity", **_DIFF_TRUE),
                             _rec("uniform_monotonicity", **_DIFF_FALSE)),
    "delta_hat_nonpositive": (_rec("delta_hat_nonpositive", y=[0.5, 0.0], epsilon=0.5,
                                   delta_hat=0.0),
                              _rec("delta_hat_nonpositive", y=[0.5, 0.0], epsilon=0.5,
                                   delta_hat=0.1)),
    "um_failure_construction": (_rec("um_failure_construction", x=[3.0, 0.0], x_n=[0.0, 0.5],
                                     k=1.0, n=1),
                                _rec("um_failure_construction", x=[0.0, 0.0], x_n=[0.0, 0.5],
                                     k=1.0, n=1)),
    "order_continuity": (_rec("order_continuity", space=SP3, levels=[1.0, 1.0, 1.0]),
                         _rec("order_continuity", space=SP3, levels=[1.0, 1e-4, 1e-6])),
    "order_continuity_failure": (_rec("order_continuity_failure", space=SP3,
                                      levels=[1.0, 1e-4, 1e-6]),
                                 _rec("order_continuity_failure", space=SP3,
                                      levels=[1.0, 1.0, 1.0])),
    "modular_norm_convergence": (_rec("modular_norm_convergence", base=[1.0, 1.0], n_max=2,
                                      conv_tol=0.5),
                                 _rec("modular_norm_convergence", base=[1.0, 1.0], n_max=2,
                                      conv_tol=2.0)),
    "flat_sequence": (_rec("flat_sequence", phi=_FLAT, p=lq(2), space=INF1, values=[1.5]),
                      _rec("flat_sequence", phi=_FLAT, p=lq(2), space=INF1, values=[1.0])),
    "steep_sequence": (_rec("steep_sequence", space=measure_space([1.0]), n=1, level=0.1,
                            norm_floor=0.9),
                       _rec("steep_sequence", space=measure_space([1.0]), n=1, level=0.1,
                            norm_floor=0.1)),
}


def test_registry_kinds_are_the_emitted_kinds():
    """CHECKS has an entry for exactly the kinds the suites pass to _check/_flag."""
    emitted = set()
    for node in ast.walk(ast.parse(inspect.getsource(verify))):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_check", "_flag"):
            emitted |= {c.value for c in ast.walk(node.args[1])
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    assert emitted == set(verify.CHECKS) == set(REPLAY_CASES)


@pytest.mark.parametrize("kind", sorted(REPLAY_CASES))
def test_every_kind_replays_its_predicate(kind, monkeypatch):
    violating, clean, *engine = REPLAY_CASES[kind]
    assert not replay_violation(clean)
    if engine:
        monkeypatch.setattr(verify, "generated_norm", engine[0])
    assert replay_violation(violating)


def test_emitted_records_replay_as_emitted():
    reports = run_suites(["T1", "T2", "L1", "T5", "R2"], power(2), BAD, SP2, budget=4)
    violations = [v for rep in reports for v in rep.violations]
    assert {v["kind"] for v in violations} >= {"sandwich", "ordering"}
    assert all(replay_violation(v) for v in violations)


@pytest.mark.parametrize("phi, p, builds", [(exp_minus(), l1(), 1), (power(2), linf(), 0)])
def test_run_suites_builds_at_most_one_table(monkeypatch, phi, p, builds):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_modulus_table(*args, **kwargs)

    monkeypatch.setattr(verify, "build_modulus_table", counting)
    run_suites(SUITE_IDS, phi, p, unit_weights(6), budget=5)
    assert len(calls) == builds
