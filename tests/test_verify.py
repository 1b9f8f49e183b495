import ast
import dataclasses
import inspect
import math

import numpy as np
import pytest

from orlnorm import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, DomainError,
                     LinfEmbeddingWitness, boundary_sampled, build_linf_witness,
                     build_modulus_table, exp_minus, flat_then_power, generated_norm,
                     generated_norm_batch, l1,
                     linf, lower_local_um_estimate, lq, measure_space, modular,
                     piecewise_linear, power, replay_violation, run_suites, simple_function,
                     strictly_monotone_planar_norms, suitable_delta2_regime, unit_weights)
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
    # trials: the sphere's vertices read (the q-mean's two axis points) and
    # the functions ordered
    rep = suite_sandwich_ordering(power(2), lq(2), SP6, budget=25)
    assert rep.status == STATUS_PASSED and rep.trials == 2 + 25
    bad = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.8), (math.pi / 2, 1.0)])
    rep_bad = suite_sandwich_ordering(power(2), bad, SP6, budget=1)
    assert rep_bad.status == STATUS_FAILED and rep_bad.trials == 3 + 1
    sandwich = [v for v in rep_bad.violations if v["kind"] == "sandwich"]
    assert sandwich
    assert replay_violation(sandwich[0])


@pytest.mark.parametrize("p, calls", [(linf(), 2), (l1(), 2), (lq(2), 3)],
                         ids=["linf", "l1", "lq2"])
def test_t1_norms_each_distinct_planar_norm_once(monkeypatch, p, calls):
    # the ordering's ends are the max and sum norms: a p equal to one of
    # them is one planar norm, normed in one batch
    seen = []
    real = verify.generated_norm_batch

    def counted(phi, q, space, rows):
        seen.append(repr(q.descriptor()))
        return real(phi, q, space, rows)

    monkeypatch.setattr(verify, "generated_norm_batch", counted)
    assert suite_sandwich_ordering(power(2), p, SP6, budget=10).status == STATUS_PASSED
    assert len(seen) == calls and len(set(seen)) == calls


def test_t2_axioms_pass():
    rep = suite_norm_axioms(exp_minus(), lq(1.5), SP6, budget=30)
    assert rep.status == STATUS_PASSED


def test_l1_attainment_and_gate():
    assert suite_attainment(power(2), l1(), SP6).status == STATUS_PASSED
    assert suite_attainment(power(1), l1(), SP6).status == STATUS_HNM


def test_l1_and_t6_pass_on_a_nearly_linear_generator():
    # |u|^(1 + 1e-13) grows faster than linearly, so each norm is attained,
    # at k near 1e13 times the Luxemburg point: a search capped at 1e12 of
    # it reported every sample unattained (L1 failed, T6 checked no pair)
    l1_rep, t6_rep = run_suites(["L1", "T6"], power(1.0000000000001), l1(), SP6)
    assert l1_rep.status == STATUS_PASSED and l1_rep.trials == 200
    assert t6_rep.status == STATUS_PASSED and t6_rep.trials == 200


def test_l2_bounds_and_gate():
    rep = suite_unit_ball_bounds(flat_then_power(1, 2), lq(2), SP6)
    assert rep.status == STATUS_PASSED
    assert suite_unit_ball_bounds(power(2), lq(2), SP6).status == STATUS_HNM


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
    # a flat zone does not break doubling at infinity: Phi(2u) / Phi(u)
    # tends to 2^q above the zone and to 2 on a polyline's affine tail
    for phi, k in ((flat_then_power(2, 40), 2.0 ** 40), (flat_then_power(2, 2), 4.0),
                   (piecewise_linear([(0, 0), (2, 0), (3, 5)]), 2.0)):
        gate = run_suites(["T3"], phi, l1(), SP6, budget=20)[0]
        assert gate.status == STATUS_HNM
        assert gate.details == {"reason": "generator satisfies the doubling condition at infinity",
                                "constant": k}
    # a steep jump: with eta = 0.1 a level's modular jumps past the threshold
    _, rep = build_linf_witness(exp_minus(), l1(), 4, "approximate", eta=0.1, z_samples=20, seed=2)
    assert rep.status == STATUS_PASSED
    assert rep.details["threshold_achieved"] >= rep.details["threshold_requested"]
    # no level jumps by 2 for the sixth basis element: its budget 0.1 / 2^6
    # times the best ratio Phi(1.01 v) / Phi(v), at the top level v, is 1.76
    _, gate = build_linf_witness(exp_minus(), l1(), 6, "approximate", seed=2)
    assert gate.status == STATUS_HNM
    assert gate.details["reason"] == "double precision cannot hold the required modular jump"
    v = gate.details["level"]
    assert gate.details["best_achievable"] == pytest.approx(
        0.1 / 64 * exp_minus()(1.01 * v) / exp_minus()(v), rel=1e-9)
    assert gate.details["best_achievable"] < 2.0
    with pytest.raises(DomainError, match="unknown witness mode"):
        build_linf_witness(exp_minus(), l1(), 4, "approximately")


def test_t3_gates_a_basis_whose_remeasured_jump_falls_below_the_floor():
    # the re-measured jump of the last basis element is its best jump a_j
    # times (1 - 1e-12) up to rounding, so the gate fires for a_j in
    # [2, 2 / (1 - 1e-12)); the six-level gate gives the best ratio r =
    # Phi(1.01 v) / Phi(v), and epsilon = 2^5 (1 + d) / r puts the fourth
    # element's a_j = epsilon / 2^4 r at 2 (1 + d)
    _, gate = build_linf_witness(exp_minus(), l1(), 6, "approximate", seed=2)
    r = gate.details["best_achievable"] * 64 / 0.1
    _, gate = build_linf_witness(exp_minus(), l1(), 4, "approximate",
                                 epsilon=32 * (1 + 0.5e-12) / r, seed=2)
    assert gate.status == STATUS_HNM
    assert gate.details["reason"] == "constructed basis does not jump above the floor"
    assert gate.details["index"] == 3
    assert 2.0 * (1.0 - 1e-12) < gate.details["scaled_modular"] < 2.0
    # just above the window the basis jumps by 2 and the suite runs
    w, rep = build_linf_witness(exp_minus(), l1(), 4, "approximate",
                                epsilon=32 * (1 + 2e-12) / r, z_samples=5, seed=2)
    assert rep.status == STATUS_PASSED
    assert modular(exp_minus(), w.basis[3], scale=1.01) >= 2.0


def test_t3_gates_a_flat_zone_that_leaves_no_level_range():
    # Phi vanishes up to 1e12, yet Phi(2u) <= 3^40 Phi(u) for u >= 2e12:
    # doubling holds at infinity, so T3's hypothesis fails
    w, gate = build_linf_witness(flat_then_power(1e12, 40), l1(), 4, "approximate")
    assert w is None and gate.status == STATUS_HNM
    assert gate.details["reason"] == "generator satisfies the doubling condition at infinity"


def test_public_entry_points_show_their_names_and_defaults():
    # the public suites take run_suites' defaults; the constructions keep their own
    sig = inspect.signature(suite_norm_axioms)
    assert suite_norm_axioms.__name__ == "suite_norm_axioms"
    assert list(sig.parameters) == ["phi", "p", "space", "seed", "budget"]
    defaults = inspect.signature(run_suites).parameters
    for name in ("seed", "budget"):
        assert sig.parameters[name].default == defaults[name].default != inspect.Parameter.empty
    assert build_linf_witness.__name__ == "build_linf_witness"
    assert inspect.signature(build_linf_witness).parameters["seed"].default == 0
    assert suite_norm_axioms(power(2), l1(), SP6, seed=3).trials == 200


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


@pytest.mark.parametrize("q", [1.00000000001, 1.0000000000001])
@pytest.mark.parametrize("p", [l1(), lq(2)], ids=["l1", "lq:2"])
def test_t5_gates_a_midpoint_gap_below_its_tolerance(q, p):
    # strictly convex, but its midpoint gap at [0, 1]'s quarter points,
    # about 0.65 (q - 1), is below the midpoint check's 1e-12: the scan
    # would flag rounding (at q = 1 + 1e-9 the gap is 6.5e-11 and it passes)
    rep = suite_strict_convexity(power(q), p, SP6, budget=25)
    assert rep.status == STATUS_HNM
    assert 0.0 < rep.details["gap"] < rep.details["tolerance"] == verify.MIDPOINT_TOL
    assert suite_strict_convexity(power(1.000000001), p, SP6, budget=25).status == STATUS_PASSED


def test_t6_both_directions():
    rep = suite_strict_monotonicity(power(2), l1(), SP6, budget=80)
    assert rep.status == STATUS_PASSED and not rep.violations
    rep_flat = suite_strict_monotonicity(flat_then_power(1, 2), lq(2), SP6, budget=10)
    assert rep_flat.status == STATUS_PASSED
    pair = rep_flat.details["constructed_flat_pair"]
    assert abs(pair["norm_z"] - pair["norm_y"]) <= 1e-9
    assert pair["z"] != pair["y"]


def test_t6_without_an_attained_norm_is_out_of_reach():
    # a linear tail keeps J below 1 under the sum norm and the q-mean (J = 0
    # for power(1)), so no ||y|| is attained and no sample is checked
    for p in (l1(), lq(2)):
        rep = suite_strict_monotonicity(power(1), p, SP6, budget=20)
        assert rep.status == STATUS_HNM
        assert rep.details["reason"] == "attainment unavailable for every sample"
    # flat_then_power(a, 1) under the sum norm: J tends to a mu(supp y), and
    # the flat pair's y is carried by 5 unit atoms, unattained iff 5 a < 1
    rep = suite_strict_monotonicity(flat_then_power(0.1, 1), l1(), SP6, budget=20)
    assert rep.status == STATUS_HNM
    assert rep.details["reason"] == "attainment unavailable for the constructed element"
    rep = suite_strict_monotonicity(flat_then_power(0.5, 1), l1(), SP6, budget=20)
    assert rep.status == STATUS_PASSED


def test_t6_flat_pair_on_any_space_with_two_atoms():
    # the free last atom may be infinite; one atom holds no flat pair
    phi = flat_then_power(1, 2)
    for weights in ([math.inf, math.inf], [1.0, math.inf], [0.5, 2.0, math.inf]):
        rep = suite_strict_monotonicity(phi, lq(2), measure_space(weights), budget=40)
        assert rep.status == STATUS_PASSED, (weights, rep.details)
        pair = rep.details["constructed_flat_pair"]
        assert abs(pair["norm_z"] - pair["norm_y"]) <= 1e-9
        assert pair["z"] != pair["y"]
    rep = suite_strict_monotonicity(phi, lq(2), unit_weights(1), budget=40)
    assert rep.status == STATUS_HNM


def test_norm_result_reports_its_own_evaluation():
    from orlnorm import modular
    phi, p = power(2), lq(2)
    x = simple_function(SP6, [0.5, 1.0, 0.2, 0.0, 0.7, 0.1])
    r = generated_norm(phi, p, x)
    g_at_star = p.evaluate((1.0, modular(phi, x, scale=r.k_star))) / r.k_star
    assert g_at_star <= r.value + 1e-9


def test_t7_estimate_and_gate():
    rep = suite_decomposition_estimate(power(2), l1(), SP6, budget=60)
    assert rep.status == STATUS_PASSED and rep.details["checked"] == 60
    assert suite_decomposition_estimate(power(2), linf(), SP6).status == STATUS_HNM
    # Phi vanishes up to 1e3, so every scaled x has modular 0 and no pair is
    # checked: a pass would be vacuous
    rep = suite_decomposition_estimate(flat_then_power(1e3, 80), l1(), SP6)
    assert rep.status == STATUS_HNM and rep.trials == 0
    assert rep.details["reason"].startswith("no sampled pair has a modular")


def test_strictness_gates_reject_a_ball_that_is_not_monotone():
    # the first edge runs from (1, 0) out to (1.002, 0.3), so p((1.001, 0)) >
    # p((1.001, 0.05)): outside the hypothesis of T7-T9
    p = boundary_sampled([(0.0, 1.0), (math.atan2(0.3, 1.002), math.hypot(1.002, 0.3)),
                          (math.pi / 2, 1.0)])
    assert p((1.001, 0.0)) > p((1.001, 0.05))
    for suite in (suite_decomposition_estimate, suite_lower_local_um,
                  suite_uniform_monotonicity):
        rep = suite(power(2), p, SP6, budget=10)
        assert rep.status == STATUS_HNM, rep.details
        assert rep.details["reason"] == "planar norm is not strictly monotone"


def test_t7_trivial_endpoints():
    # x = 0: the difference is y itself, bound reduces to the norm being 1
    phi, p = power(2), l1()
    rng = np.random.default_rng(1)
    y = simple_function(SP6, rng.uniform(0.1, 1.0, 6))
    ny = generated_norm(phi, p, y).value
    y = y.scaled(1.0 / ny)
    assert generated_norm(phi, p, y).value <= 1.0 + 1e-9
    # x = y: the difference vanishes and the left side is 0
    assert generated_norm(phi, p, simple_function(SP6, [v - v for v in y.values])).value == 0.0


def test_t8_rejects_a_y_it_cannot_scale_to_the_sphere(monkeypatch):
    # a zero y has norm 0, and a y on an infinite atom under a generator
    # vanishing only at 0 has norm +inf: neither reaches the unit sphere
    def untouched(*args, **kwargs):
        raise AssertionError("no rng or table before y is checked")

    monkeypatch.setattr(verify, "_rng", untouched)
    monkeypatch.setattr(verify, "_modulus_table", untouched)
    for y in (simple_function(SP6, [0.0] * 6),
              simple_function(measure_space([1.0, math.inf]), [0.5, 0.5])):
        with pytest.raises(DomainError, match="y must have a finite positive norm"):
            lower_local_um_estimate(power(2), l1(), y, 0.5, samples=5)


def test_t8_estimates_and_empty_feasible():
    phi, p = power(2), lq(2)
    rng = np.random.default_rng(0)
    y = simple_function(SP6, rng.uniform(0.3, 1.0, 6))
    d, rep = lower_local_um_estimate(phi, p, y, 0.5, samples=40, seed=1)
    assert rep.status == STATUS_PASSED
    assert d > 0.0
    d2, rep2 = lower_local_um_estimate(phi, p, y, 1.5, samples=10, seed=1)
    assert rep2.status == STATUS_EMPTY and d2 == 0.0
    assert suite_lower_local_um(phi, p, SP6, budget=20).status == STATUS_PASSED


def test_t9_positive_and_failure_branches():
    rep = suite_uniform_monotonicity(power(2), l1(), SP6, budget=30)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "positive"
    for eps_label, eps_info in rep.details["per_epsilon"].items():
        assert eps_info["delta_hat_modular"] > 0.0
        # the scaled witness keeps the empirical modulus at or below eps
        assert eps_info["empirical_modulus"] <= float(eps_label) + 1e-6

    rep_f = suite_uniform_monotonicity(exp_minus(), lq(2), SPW)
    assert rep_f.status == STATUS_PASSED
    assert rep_f.details["branch"] == "failure-construction"
    k = rep_f.details["k"]
    assert k > 1.0
    for m in rep_f.details["measured"]:
        assert m["norm_x_n"] >= 2.0 / (3.0 * k) - 1e-9
        assert m["norm_sum"] <= 1.0 + 2.0 ** -m["n"] + 1e-9
        assert m["modular_at_k"] <= 2.0 ** -m["n"] + 1e-12
    # exp_minus alone takes this branch: its unit vector's norm is attained,
    # at k >= 1, under every strictly monotone catalog norm
    for p in strictly_monotone_planar_norms().values():
        rep_p = suite_uniform_monotonicity(exp_minus(), p, SPW, budget=10)
        assert rep_p.status == STATUS_PASSED and rep_p.details["k"] >= 1.0, p.label

    assert suite_uniform_monotonicity(flat_then_power(1, 2), l1(), SP6).status == STATUS_HNM
    assert suite_uniform_monotonicity(power(2), linf(), SP6).status == STATUS_HNM


def test_r2_branches():
    rep = suite_order_continuity(power(2), l1(), SP6)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "order-continuous"
    assert rep.details["tail_norms"][-1] <= 2.0 ** (2.0 - 28.0 / 2.0)  # the bound for K = 4
    rep_f = suite_order_continuity(exp_minus(), lq(2), SPW)
    assert rep_f.status == STATUS_PASSED and rep_f.details["branch"] == "not-order-continuous"
    assert min(rep_f.details["tail_norms"]) >= 0.9
    assert rep_f.details["last_tail_modular"] <= 2.0 ** -15


@pytest.mark.parametrize("phi", [flat_then_power(5, 2), flat_then_power(2.5, 1),
                                 piecewise_linear([(0, 0), (3, 0), (4, 1)])],
                         ids=["flat_then_power:5,2", "flat_then_power:2.5,1", "pwl:0,0;3,0;4,1"])
def test_r2_order_continuous_past_a_wide_flat_zone(phi):
    # doubling holds at infinity however wide the flat zone, so the tails
    # must lose their norm
    for p in (l1(), lq(2), linf()):
        rep = suite_order_continuity(phi, p, SPW)
        assert rep.status == STATUS_PASSED, (p.label, rep.violations)
        assert rep.details["branch"] == "order-continuous"


@pytest.mark.parametrize("p", [linf(), l1(), lq(1.5), lq(2), lq(3)],
                         ids=["linf", "l1", "lq:1.5", "lq:2", "lq:3"])
def test_r2_bounds_the_last_tail_by_the_doubling_constant(p):
    # |u|^5 doubles with K = 32: the last tail, of modular 2^-28, has norm at
    # most 2 (K 2^-28)^(1/5) = 0.082, above the 1e-2 a fixed cut would allow
    rep = suite_order_continuity(power(5), p, SPW)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "order-continuous"
    assert 1e-2 < rep.details["tail_norms"][-1] <= 0.5 * 2.0 ** (2.0 - 28.0 / 5.0)
    # past q = 14 the bound is 1 or more: nothing to check.  For power:40
    # the levels 2^j overflow Phi, and the steep level serves instead
    for phi, k in ((power(40), 2.0 ** 40), (flat_then_power(0.5, 40), 2.0 ** 40)):
        rep = suite_order_continuity(phi, p, SPW)
        assert rep.status == STATUS_HNM, phi.label
        assert rep.details["doubling_constant"] == pytest.approx(k, rel=1e-6)
        assert rep.details["bound"] == pytest.approx(2.0 ** (2.0 - 28.0 / 40.0), rel=1e-6)


def test_r3_branches():
    rep = suite_modular_norm_equivalence(power(2), linf(), SP6)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "convergent"
    assert rep.details["norms"][-1] <= 1e-3
    rep_c = suite_modular_norm_equivalence(exp_minus(), lq(2), SPW)
    assert rep_c.status == STATUS_PASSED and rep_c.details["branch"] == "counterexample"
    assert all(v >= 0.9 for v in rep_c.details["norms"])
    rep_flat = suite_modular_norm_equivalence(flat_then_power(1, 2), lq(2), SP6)
    assert rep_flat.status == STATUS_PASSED and rep_flat.details["branch"] == "flat-witness"


def test_steep_level_is_the_last_finite_float():
    for phi in (power(8), exp_minus()):
        v = verify._finite_phi_top(phi)
        assert math.isfinite(phi(v)) and math.isinf(phi(math.nextafter(v, math.inf)))
    for phi in (power(2), flat_then_power(1, 2), piecewise_linear([(0, 0), (1, 0.5), (2, 2)])):
        assert verify._finite_phi_top(phi) == verify.PHI_TOP_CAP


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
    with pytest.raises(DomainError, match="budget"):
        run_suites(["T2"], power(2), l1(), SP6, budget=0)
    with pytest.raises(DomainError, match="seed"):
        run_suites(["T2"], power(2), l1(), SP6, seed=-3, budget=2)
    # the public suites are run_suites on one id, with its checks
    with pytest.raises(DomainError, match="budget"):
        suite_norm_axioms(exp_minus(), lq(1.5), SP6, budget=0)
    with pytest.raises(DomainError, match="seed"):
        suite_strict_monotonicity(power(2), l1(), SP6, seed=-1)
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
    """generated_norm_batch with its values passed through `transform`: a
    broken engine for the axioms the working one cannot be made to violate."""
    def engine(phi, p, space, values):
        r = generated_norm_batch(phi, p, space, values)
        return dataclasses.replace(r, value=transform(r.value))
    return engine


_SQUARED = _stand_in_engine(lambda v: v * v)
_ZERO = _stand_in_engine(lambda v: 0.0 * v)
_FLAT = flat_then_power(1, 2)
_DIFF_TRUE = {"x": [0.0, 0.0], "y": [0.2, 0.1], "delta_floor": 1.0}
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
    # the search caps k relative to max|x|, so the working engine is homogeneous
    "norm_homogeneity": (_rec("norm_homogeneity", phi=power(1), x=[0.5, 0.5], y=[0.0, 0.0],
                              lam=1e6),
                         _rec("norm_homogeneity", phi=power(1), x=[0.5, 0.5], y=[0.0, 0.0],
                              lam=1e6), _SQUARED),
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
    "order_continuity": (_rec("order_continuity", space=SP3, levels=[1.0, 1.0, 1.0], bound=1e-2),
                         _rec("order_continuity", space=SP3, levels=[1.0, 1e-4, 1e-6],
                              bound=1e-2)),
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
        monkeypatch.setattr(verify, "generated_norm_batch", engine[0])
    assert replay_violation(violating)


def test_emitted_records_replay_as_emitted():
    reports = run_suites(["T1", "T2", "L1", "T5", "R2"], power(2), BAD, SP2, budget=4)
    violations = [v for rep in reports for v in rep.violations]
    assert {v["kind"] for v in violations} >= {"sandwich", "ordering"}
    assert all(replay_violation(v) for v in violations)


@pytest.mark.parametrize("phi, p, space", [
    (exp_minus(), l1(), SP6), (power(2), lq(2), SPW), (flat_then_power(1, 2), lq(1.5), SP6),
    (power(3), linf(), unit_weights(3)), (power(2), BAD, SP2)])
def test_batched_records_replay_bit_for_bit(monkeypatch, phi, p, space):
    """Every record the batched suites take replays, as a batch of one, to the
    fields they measured in their batches: the batch's rows are independent.
    On the non-convex ball BAD that includes T1's sandwich records, which
    verify_sandwich evaluates with p.evaluate_many."""
    flag_all = {kind: dataclasses.replace(check, violated=lambda r: True)
                for kind, check in verify.CHECKS.items()}
    monkeypatch.setattr(verify, "CHECKS", flag_all)
    batched = ["T1", "T2", "L1", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "R2", "R3"]
    records = [v for rep in run_suites(batched, phi, p, space, seed=3, budget=6)
               for v in rep.violations]
    assert {r["kind"] for r in records} >= {"ordering", "norm_triangle", "attainment"}
    if phi.kind == "exp_minus":
        assert {r["kind"] for r in records} >= {"embedding_bounds", "modular_norm_convergence"}
    if p is BAD:
        assert "sandwich" in {r["kind"] for r in records}
    for rec in records:
        measured, = verify._drive([flag_all[rec["kind"]].measure(*verify._decode(rec), [rec])])[0]
        assert measured == {key: rec[key] for key in measured}, rec["kind"]


@pytest.mark.parametrize("phi, p, builds", [(exp_minus(), l1(), 1), (power(2), linf(), 0)])
def test_run_suites_builds_at_most_one_table(monkeypatch, phi, p, builds):
    """One table per planar norm per process: a second run with the same p
    builds none, and a run whose suites stop at their gates builds none."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return build_modulus_table(*args, **kwargs)

    monkeypatch.setattr(verify, "build_modulus_table", counting)
    verify._modulus_table.cache_clear()
    run_suites(SUITE_IDS, phi, p, unit_weights(6), budget=5)
    assert len(calls) == builds
    run_suites(SUITE_IDS, phi, p, unit_weights(6), budget=5, seed=1)
    assert len(calls) == builds


def test_sign_draws_are_rng_choice_bit_for_bit():
    # _random_values draws its signs as _SIGNS[rng.integers(0, 2, n)], which is
    # how rng.choice([-1.0, 1.0], n) draws them: the same values and the same
    # next draw, so the suites' samples do not depend on which is used
    for seed in range(5):
        for n in (1, 5, 6, 7):
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.array_equal(verify._SIGNS[ours.integers(0, 2, n)],
                                  theirs.choice([-1.0, 1.0], n))
            assert ours.random() == theirs.random()
            space = unit_weights(n)
            ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = verify._random_values(space, ours, signed=True)
            assert np.array_equal(drawn, theirs.uniform(0.05, 1.0, n)
                                  * theirs.choice([-1.0, 1.0], n))
            assert ours.random() == theirs.random()


def test_verify_round_counts_steps_and_scalar_calls(monkeypatch):
    """`verify --all` for (exp_minus, l1) at seed 1, budget 20 merges the
    suites' concurrent requests into at most 10 batched engine calls (26 with
    the suites run one after another).  A call on the round's 6-atom space
    takes at most 7 lockstep steps, and one on R2's own space or on T3's
    (steep rows near overflow) at most 8: once Newton in log k overshoots
    into overflow, Newton in k from the lower end lands at or just below the
    root.  R3 and T3 make no scalar norm call, and no merged batch routes a
    row to the scalar engine: T4 and L2 miss their hypotheses, and every
    other row lies on finite atoms with a smooth generator, so T3's and
    R3's rows stay on the lockstep path too."""
    from orlnorm import cli, engine

    phi = exp_minus()
    r2_space = verify._steep_tail_element(phi, verify.TAIL_LEVELS)[0]
    t3_space = build_linf_witness(phi, l1(), verify.WITNESS_LEVELS, "approximate",
                                  z_samples=20, seed=1)[0].basis[0].space
    bound = {unit_weights(6): 7, r2_space: 8, t3_space: 8}
    suite = [None]  # the suite _drive is advancing; None while it answers
    requested: set[str] = set()
    calls: list[tuple] = []  # (space, lockstep steps) per batched engine call
    scalar: list[str] = []
    batch, scales, scalar_norm = (engine.generated_norm_batch, engine.scale_to_modular_batch,
                                  engine.generated_norm)

    def counted_batch(phi, p, space, values):
        r = batch(phi, p, space, values)
        calls.append((space, r.steps))
        return r

    def counted_scales(phi, space, values, targets):
        calls.append((space, 0))
        return scales(phi, space, values, targets)

    def counted_norm(*args, **kwargs):
        scalar.append(suite[0])
        return scalar_norm(*args, **kwargs)

    def tagged(tid, gen_fn):
        def run(*args, **kwargs):
            gen, reply = gen_fn(*args, **kwargs), None
            while True:
                suite[0] = tid
                try:
                    req = gen.send(reply)
                except StopIteration as stop:
                    return stop.value
                finally:
                    suite[0] = None
                requested.add(tid)
                reply = yield req
        return run

    monkeypatch.setattr(verify, "generated_norm_batch", counted_batch)
    monkeypatch.setattr(verify, "scale_to_modular_batch", counted_scales)
    for module in (verify, engine):
        monkeypatch.setattr(module, "generated_norm", counted_norm)
    for tid, fn in list(verify._SUITES.items()):
        monkeypatch.setitem(verify._SUITES, tid, tagged(tid, fn))
    argv = ["verify", "--all", "--json", "--phi", "exp_minus", "--p", "l1", "--seed", "1",
            "--budget", "20"]
    assert cli.main(argv) == 0
    assert requested >= {"T1", "T3", "R2", "R3"}
    assert len(calls) <= 10, len(calls)
    for space, steps in calls:
        assert steps <= bound[space], (space.n_atoms, steps)
    assert not {"R3", "T3"} & set(scalar)
    assert None not in scalar, scalar.count(None)


@pytest.mark.parametrize("seed", [0, 7])
def test_merged_suites_equal_each_suite_alone(orlicz_catalog, planar_catalog, seed):
    """Run together, the suites merge their requests into shared engine
    calls; every report is byte for byte the one each suite gives alone."""
    import json
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            together = run_suites(SUITE_IDS, phi, p, SP6, seed=seed, budget=6)
            alone = [rep for tid in SUITE_IDS
                     for rep in run_suites([tid], phi, p, SP6, seed=seed, budget=6)]
            assert (json.dumps([r.to_dict() for r in together])
                    == json.dumps([r.to_dict() for r in alone])), (phi.label, p.label)


def test_a_failing_suite_closes_the_others(monkeypatch):
    """A suite that raises on its second request: run_suites re-raises that
    exception, and every other suite's generator is closed."""
    class Boom(Exception):
        pass

    gens, closed = [], []

    def watched(tid, gen_fn):
        def run(*args, **kwargs):
            gen, reply, asked = gen_fn(*args, **kwargs), None, 0
            try:
                while True:
                    req = gen.send(reply)
                    asked += 1
                    if tid == "T2" and asked == 2:
                        raise Boom(tid)
                    reply = yield req
            except StopIteration as stop:
                return stop.value
            except GeneratorExit:
                closed.append(tid)
                gen.close()
                raise

        def started(*args, **kwargs):
            gens.append(run(*args, **kwargs))
            return gens[-1]
        return started

    for tid, fn in list(verify._SUITES.items()):
        monkeypatch.setitem(verify._SUITES, tid, watched(tid, fn))
    with pytest.raises(Boom, match="T2"):
        run_suites(SUITE_IDS, exp_minus(), l1(), SP6, seed=1, budget=5)
    assert len(gens) == len(SUITE_IDS)
    assert all(inspect.getgeneratorstate(g) == inspect.GEN_CLOSED for g in gens)
    assert {"T1", "T7", "T8"} <= set(closed) and "T2" not in closed


def test_t6_scan_shrinks_only_finite_atoms(monkeypatch):
    """On a space with an infinite atom, where every sample vanishes, the
    scan shrinks a finite atom: no pair has x == y, and T6 passes."""
    space = measure_space([1.0, math.inf])
    for phi in (power(2), exp_minus()):
        assert suite_strict_monotonicity(phi, l1(), space, budget=20).status == STATUS_PASSED
    flag_all = dataclasses.replace(verify.CHECKS["strict_monotonicity"], violated=lambda r: True)
    monkeypatch.setitem(verify.CHECKS, "strict_monotonicity", flag_all)
    recs = suite_strict_monotonicity(power(2), l1(), space, budget=40).violations
    assert len(recs) == 40 and all(r["x"] != r["y"] for r in recs)
    assert suite_strict_monotonicity(power(2), l1(), measure_space([math.inf]),
                                     budget=5).details["reason"] == verify.NO_FINITE_ATOM
