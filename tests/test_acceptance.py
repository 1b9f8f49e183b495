"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

from orlnorm import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, build_linf_witness,
                     catalog_orlicz_functions, catalog_planar_norms, delta2_check,
                     exp_minus, flat_then_power, generated_norm, generated_norm_on_grid, l1,
                     linf, lq, luxemburg_norm, measure_space, modulus_diagnostics, power,
                     simple_function, strictly_monotone_planar_norms, unit_weights)
from orlnorm.verify import (STATUS_PASSED, suite_decomposition_estimate,
                            suite_modular_norm_equivalence, suite_norm_axioms,
                            suite_strict_monotonicity)


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def _spaces():
    return [unit_weights(4), unit_weights(6),
            measure_space([0.5, 1.25, 2.0, 0.75]),
            measure_space([0.2, 0.9, 1.7, 0.4, 1.1])]


def _random_x(space, rng, scale=2.0):
    vals = rng.uniform(0.05, scale, space.n_atoms) * rng.choice([-1.0, 1.0], space.n_atoms)
    return simple_function(space, vals)


def test_criterion_01_max_type_norm_equals_luxemburg():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    spaces = _spaces()
    worst = 0.0
    count = 0
    for phi in (power(2), power(3), exp_minus()):
        for i in range(200):
            x = _random_x(spaces[i % len(spaces)], rng)
            a = generated_norm(phi, linf(), x).value
            b = luxemburg_norm(phi, x)
            worst = max(worst, abs(a - b))
            count += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _line(1, ok, f"max |diff| = {worst:.3e} over {count} cases in {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_closed_form_oracles_for_square_generator():
    # 1-D calculus: min_k (1 + S^2 k^2)/k = 2S at k = 1/S, and
    # min_k sqrt(1 + S^4 k^4)/k = sqrt(2) S at k = 1/S; both re-confirmed
    # against a 10^4-point log-grid record for every input.
    rng = np.random.default_rng(202)
    phi = power(2)
    worst_rel = 0.0
    worst_grid = 0.0
    for i in range(100):
        weights = rng.uniform(0.25, 2.0, 4)
        sp = measure_space(weights)
        x = _random_x(sp, rng)
        s = math.sqrt(sum(w * v * v for w, v in zip(sp.weights, x.values)))
        for p, closed in ((l1(), 2.0 * s), (lq(2), math.sqrt(2.0) * s)):
            got = generated_norm(phi, p, x).value
            grid = generated_norm_on_grid(phi, p, x)
            worst_rel = max(worst_rel, abs(got - closed) / closed)
            worst_grid = max(worst_grid, abs(grid - closed) / closed)
            assert got <= grid + 1e-8
    ok = worst_rel <= 1e-6 and worst_grid <= 2e-5
    _line(2, ok, f"closed-form rel err {worst_rel:.2e}, grid oracle rel err {worst_grid:.2e}")
    assert worst_rel <= 1e-6
    assert worst_grid <= 2e-5


def test_criterion_03_sandwich_and_family_ordering():
    from orlnorm import verify_sandwich
    planar = catalog_planar_norms()
    for name, p in planar.items():
        rep = verify_sandwich(p)
        assert rep.passed, (name, rep.first_violation())
    rng = np.random.default_rng(303)
    sp = unit_weights(5)
    worst = 0.0
    for phi in catalog_orlicz_functions().values():
        for _ in range(200):
            x = _random_x(sp, rng)
            lo = generated_norm(phi, linf(), x).value
            hi = generated_norm(phi, l1(), x).value
            for p in planar.values():
                mid = generated_norm(phi, p, x).value
                worst = max(worst, lo - mid, mid - hi)
    ok = worst <= 1e-9
    _line(3, ok, f"sandwich exact at the vertices of {len(planar)} norms; "
                 f"worst ordering slack {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_04_planar_moduli_closed_forms():
    t0 = time.monotonic()
    eps_grid = [i / 10.0 for i in range(1, 10)]
    worst_l1 = max(abs(modulus_diagnostics(l1(), e).value - e) for e in eps_grid)
    worst_linf = max(abs(modulus_diagnostics(linf(), e).value) for e in eps_grid)
    worst_lq2 = max(abs(modulus_diagnostics(lq(2), e).value - (1.0 - math.sqrt(1.0 - e * e)))
                    for e in eps_grid)
    elapsed = time.monotonic() - t0
    ok = worst_l1 <= 1e-3 and worst_linf <= 1e-9 and worst_lq2 <= 1e-3 and elapsed < 30.0
    _line(4, ok, f"l1 err {worst_l1:.2e}, linf err {worst_linf:.2e}, "
                 f"lq2 err {worst_lq2:.2e} in {elapsed:.1f}s")
    assert worst_l1 <= 1e-3
    assert worst_linf <= 1e-9
    assert worst_lq2 <= 1e-3
    assert elapsed < 30.0


def test_criterion_05_decomposition_estimate_across_catalog():
    sp = unit_weights(6)
    assert "linf" not in strictly_monotone_planar_norms()
    total = 0
    for phi_name, phi in catalog_orlicz_functions().items():
        for p_name, p in strictly_monotone_planar_norms().items():
            rep = suite_decomposition_estimate(phi, p, sp, budget=500, seed=55)
            assert rep.status == STATUS_PASSED, (phi_name, p_name, rep.violations[:1])
            assert rep.details["checked"] == 500, (phi_name, p_name, rep.details)
            total += rep.details["checked"]
    _line(5, True, f"{total} dominated pairs checked, zero violations")


def test_criterion_06_exact_embedding():
    phi = flat_then_power(1, 2)
    for name, p in catalog_planar_norms().items():
        witness, rep = build_linf_witness(phi, p, 8, "exact", z_samples=100, seed=66)
        assert rep.status == STATUS_PASSED, (name, rep.violations[:1])
        assert rep.trials >= 100
        assert witness.exact and len(witness.basis) == 8
    _line(6, True, "norm matches the sup norm to 1e-12 for 100 z on every catalog norm")


def test_criterion_07_approximate_embedding():
    phi = exp_minus()
    for name, p in catalog_planar_norms().items():
        witness, rep = build_linf_witness(phi, p, 4, "approximate", epsilon=0.1, eta=0.01,
                                          z_samples=100, seed=77)
        assert rep.status == STATUS_PASSED, (name, rep.violations[:1])
        assert rep.trials >= 100
        assert witness.threshold_achieved >= 2.0
    _line(7, True, "distortion within [1/(1+eta) - 1e-6, 1.1 + 1e-6] for 100 z per norm")


def test_criterion_08_strict_monotonicity_both_directions():
    sp = unit_weights(6)
    for phi_name, phi in (("power:2", power(2)), ("power:3", power(3)),
                          ("exp_minus", exp_minus())):
        for p in (l1(), lq(2)):
            rep = suite_strict_monotonicity(phi, p, sp, budget=500, seed=88)
            assert rep.status == STATUS_PASSED, (phi_name, p.label, rep.violations[:1])
            assert rep.trials == 500
    flat_ok = []
    for p in (l1(), lq(2)):
        rep = suite_strict_monotonicity(flat_then_power(1, 2), p, sp, budget=10, seed=88)
        assert rep.status == STATUS_PASSED, rep.violations[:1]
        pair = rep.details["constructed_flat_pair"]
        assert abs(pair["norm_z"] - pair["norm_y"]) <= 1e-9
        assert pair["z"] != pair["y"]
        flat_ok.append(abs(pair["norm_z"] - pair["norm_y"]))
    _line(8, True, f"zero violations at a=0; flat pairs matched within {max(flat_ok):.1e}")


def test_criterion_09_norm_axioms_across_catalog():
    sp = unit_weights(5)
    combos = 0
    for phi_name, phi in catalog_orlicz_functions().items():
        for p_name, p in catalog_planar_norms().items():
            rep = suite_norm_axioms(phi, p, sp, budget=1000, seed=99)
            assert rep.status == STATUS_PASSED, (phi_name, p_name, rep.violations[:1])
            combos += 1
    _line(9, True, f"1000 triples clean for {combos} generator/norm pairs")


def test_criterion_10_doubling_classifier_matches_ground_truth():
    expected = {
        "power:2": {REGIME_ZERO: True, REGIME_INFINITY: True, REGIME_GLOBAL: True},
        "power:3": {REGIME_ZERO: True, REGIME_INFINITY: True, REGIME_GLOBAL: True},
        "exp_minus": {REGIME_ZERO: True, REGIME_INFINITY: False, REGIME_GLOBAL: False},
        "flat_then_power:1,2": {REGIME_ZERO: False, REGIME_INFINITY: True,
                                REGIME_GLOBAL: False},
    }
    mistakes = []
    for name, phi in catalog_orlicz_functions().items():
        for regime, should_hold in expected[name].items():
            rep = delta2_check(phi, regime)
            if rep.holds != should_hold:
                mistakes.append((name, regime, rep.holds))
    k2 = delta2_check(power(2), REGIME_GLOBAL).constant
    k3 = delta2_check(power(3), REGIME_GLOBAL).constant
    ok = not mistakes and abs(k2 - 4.0) <= 4e-6 and abs(k3 - 8.0) <= 8e-6
    _line(10, ok, f"verdicts all match; K(power:2)={k2:.9f}, K(power:3)={k3:.9f}")
    assert not mistakes
    assert k2 == pytest.approx(4.0, rel=1e-6)
    assert k3 == pytest.approx(8.0, rel=1e-6)


def test_criterion_11_modular_norm_convergence_split():
    spw = measure_space([0.7, 0.5, 0.3, 0.2])
    rep = suite_modular_norm_equivalence(exp_minus(), lq(2), spw)
    assert rep.status == STATUS_PASSED and rep.details["branch"] == "counterexample"
    mods, norms = rep.details["modulars"], rep.details["norms"]
    assert len(norms) == 20
    assert all(m <= 2.0 ** -(j + 1) + 1e-15 for j, m in enumerate(mods))
    assert all(v >= 0.9 for v in norms)

    rep2 = suite_modular_norm_equivalence(power(2), linf(), unit_weights(5), seed=11)
    assert rep2.status == STATUS_PASSED and rep2.details["branch"] == "convergent"
    final = rep2.details["norms"][-1]
    assert final <= 1e-3
    _line(11, True, f"steep norms min {min(norms):.3f} >= 0.9; "
                    f"square-generator norm at n={len(rep2.details['norms'])} is {final:.2e} <= 1e-3")
