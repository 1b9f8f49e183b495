import math

import numpy as np
import pytest

from orlnorm import (K_CAP, DomainError, PreconditionError, exp_minus, flat_then_power,
                     generated_norm, generated_norm_on_grid, l1, lemma_bounds_check,
                     linf, lq, luxemburg_norm, measure_space, modular, modular_on_grid,
                     orlicz_dual_norm, piecewise_linear, power, simple_function,
                     unit_weights)


def _rand_function(space, rng, scale=2.0, signed=True):
    vals = rng.uniform(0.05, scale, space.n_atoms)
    if signed:
        vals *= rng.choice([-1.0, 1.0], space.n_atoms)
    return simple_function(space, vals)


# --------------------------------------------------------------------------
# Luxemburg norm


def test_luxemburg_closed_form_square():
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    assert luxemburg_norm(power(2), x) == pytest.approx(5.0, abs=1e-8)


def test_luxemburg_weighted_closed_form():
    sp = measure_space([0.25, 4.0])
    x = simple_function(sp, [2.0, 1.5])
    expected = math.sqrt(0.25 * 4.0 + 4.0 * 2.25)
    assert luxemburg_norm(power(2), x) == pytest.approx(expected, rel=1e-9)


def test_luxemburg_zero():
    assert luxemburg_norm(power(2), simple_function(unit_weights(2), [0, 0])) == 0.0


def test_luxemburg_flat_generator_on_infinite_atom():
    sp = measure_space([math.inf])
    x = simple_function(sp, [1.0])
    phi = flat_then_power(1, 2)
    got = luxemburg_norm(phi, x)
    assert got == pytest.approx(1.0, abs=1e-9)
    # brute lambda-grid oracle: the modular is 0 iff lam >= 1 and inf below
    lams = np.linspace(0.2, 3.0, 281)
    feas = [modular(phi, x, scale=1.0 / lam) <= 1.0 for lam in lams]
    first = lams[feas.index(True)]
    assert first == pytest.approx(1.0, abs=1.5e-2)


def test_luxemburg_outside_space_flagged_infinite():
    sp = measure_space([math.inf])
    x = simple_function(sp, [1.0])
    assert math.isinf(luxemburg_norm(power(2), x))


# --------------------------------------------------------------------------
# generated norm: closed forms for the square generator


def test_generated_norm_sum_type_closed_form():
    # minimise (1 + 25 k^2)/k: minimum 10 at k = 1/5
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    r = generated_norm(power(2), l1(), x)
    assert r.value == pytest.approx(10.0, rel=1e-9)
    assert r.k_star == pytest.approx(0.2, rel=1e-6)
    assert r.attained


def test_generated_norm_quadratic_mean_closed_form():
    # minimise sqrt(1 + 625 k^4)/k: minimum 5 sqrt(2) at k = 1/5
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    r = generated_norm(power(2), lq(2), x)
    assert r.value == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-9)
    assert r.k_star == pytest.approx(0.2, rel=1e-6)


def test_generated_norm_max_type_equals_luxemburg():
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    r = generated_norm(power(2), linf(), x)
    assert r.value == pytest.approx(luxemburg_norm(power(2), x), abs=1e-8)
    assert r.value == pytest.approx(5.0, abs=1e-8)


def test_generated_norm_zero_element():
    r = generated_norm(power(2), l1(), simple_function(unit_weights(3), [0, 0, 0]))
    assert r.value == 0.0 and r.k_star is None and not r.attained


def test_generated_norm_positive_for_nonzero():
    sp = unit_weights(3)
    r = generated_norm(power(2), l1(), simple_function(sp, [1e-9, 0, 0]))
    assert r.value > 0.0


def test_record_beats_dense_grid(orlicz_catalog, planar_catalog):
    rng = np.random.default_rng(42)
    sp = unit_weights(4)
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            x = _rand_function(sp, rng)
            r = generated_norm(phi, p, x)
            grid = generated_norm_on_grid(phi, p, x)
            assert r.value <= grid + 1e-8, (phi.label, p.label)


def test_norm_family_ordering():
    rng = np.random.default_rng(7)
    sp = unit_weights(5)
    for phi in (power(2), exp_minus(), flat_then_power(1, 2)):
        for _ in range(20):
            x = _rand_function(sp, rng)
            lo = generated_norm(phi, linf(), x).value
            hi = generated_norm(phi, l1(), x).value
            for p in (lq(1.5), lq(2), lq(3)):
                mid = generated_norm(phi, p, x).value
                assert lo <= mid + 1e-9 and mid <= hi + 1e-9


def test_lattice_property_of_generated_norm():
    rng = np.random.default_rng(11)
    sp = unit_weights(5)
    phi, p = power(2), lq(2)
    for _ in range(30):
        y = _rand_function(sp, rng, signed=False)
        frac = rng.uniform(0, 1, sp.n_atoms)
        x = simple_function(sp, [f * v for f, v in zip(frac, y.values)])
        assert generated_norm(phi, p, x).value <= generated_norm(phi, p, y).value + 1e-9


def test_attainment_under_fast_growth():
    rng = np.random.default_rng(3)
    sp = unit_weights(4)
    for phi in (power(2), power(3), exp_minus()):
        for _ in range(10):
            x = _rand_function(sp, rng)
            r = generated_norm(phi, l1(), x)
            assert r.attained and r.bracket[1] < K_CAP


def test_non_attainment_reported_at_cap():
    # linear growth: (1 + k S)/k decreases to S, the infimum is not attained
    sp = unit_weights(2)
    x = simple_function(sp, [1.0, 2.0])
    r = generated_norm(power(1), l1(), x)
    assert not r.attained
    assert r.value == pytest.approx(3.0, rel=1e-9)
    assert r.bracket[1] == K_CAP


def _search_elements(orlicz_catalog, planar_catalog, per_pair=8):
    """Seeded signed 6-atom elements over two decades either side of 1 for
    the 20 catalog pairs.  For a flat generator every other element puts
    its last two atoms on infinite atoms, and every fourth is supported
    only there (the finite/+inf jump decides the norm)."""
    rng = np.random.default_rng(2018)
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            for j in range(per_pair):
                weights = [1.0] * 6
                vals = (rng.uniform(0.05, 1.0, 6) * rng.choice([-1.0, 1.0], 6)
                        * 10.0 ** rng.uniform(-2.0, 2.0))
                if phi.zero_bound > 0.0 and j % 2 == 1:
                    weights[-2:] = [math.inf, math.inf]
                    if j % 4 == 3:
                        vals[:-2] = 0.0
                yield phi, p, simple_function(measure_space(weights), vals)


def test_objective_is_convex_in_reciprocal_k(orlicz_catalog, planar_catalog):
    # with u = 1/k, g(1/u) = u p((1, I(x/u))) is the perspective of the
    # convex nondecreasing t -> p((1, I(t x))): no chord passes below it,
    # so g is unimodal in log k, which is all the search relies on
    ks = np.geomspace(1e-4, 1e4, 400)
    for phi, p, x in _search_elements(orlicz_catalog, planar_catalog):
        with np.errstate(over="ignore", invalid="ignore"):
            mods = modular_on_grid(phi, x, ks)
        fin = np.isfinite(mods)
        u = 1.0 / ks[fin][::-1]
        h = (p.evaluate_many(np.ones(int(fin.sum())), mods[fin]) / ks[fin])[::-1]
        lam = (u[2:] - u[1:-1]) / (u[2:] - u[:-2])
        chord = lam * h[:-2] + (1.0 - lam) * h[2:]
        assert np.all(h[1:-1] <= chord + 1e-9 * (h[:-2] + h[2:])), (phi.label, p.label)


def test_search_stays_under_grid_oracle_and_jump(orlicz_catalog, planar_catalog):
    evaluations = []
    for phi, p, x in _search_elements(orlicz_catalog, planar_catalog):
        r = generated_norm(phi, p, x)
        evaluations.append(r.evaluations)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = generated_norm_on_grid(phi, p, x)
        assert r.value <= grid * (1.0 + 1e-9), (phi.label, p.label, x.values)
        m = max((abs(x.values[i]) for i in x.space.infinite_indices), default=0.0)
        if m > 0.0:
            assert r.k_star <= phi.zero_bound / m
            assert math.isfinite(modular(phi, x, scale=r.k_star))
    # a log scan before the polish cost about 119 evaluations a call
    assert np.mean(evaluations) <= 40 and max(evaluations) <= 80


def test_modular_infinite_at_every_k_returns_inf_without_search():
    sp = measure_space([math.inf, 1.0])
    for phi in (power(2), exp_minus()):
        r = generated_norm(phi, l1(), simple_function(sp, [1.0, 2.0]))
        assert math.isinf(r.value) and r.k_star is None and r.evaluations == 0


def test_pwl_flat_generator_on_infinite_atoms_is_exact():
    phi = piecewise_linear([(0, 0), (1, 0), (2, 1)])
    x = simple_function(measure_space([math.inf] * 3), [0.3, -0.7, 0.55])
    for p in (linf(), l1(), lq(2)):
        assert abs(generated_norm(phi, p, x).value - 0.7) <= 1e-12


def test_log_tol_must_be_positive():
    x = simple_function(unit_weights(2), [3, 4])
    assert generated_norm(power(2), l1(), x, log_tol=1e-20).value == pytest.approx(10.0, rel=1e-12)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            generated_norm(power(2), l1(), x, log_tol=bad)


def test_homogeneity_and_triangle_quick():
    rng = np.random.default_rng(5)
    sp = unit_weights(4)
    phi, p = exp_minus(), lq(2)
    for _ in range(15):
        x, y = _rand_function(sp, rng), _rand_function(sp, rng)
        lam = float(rng.uniform(0.1, 3.0))
        nx = generated_norm(phi, p, x).value
        ny = generated_norm(phi, p, y).value
        assert generated_norm(phi, p, x.plus(y)).value <= nx + ny + 1e-9
        assert generated_norm(phi, p, x.scaled(lam)).value == pytest.approx(lam * nx, rel=1e-9)


# --------------------------------------------------------------------------
# unit-ball bounds


def test_lemma_bounds_flat_generator_all_norms():
    phi = flat_then_power(1, 2)
    sp = measure_space([math.inf])
    x = simple_function(sp, [1.0])
    for p in (lq(2), l1(), linf()):
        lb = lemma_bounds_check(phi, p, x)
        assert lb.lower_ok and lb.upper_ok
        assert lb.norm == pytest.approx(1.0, abs=1e-9)
        assert lb.modular_value == 0.0


def test_lemma_bounds_with_positive_modular():
    phi = flat_then_power(1, 2)
    sp = measure_space([math.inf, 1.0])
    x = simple_function(sp, [1.0, 1.5])
    lb = lemma_bounds_check(phi, p=lq(2), x=x)
    assert lb.modular_value == pytest.approx(0.25)
    assert lb.lower_ok and lb.upper_ok
    assert 1.0 - 1e-9 <= lb.norm <= 1.25 + 1e-9


def test_lemma_bounds_precondition_errors():
    sp = unit_weights(2)
    with pytest.raises(PreconditionError):
        lemma_bounds_check(power(2), l1(), simple_function(sp, [1.0, 1.0]))
    spi = measure_space([math.inf])
    with pytest.raises(PreconditionError):
        lemma_bounds_check(power(2), l1(), simple_function(spi, [1.0]))


# --------------------------------------------------------------------------
# dual norm lower bound


def test_dual_norm_matches_sum_type_norm():
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    dual = orlicz_dual_norm(power(2), x)
    amemiya = generated_norm(power(2), l1(), x).value
    assert dual <= amemiya + 1e-6
    assert dual >= amemiya - 1e-3


def test_dual_norm_zero_and_single_atom():
    sp = unit_weights(1)
    assert orlicz_dual_norm(power(2), simple_function(sp, [0.0])) == 0.0
    for c in (0.5, 2.0, 7.0):
        got = orlicz_dual_norm(power(2), simple_function(sp, [c]))
        assert got == pytest.approx(2.0 * c, rel=1e-3)


def test_dual_norm_weighted_and_steep():
    rng = np.random.default_rng(9)
    sp = measure_space([0.5, 1.0, 2.0])
    for phi in (power(2), exp_minus()):
        for _ in range(5):
            x = _rand_function(sp, rng)
            dual = orlicz_dual_norm(phi, x)
            amemiya = generated_norm(phi, l1(), x).value
            assert dual <= amemiya + 1e-6
            assert dual >= amemiya - 1e-2 * max(1.0, amemiya)


def test_dual_norm_rejects_infinite_atom_support():
    sp = measure_space([math.inf, 1.0])
    with pytest.raises(PreconditionError):
        orlicz_dual_norm(power(2), simple_function(sp, [1.0, 1.0]))
