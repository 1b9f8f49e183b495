import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlnorm import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, DomainError,
                     delta2_check, exp_minus, flat_then_power, orlicz_from_descriptor,
                     piecewise_linear, power, strict_convexity_probe, young_conjugate,
                     young_conjugate_many)


def test_evaluate_catalog_values():
    assert power(2)(3.0) == 9.0
    assert flat_then_power(1, 2)(0.5) == 0.0
    assert exp_minus()(0.0) == 0.0
    assert exp_minus()(1.0) == pytest.approx(math.e - 2.0, rel=1e-14)
    pwl = piecewise_linear([(0, 0), (1, 0), (2, 1)])
    assert pwl(1.5) == pytest.approx(0.5)
    assert pwl(3.0) == pytest.approx(2.0)  # linear extension


def test_evenness():
    for phi in (power(2), exp_minus(), flat_then_power(1, 2),
                piecewise_linear([(0, 0), (1, 1)])):
        for u in (0.3, 1.7, 4.2):
            assert phi(-u) == phi(u)


def test_constructor_validation():
    with pytest.raises(DomainError):
        power(0.5)
    with pytest.raises(DomainError):
        flat_then_power(-1, 2)
    with pytest.raises(DomainError):
        piecewise_linear([(0, 0)])
    with pytest.raises(DomainError):
        piecewise_linear([(0, 1), (1, 2)])  # does not vanish at zero
    with pytest.raises(DomainError):
        piecewise_linear([(0, 0), (1, 2), (2, 3)])  # slopes decrease
    with pytest.raises(DomainError):
        piecewise_linear([(0, 0), (1, 0), (2, 0)])  # identically zero


def test_zero_bound_per_kind():
    assert power(2).zero_bound == 0.0
    assert flat_then_power(1, 2).zero_bound == 1.0
    assert piecewise_linear([(0, 0), (1, 0), (2, 1)]).zero_bound == 1.0


def test_zero_bound_consistency():
    for phi in (flat_then_power(1, 2), flat_then_power(0.25, 3),
                piecewise_linear([(0, 0), (1, 0), (2, 1)])):
        a = phi.zero_bound
        assert phi(a * (1 - 1e-6)) == 0.0
        assert phi(a * (1 + 1e-3)) > 0.0


# generators with kinks, linear growth or slow growth, next to the catalog
EXTRA_GENERATORS = {
    "power:1": power(1),
    "power:1.05": power(1.05),
    "power:1.5": power(1.5),
    "pwl_kinked": piecewise_linear([(0, 0), (1, 0), (2, 1), (3, 3)]),
    "pwl_no_flat": piecewise_linear([(0, 0), (1, 0.5), (2, 2)]),
    "flat_then_power:0.5,1": flat_then_power(0.5, 1),
    "half_square": piecewise_linear([(0.05 * i, (0.05 * i) ** 2 / 2.0) for i in range(81)]),
}


@pytest.fixture
def generators(orlicz_catalog):
    return {**orlicz_catalog, **EXTRA_GENERATORS}


def test_asymptotic_slope():
    assert power(2).slope_limit == math.inf
    assert power(1).slope_limit == 1.0
    assert exp_minus().slope_limit == math.inf
    assert flat_then_power(1, 2).slope_limit == math.inf
    assert piecewise_linear([(0, 0), (1, 1)]).slope_limit == pytest.approx(1.0, rel=1e-12)
    assert piecewise_linear([(0, 0), (1, 0), (2, 1)]).slope_limit == pytest.approx(1.0, rel=1e-6)
    # Phi(u)/u = u^(q-1) diverges however slowly it grows
    for q in (1.05, 1.2, 1.5):
        assert power(q).slope_limit == math.inf
    assert flat_then_power(1, 1.5).slope_limit == math.inf


def test_slope_limit_matches_ratio_on_dense_grid(generators):
    # Phi(u)/u is nondecreasing with limit slope_limit (Phi convex, Phi(0) = 0)
    us = np.geomspace(1e-6, 1e300, 3000)
    for name, phi in generators.items():
        with np.errstate(over="ignore"):
            ratio = phi.evaluate_array(us) / us
        ratio = ratio[np.isfinite(ratio)]
        assert np.all(np.diff(ratio) >= -1e-12 * ratio[1:]), name
        if math.isfinite(phi.slope_limit):
            assert np.all(ratio <= phi.slope_limit * (1.0 + 1e-12)), name
            assert ratio[-1] == pytest.approx(phi.slope_limit, rel=1e-12), name
        else:
            assert ratio[-1] > 1e12, name


def test_derivative_is_the_right_derivative(generators):
    # forward differences; the abscissae include every kink of the extras
    us = np.concatenate((np.geomspace(1e-6, 50.0, 120), [0.05, 0.5, 1.0, 2.0, 3.0]))
    for name, phi in generators.items():
        h = 1e-8 * us
        fd = (phi.evaluate_array(us + h) - phi.evaluate_array(us)) / h
        d = phi.derivative_array(us)
        assert np.all(np.abs(d - fd) <= 1e-6 * np.maximum(1.0, d)), name
        assert np.all(phi.derivative_array(-us) == d), name
    assert power(1).derivative_array(0.0) == 1.0  # the right derivative of |u| at 0
    assert flat_then_power(0.5, 1).derivative_array(0.25) == 0.0  # numpy's 0 ** 0 is 1


def test_overflow_evaluates_to_infinity():
    assert math.isinf(exp_minus()(1000.0))
    assert math.isinf(power(4)(1e100))
    assert flat_then_power(1, 2)(1e200) == math.inf
    assert flat_then_power(1, 2).evaluate_array([1e200])[0] == math.inf


def test_evaluate_array_matches_scalar(orlicz_catalog):
    # the branch points of the scalar evaluator: exp_minus's series below
    # 1e-5 and the end 1.0 of flat_then_power(1, 2)'s flat zone
    us = np.array([-3.0, -0.5, 0.0, 1e-7, np.nextafter(1e-5, 0.0), 1e-5, 0.9, 1.0, 2.5, 40.0])
    for phi in orlicz_catalog.values():
        arr = phi.evaluate_array(us)
        for u, a in zip(us, arr):
            assert a == pytest.approx(phi(float(u)), rel=1e-12, abs=1e-300)
    below = float(np.nextafter(1e-5, 0.0))
    assert exp_minus()(below) == pytest.approx(below * below / 2.0, rel=1e-5)
    assert exp_minus()(1e-5) == pytest.approx(1e-10 / 2.0, rel=1e-5)
    assert flat_then_power(1, 2)(1.0) == 0.0
    # a polyline is exact at each breakpoint, and linear on its tail
    pwl = piecewise_linear([(0, 0), (1, 0), (2, 1), (3, 3)])
    assert [pwl(x) for x in pwl.xs] == list(pwl.ys)
    assert pwl.evaluate_array(pwl.xs).tolist() == list(pwl.ys)
    tail = [3.0 + 1e-9, 4.0, 1e6]
    for u, a in zip(tail, pwl.evaluate_array(tail)):
        assert pwl(u) == pytest.approx(3.0 + 2.0 * (u - 3.0), rel=1e-12)
        assert a == pytest.approx(pwl(u), rel=1e-12)


# --------------------------------------------------------------------------
# doubling condition


def test_delta2_power_holds_globally_with_doubling_constant():
    for q in (2.0, 3.0):
        rep = delta2_check(power(q), REGIME_GLOBAL)
        assert rep.holds
        assert rep.constant == pytest.approx(2.0 ** q, rel=1e-6)


def test_delta2_exp_minus_fails_at_infinity_only():
    rep_inf = delta2_check(exp_minus(), REGIME_INFINITY)
    assert not rep_inf.holds
    assert rep_inf.witness_u == pytest.approx(20.0, rel=0.25)
    assert rep_inf.witness_ratio > 1e8
    # the reported ratio replays from the generator itself
    phi = exp_minus()
    u = rep_inf.witness_u
    assert phi(2 * u) / phi(u) == pytest.approx(rep_inf.witness_ratio, rel=1e-9)
    assert delta2_check(exp_minus(), REGIME_ZERO).holds


def test_delta2_flat_generator_fails_at_zero():
    rep = delta2_check(flat_then_power(1, 2), REGIME_ZERO)
    assert not rep.holds
    assert 0.5 < rep.witness_u <= 1.0
    phi = flat_then_power(1, 2)
    assert phi(rep.witness_u) == 0.0 and phi(2 * rep.witness_u) > 0.0


def test_delta2_global_is_conjunction(orlicz_catalog):
    extra = {"pwl_abs": piecewise_linear([(0, 0), (1, 1)])}
    for phi in {**orlicz_catalog, **extra}.values():
        z = delta2_check(phi, REGIME_ZERO)
        i = delta2_check(phi, REGIME_INFINITY)
        g = delta2_check(phi, REGIME_GLOBAL)
        assert g.holds == (z.holds and i.holds)
        if g.holds:
            assert g.constant == pytest.approx(max(z.constant, i.constant), rel=1e-12)


def _grid_delta2(phi, regime):
    """The doubling verdict on the log grid 2^[-40, 40], 4 points per
    octave, u <= 1 for the zero regime and u > 1 for infinity: it fails
    where Phi(u) = 0 < Phi(2u) or where Phi(2u)/Phi(u) passes 1e8.  Returns
    (verdict, whether a ratio passed 1e8, the largest finite ratio)."""
    us = 2.0 ** np.arange(-40.0, 40.125, 0.25)
    if regime != REGIME_GLOBAL:
        us = us[us <= 1.0] if regime == REGIME_ZERO else us[us > 1.0]
    with np.errstate(over="ignore", invalid="ignore"):
        fu, f2u = phi.evaluate_array(us), phi.evaluate_array(2.0 * us)
        pos = (fu > 0.0) & np.isfinite(fu)
        ratios = f2u[pos] / fu[pos]
    steep = bool(np.any(ratios > 1e8))
    top = float(np.max(ratios[np.isfinite(ratios)], initial=0.0))
    return not (np.any((fu == 0.0) & (f2u > 0.0)) or steep), steep, top


def _random_polyline(rng):
    """A convex polyline with breakpoints and slopes over several decades,
    flat up to its first breakpoint half the time."""
    n = int(rng.integers(2, 6))
    xs = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, n))])
    slopes = np.cumsum(10.0 ** rng.uniform(-6.0, 3.0, n))
    if rng.random() < 0.5:
        slopes[0] = 0.0
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return piecewise_linear(zip(xs.tolist(), ys.tolist()))


def test_delta2_verdicts_match_a_grid_oracle_off_flat_zones_and_steep_kinks(orlicz_catalog):
    # the closed-form verdicts are the grid's wherever the grid can see the
    # asymptotics: they may differ only on a flat zone (the grid reads a
    # wide zone's edge as a failure at infinity, and a zone past u = 2 as
    # none at zero) or where a polyline's ratio passes 1e8 at a kink
    rng = np.random.default_rng(23)
    phis = [*orlicz_catalog.values(), *(_random_polyline(rng) for _ in range(400))]
    checks, differ = 0, {"flat": 0, "steep": 0}
    for i, phi in enumerate(phis):
        for regime in (REGIME_ZERO, REGIME_INFINITY, REGIME_GLOBAL):
            rep = delta2_check(phi, regime)
            grid, steep, top = _grid_delta2(phi, regime)
            checks += 1
            if i < len(orlicz_catalog):
                assert rep.holds == grid, (phi.label, regime)
            if rep.holds != grid:
                assert phi.zero_bound > 0.0 or steep, (phi.descriptor(), regime)
                differ["flat" if phi.zero_bound > 0.0 else "steep"] += 1
            if rep.holds and regime == REGIME_GLOBAL:  # the constant bounds every ratio
                assert top <= rep.constant * (1.0 + 1e-12), phi.descriptor()
    assert checks == 3 * len(phis) and min(differ.values()) > 0, differ


def test_delta2_rejects_unknown_regime():
    with pytest.raises(DomainError):
        delta2_check(power(2), "sideways")


# --------------------------------------------------------------------------
# Young conjugate


def test_conjugate_power2():
    # sup_u (2u - u^2) = 1 at u = 1; confirmed by a dense grid
    got = float(young_conjugate(power(2), 2.0))
    us = np.linspace(0.0, 10.0, 200_001)
    grid = float(np.max(2.0 * us - us ** 2))
    assert got == pytest.approx(1.0, abs=1e-9)
    assert got == pytest.approx(grid, abs=1e-8)
    # the supremum sits at u = (5000/1.2)^5, about 1.3e18
    assert young_conjugate(power(1.2), 5000.0) == pytest.approx(0.2 * (5000 / 1.2) ** 6,
                                                                rel=1e-12)


def test_conjugate_of_half_square_is_self_conjugate():
    phi = EXTRA_GENERATORS["half_square"]
    assert young_conjugate(phi, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_conjugate_of_absolute_value():
    phi = piecewise_linear([(0, 0), (1, 1)])
    assert young_conjugate(phi, 0.5) == 0.0
    assert young_conjugate(phi, 1.0) == pytest.approx(0.0, abs=1e-9)
    c = young_conjugate(phi, 1.5)
    assert type(c) is float and c == math.inf


def test_conjugate_flat_generator_linear_tail():
    # max(0,u-1): conjugate at v in [0,1] is exactly v (supremum at u = 1)
    phi = flat_then_power(1, 1)
    assert young_conjugate(phi, 0.5) == pytest.approx(0.5, abs=1e-9)
    assert young_conjugate(phi, 1.0) == pytest.approx(1.0, abs=1e-12)


@given(st.floats(-5, 5), st.floats(-20, 20))
@settings(max_examples=80)
def test_fenchel_young_inequality(u, v):
    for phi in (power(2), exp_minus(), flat_then_power(1, 2), *EXTRA_GENERATORS.values()):
        assert u * v <= phi(u) + young_conjugate(phi, v) + 1e-9


def _grid_conjugate(phi, vs):
    """Reference supremum of |v| u - Phi(u): the maximum over u = 0 and a
    400-point log grid on [1e-12, 2^40], refined by 90 golden-section steps
    between the grid maximiser's neighbours.  Also returns, per v, whether
    the maximiser is the grid's last point (the supremum may lie beyond)."""
    av = np.abs(np.asarray(vs, dtype=float))
    us = np.concatenate(([0.0], np.geomspace(1e-12, 2.0 ** 40, 400)))
    with np.errstate(over="ignore", invalid="ignore"):
        h = av[:, None] * us[None, :] - phi.evaluate_array(us)[None, :]
    h[np.isnan(h)] = -math.inf
    idx = np.argmax(h, axis=1)
    a, b = us[np.maximum(idx - 1, 0)], us[np.minimum(idx + 1, len(us) - 1)]

    def f(u):
        return av * u - phi.evaluate_array(u)

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(90):
        c, d = b - inv * (b - a), a + inv * (b - a)
        left = f(c) >= f(d)
        a, b = np.where(left, a, c), np.where(left, d, b)
    best = np.maximum(f(0.5 * (a + b)), h[np.arange(len(av)), idx])
    return np.maximum(best, 0.0), idx == len(us) - 1


def test_conjugate_matches_grid_reference(generators):
    vs = np.concatenate((np.geomspace(1e-8, 1e-2, 7), np.linspace(0.0, 3.0, 61)))
    for name, phi in generators.items():
        got = young_conjugate_many(phi, vs)
        ref, at_top = _grid_conjugate(phi, vs)
        # +inf only where the grid supremum still grows at the grid's end
        assert np.all(at_top[np.isinf(got)]), name
        ok = ~at_top
        # the exp_minus form loses relative precision for v below about 1e-4
        assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-9 * ref[ok] + 1e-18), name


def test_young_equality_at_the_right_derivative(generators):
    # Psi(Phi'(u)) = u Phi'(u) - Phi(u) holds exactly when Phi'(u) is a subgradient
    us = np.concatenate(([0.0], np.geomspace(1e-6, 50.0, 200), [0.05, 0.5, 1.0, 2.0, 3.0]))
    for name, phi in generators.items():
        d = phi.derivative_array(us)
        want = us * d - phi.evaluate_array(us)
        got = young_conjugate_many(phi, d)
        assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-18), name


def test_conjugate_overflow_is_infinite_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert young_conjugate(power(1.05), 1e20) == math.inf
        assert exp_minus().derivative_array(1e3) == math.inf


def test_conjugate_convex_in_v(orlicz_catalog):
    vs = np.linspace(0.0, 3.0, 61)
    for phi in orlicz_catalog.values():
        cs = young_conjugate_many(phi, vs)
        fin = np.isfinite(cs)
        c = cs[fin]
        if len(c) >= 3:
            second = c[2:] - 2.0 * c[1:-1] + c[:-2]
            assert np.all(second >= -1e-9)


# --------------------------------------------------------------------------
# convexity probes


def test_strict_convexity_probe_verdicts():
    assert strict_convexity_probe(power(2)).strictly_convex
    assert strict_convexity_probe(exp_minus()).strictly_convex
    probe = strict_convexity_probe(piecewise_linear([(0, 0), (1, 0.5), (2, 2)]))
    assert not probe.strictly_convex
    u1, u2 = probe.witness
    phi = piecewise_linear([(0, 0), (1, 0.5), (2, 2)])
    assert phi((u1 + u2) / 2) == pytest.approx((phi(u1) + phi(u2)) / 2, abs=1e-10)
    flat = strict_convexity_probe(flat_then_power(1, 2))
    assert not flat.strictly_convex
    assert max(abs(flat.witness[0]), abs(flat.witness[1])) <= 1.0 + 1e-9
    assert strict_convexity_probe(power(1.05)).strictly_convex
    # the strictly convex kinds' midpoint gap at [0, 1]'s quarter points
    for phi, gap in ((power(2), 0.0625), (power(3), 0.09375), (exp_minus(), 0.052),
                     (power(1.00000000001), 6.5e-13)):
        probe = strict_convexity_probe(phi)
        assert probe.strictly_convex and probe.witness is None
        assert probe.gap == pytest.approx(gap, rel=2e-2), phi.label
    linear = strict_convexity_probe(power(1))
    assert not linear.strictly_convex
    u1, u2 = linear.witness
    assert u1 != u2 and power(1)((u1 + u2) / 2) == (power(1)(u1) + power(1)(u2)) / 2


@given(st.floats(-6, 6), st.floats(-6, 6), st.floats(0, 1))
@settings(max_examples=120)
def test_convexity_property(u1, u2, t):
    for phi in (power(2), power(3), exp_minus(), flat_then_power(1, 2)):
        lhs = phi(t * u1 + (1 - t) * u2)
        rhs = t * phi(u1) + (1 - t) * phi(u2)
        assert lhs <= rhs + 1e-12 * max(1.0, abs(rhs))


@given(st.floats(0, 6), st.floats(0, 6))
@settings(max_examples=120)
def test_superadditivity_on_positive_half_line(u, v):
    for phi in (power(2), power(3), exp_minus(), flat_then_power(1, 2)):
        assert phi(u + v) >= phi(u) + phi(v) - 1e-12 * max(1.0, phi(u + v))


def test_descriptor_roundtrip(orlicz_catalog):
    extra = {"pwl": piecewise_linear([(0, 0), (1, 0), (2, 1)])}
    for phi in {**orlicz_catalog, **extra}.values():
        phi2 = orlicz_from_descriptor(phi.descriptor())
        for u in (0.4, 1.1, 3.3):
            assert phi2(u) == phi(u)


def test_conjugate_term_is_exact_on_linear_pieces_and_near_linear_powers():
    # u Phi'(u) - Phi(u) is Psi(slope) on a linear piece: taken as a difference
    # of two terms that grow like u it read 0 (or ulps of u) past u ~ a / eps
    pwl = piecewise_linear([(0, 0), (1, 0.5), (3, 4)])  # slopes 0.5, 1.75: Psi 0, 1.25
    cases = [(flat_then_power(0.69, 1), [(0.5, 0.0), (0.69, 0.69), (2.0, 0.69)]),
             (pwl, [(0.5, 0.0), (1.0, 1.25), (2.0, 1.25), (3.0, 1.25)]),
             (piecewise_linear([(0, 0), (2, 1)]), [(1.0, 0.0), (3.0, 0.0)])]
    for phi, points in cases:
        c_tail = young_conjugate(phi, phi.slope_limit)
        for u, c in points + [(u, c_tail) for u in (1e10, 1e200, 1e299)]:
            assert phi.pair_sum(((1.0, u),), 1.0)[1] == pytest.approx(c, rel=1e-15), (phi.label, u)
            assert phi.pair_array(np.array([u]))[1][0] == pytest.approx(c, rel=1e-15), (phi.label, u)
    # (q - 1) u^q for a power: the difference q u^q - u^q kept 3 digits at q - 1 = 1e-13
    q = 1.0000000000001
    with mpmath.workdps(50):
        for u in (0.5, 3.0, 1e100):
            mq, mu = mpmath.mpf(q), mpmath.mpf(u)
            exact = float(mu * mq * mu ** (mq - 1) - mu ** mq)
            assert power(q).pair_sum(((1.0, u),), 1.0)[1] == pytest.approx(exact, rel=1e-14)
            assert power(q).pair_array(np.array([u]))[1][0] == pytest.approx(exact, rel=1e-14)
