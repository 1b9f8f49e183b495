import math

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


def test_asymptotic_slope():
    assert power(2).slope_limit == math.inf
    assert power(1).slope_limit == pytest.approx(1.0, rel=1e-12)
    assert exp_minus().slope_limit == math.inf
    assert flat_then_power(1, 2).slope_limit == math.inf
    assert piecewise_linear([(0, 0), (1, 1)]).slope_limit == pytest.approx(1.0, rel=1e-12)
    assert piecewise_linear([(0, 0), (1, 0), (2, 1)]).slope_limit == pytest.approx(1.0, rel=1e-6)


def test_overflow_evaluates_to_infinity():
    assert math.isinf(exp_minus()(1000.0))
    assert math.isinf(power(4)(1e100))


def test_evaluate_array_matches_scalar(orlicz_catalog):
    us = np.array([-3.0, -0.5, 0.0, 1e-7, 0.9, 1.0, 2.5, 40.0])
    for phi in orlicz_catalog.values():
        arr = phi.evaluate_array(us)
        for u, a in zip(us, arr):
            assert a == pytest.approx(phi(float(u)), rel=1e-12, abs=1e-300)


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


def test_conjugate_of_half_square_is_self_conjugate():
    pts = [(0.05 * i, (0.05 * i) ** 2 / 2.0) for i in range(81)]
    phi = piecewise_linear(pts)
    assert young_conjugate(phi, 1.0) == pytest.approx(0.5, abs=2e-3)


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
    assert young_conjugate(phi, 1.0) == pytest.approx(1.0, abs=1e-6)


@given(st.floats(-5, 5), st.floats(-20, 20))
@settings(max_examples=80)
def test_fenchel_young_inequality(u, v):
    for phi in (power(2), exp_minus(), flat_then_power(1, 2)):
        assert u * v <= phi(u) + young_conjugate(phi, v) + 1e-9


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
