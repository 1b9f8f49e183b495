import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlnorm import (DomainError, boundary_sampled, build_modulus_table,
                     check_lattice_axioms, is_strictly_increasing_on_ray, l1, linf, lq,
                     modulus_diagnostics, modulus_of_monotonicity, planar_from_descriptor,
                     strictly_monotone_probe, verify_sandwich)

HALF_PI = math.pi / 2.0


def test_evaluate_catalog_values():
    assert lq(2)((3.0, 4.0)) == pytest.approx(5.0, abs=1e-12)
    assert linf()((1.0, 0.5)) == 1.0
    assert l1()((1.0, 2.0)) == 3.0


def test_evaluate_rejects_non_finite():
    with pytest.raises(DomainError):
        l1()((math.inf, 0.0))


def test_lattice_axioms_pass_for_catalog(planar_catalog):
    for name, p in planar_catalog.items():
        rep = check_lattice_axioms(p, 1000, seed=3)
        assert rep.passed, (name, rep.first_violation())


def test_lattice_axioms_pass_for_lq_fractional():
    rep = check_lattice_axioms(lq(1.5), 1000, seed=5)
    assert rep.passed, rep.first_violation()


def test_boundary_bulge_reports_monotonicity_violation():
    # the sphere pokes outside the max-norm square, so p < max(|u|,|v|)
    # somewhere and an axis projection exceeds the dominating point
    bad = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.8), (HALF_PI, 1.0)])
    rep = check_lattice_axioms(bad, 2000, seed=0)
    assert not rep.passed
    kinds = {v["check"] for v in rep.violations}
    assert "monotonicity" in kinds or "triangle" in kinds
    sand = verify_sandwich(bad, 2000, seed=0)
    assert not sand.passed


def test_boundary_constructor_validation():
    with pytest.raises(DomainError):
        boundary_sampled([(0.0, 1.0)])
    with pytest.raises(DomainError):
        boundary_sampled([(0.0, 2.0), (HALF_PI, 1.0)])  # endpoint not normalised
    with pytest.raises(DomainError):
        boundary_sampled([(0.1, 1.0), (HALF_PI, 1.0)])  # missing angle 0
    ok = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.3), (HALF_PI, 1.0)])
    assert ok((1.0, 0.0)) == ok((0.0, 1.0)) == 1.0


def test_sandwich_exact_for_envelopes(planar_catalog):
    for name, p in planar_catalog.items():
        rep = verify_sandwich(p, 10_000, seed=11)
        assert rep.passed, (name, rep.first_violation())
    # the envelopes themselves achieve equality
    pts = [(0.3, 1.7), (1.0, 1.0), (2.0, 0.1)]
    for u, v in pts:
        assert linf()((u, v)) == max(abs(u), abs(v))
        assert l1()((u, v)) == abs(u) + abs(v)
    assert max(1.0, 1.0) <= lq(2)((1.0, 1.0)) <= 2.0


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 5))
@settings(max_examples=120)
def test_homogeneity_and_sandwich_property(u, v, t):
    for p in (linf(), l1(), lq(2), lq(1.5)):
        val = p((u, v))
        assert max(abs(u), abs(v)) - 1e-12 <= val <= abs(u) + abs(v) + 1e-12
        assert p((t * u, t * v)) == pytest.approx(t * val, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# monotonicity modulus


def _modulus_box_oracle(p, eps, n=260):
    """Independent brute-force: walk x over the full box [0, y] and apply the
    level constraint p(x) >= eps directly, no bisection, no refinement."""
    thetas = np.linspace(0.0, HALF_PI, n)
    c, s = np.cos(thetas), np.sin(thetas)
    norms = p.evaluate_many(c, s)
    y1, y2 = c / norms, s / norms
    fr = np.linspace(0.0, 1.0, n)
    best = math.inf
    for i in range(n):
        x1, x2 = np.meshgrid(fr * y1[i], fr * y2[i], indexing="ij")
        feasible = p.evaluate_many(x1, x2) >= eps - 1e-9
        if not feasible.any():
            continue
        obj = 1.0 - p.evaluate_many(y1[i] - x1, y2[i] - x2)
        best = min(best, float(obj[feasible].min()))
    return best


def test_modulus_l1_is_identity():
    for eps in (0.1, 0.3, 0.7, 0.9):
        assert modulus_of_monotonicity(l1(), eps) == pytest.approx(eps, abs=1e-9)


def test_modulus_linf_is_zero():
    for eps in (0.2, 0.5, 0.8):
        assert modulus_of_monotonicity(linf(), eps) == pytest.approx(0.0, abs=1e-9)


def test_modulus_lq2_closed_form_and_box_oracle():
    eps = 0.6
    closed = 1.0 - math.sqrt(1.0 - eps * eps)
    got = modulus_of_monotonicity(lq(2), eps, resolution=1e-3)
    assert got == pytest.approx(closed, abs=1e-3)
    oracle = _modulus_box_oracle(lq(2), eps)
    assert oracle == pytest.approx(closed, abs=4e-3)
    assert got == pytest.approx(oracle, abs=4e-3)


def test_modulus_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        modulus_of_monotonicity(l1(), 0.0)
    with pytest.raises(DomainError):
        modulus_of_monotonicity(l1(), 1.0)


def test_modulus_never_exceeds_epsilon(planar_catalog):
    for p in planar_catalog.values():
        for eps in (0.15, 0.45, 0.85):
            assert modulus_of_monotonicity(p, eps) <= eps + 1e-12


def test_modulus_grid_convergence_bound(planar_catalog):
    for name, p in planar_catalog.items():
        for eps in (0.3, 0.7):
            d1 = modulus_diagnostics(p, eps, resolution=2e-3)
            d2 = modulus_diagnostics(p, eps, resolution=1e-3)
            assert abs(d1.value - d2.value) <= d1.refinement_bound, (name, eps)


def test_modulus_table_monotone_and_floor():
    table = build_modulus_table(lq(2), epsilons=[0.1, 0.3, 0.5, 0.7, 0.9], resolution=1e-3)
    assert all(b >= a - 1e-9 for a, b in zip(table.deltas, table.deltas[1:]))
    assert table.floor_value(0.05) == 0.0
    assert table.floor_value(0.35) == table.deltas[1]
    assert table.floor_value(0.95) == table.deltas[-1]


def test_strictly_increasing_on_ray():
    assert is_strictly_increasing_on_ray(l1())
    assert not is_strictly_increasing_on_ray(linf())
    assert is_strictly_increasing_on_ray(lq(2))


def test_strictly_monotone_probe():
    ok, witness = strictly_monotone_probe(linf())
    assert not ok and witness is not None
    for p in (l1(), lq(1.5), lq(2), lq(3)):
        ok, witness = strictly_monotone_probe(p)
        assert ok, witness


def test_strict_monotonicity_gives_positive_modulus():
    # finite-dimensional uniform monotonicity: strictly monotone planar
    # norms have a strictly positive modulus on the whole grid
    for p in (l1(), lq(1.5), lq(2), lq(3)):
        for eps in (0.1, 0.4, 0.8):
            assert modulus_of_monotonicity(p, eps) > 0.0, (p.label, eps)


def test_descriptor_roundtrip(planar_catalog):
    for p in planar_catalog.values():
        q = planar_from_descriptor(p.descriptor())
        assert q((0.7, 1.3)) == pytest.approx(p((0.7, 1.3)), rel=1e-15)
    b = boundary_sampled([(0.0, 1.0), (0.8, 1.25), (HALF_PI, 1.0)])
    b2 = planar_from_descriptor(b.descriptor())
    assert b2((0.5, 0.5)) == pytest.approx(b((0.5, 0.5)), rel=1e-15)
