import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orlnorm import (DomainError, boundary_sampled, build_modulus_table,
                     check_lattice_axioms, is_strictly_increasing_on_ray, l1, linf, lq,
                     modulus_diagnostics, planar_from_descriptor, strictly_monotone_probe,
                     verify_sandwich)
from orlnorm import planar
from orlnorm.planar import PLANAR_TOL, _level_end

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
        rep = check_lattice_axioms(p)
        assert rep.passed, (name, rep.first_violation())


def test_lattice_axioms_pass_for_lq_fractional():
    rep = check_lattice_axioms(lq(1.5))
    assert rep.passed, rep.first_violation()


def test_boundary_bulge_reports_monotonicity_violation():
    # the sphere pokes outside the max-norm square, so p < max(|u|,|v|)
    # somewhere and an axis projection exceeds the dominating point
    bad = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.8), (HALF_PI, 1.0)])
    rep = check_lattice_axioms(bad)
    assert not rep.passed
    kinds = {v["check"] for v in rep.violations}
    assert "monotonicity" in kinds or "triangle" in kinds
    # one witness per facet: the vertex (1.27, 1.27) and its projections
    assert [(v["low"], v["high"]) for v in rep.violations] == [
        ([bad.vertices[1][0], 0.0], list(bad.vertices[1])),
        ([0.0, bad.vertices[1][1]], list(bad.vertices[1]))]
    for v in rep.violations:
        _assert_axis_projection_witness(bad, v)
    # the bulging vertex is the one violation of the sandwich's lower bound
    sand = verify_sandwich(bad)
    assert [(v["point"], v["lower"], v["upper"]) for v in sand.violations] == [
        (list(bad.vertices[1]), max(bad.vertices[1]), sum(bad.vertices[1]))]


def _assert_axis_projection_witness(p, v):
    """A monotonicity witness of check_lattice_axioms: a vertex on the unit
    sphere and its projection onto an axis, which p puts above it."""
    low, high = v["low"], v["high"]
    assert tuple(high) in p.vertices and low in ([high[0], 0.0], [0.0, high[1]]), v
    assert v["high_value"] == pytest.approx(1.0, abs=1e-12)
    assert v["low_value"] > v["high_value"], v
    assert p(tuple(low)) == v["low_value"] and p(tuple(high)) == v["high_value"]


def test_boundary_constructor_validation():
    with pytest.raises(DomainError):
        boundary_sampled([(0.0, 1.0)])
    with pytest.raises(DomainError):
        boundary_sampled([(0.0, 2.0), (HALF_PI, 1.0)])  # endpoint not normalised
    with pytest.raises(DomainError):
        boundary_sampled([(0.1, 1.0), (HALF_PI, 1.0)])  # missing angle 0
    ok = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.3), (HALF_PI, 1.0)])
    assert ok((1.0, 0.0)) == ok((0.0, 1.0)) == 1.0


# boundary balls through the vertices of the sum and max norms' spheres
L1_POLYGON = boundary_sampled([(0.0, 1.0), (HALF_PI, 1.0)])
LINF_POLYGON = boundary_sampled([(0.0, 1.0), (math.pi / 4, math.sqrt(2.0)), (HALF_PI, 1.0)])


def test_polygons_through_catalog_vertices_are_the_catalog_norms():
    rng = np.random.default_rng(31)
    u, v = rng.uniform(-3.0, 3.0, 10_000), rng.uniform(-3.0, 3.0, 10_000)
    for ball, p in ((L1_POLYGON, l1()), (LINF_POLYGON, linf())):
        assert np.max(np.abs(ball.evaluate_many(u, v) - p.evaluate_many(u, v))) <= PLANAR_TOL
        for point in zip(u[:500].tolist(), v[:500].tolist()):
            assert abs(ball(point) - p(point)) <= PLANAR_TOL, point


@given(st.lists(st.floats(0.01, HALF_PI - 0.01), max_size=6, unique=True),
       st.floats(1.0, 8.0), st.floats(1e-3, 1e3))
def test_polygon_is_one_at_its_samples_and_homogeneous(angles, q, t):
    # samples of a q-mean sphere, q >= 1, are in convex position
    angles = np.sort(angles)
    assume(np.all(np.diff(angles) > 1e-3))
    radii = (np.cos(angles) ** q + np.sin(angles) ** q) ** (-1.0 / q)
    samples = [(0.0, 1.0), *zip(angles.tolist(), radii.tolist()), (HALF_PI, 1.0)]
    p = boundary_sampled(samples)
    for a, r in samples:
        u, v = r * math.cos(a), r * math.sin(a)
        assert abs(p((u, v)) - 1.0) <= PLANAR_TOL, (a, r)
        assert p((-t * u, t * v)) == pytest.approx(t, rel=1e-12, abs=0.0), (a, r)


def test_sandwich_exact_for_envelopes(planar_catalog):
    for name, p in planar_catalog.items():
        rep = verify_sandwich(p)
        assert rep.passed, (name, rep.first_violation())
    # the envelopes themselves achieve equality
    pts = [(0.3, 1.7), (1.0, 1.0), (2.0, 0.1)]
    for u, v in pts:
        assert linf()((u, v)) == max(abs(u), abs(v))
        assert l1()((u, v)) == abs(u) + abs(v)
    assert max(1.0, 1.0) <= lq(2)((1.0, 1.0)) <= 2.0


def _sampled_sandwich_violated(p):
    """The sampled check that verify_sandwich replaced, as an oracle: 1e5
    uniform points of [-2, 2]^2 and five fixed ones; True iff one violates."""
    rng = np.random.default_rng(0)
    u = np.concatenate([rng.uniform(-2.0, 2.0, 100_000), [1.0, 0.0, 1.0, 0.0, 5.0]])
    v = np.concatenate([rng.uniform(-2.0, 2.0, 100_000), [0.0, 1.0, 1.0, 0.0, 5.0]])
    return bool(np.any(planar.sandwich_violated(u, v, p.evaluate_many(u, v))))


@st.composite
def _square_scaled_balls(draw):
    """A boundary ball through 1-4 samples at angles on a grid of pi/64, each
    at f times the max-norm square's radius, f on a grid of 0.05 in [0.7,
    1.25]: it bulges past the unit square by max f - 1 (0, or at least 0.05)."""
    angles = sorted(draw(st.lists(st.integers(1, 31), min_size=1, max_size=4, unique=True)))
    scales = draw(st.lists(st.integers(14, 25), min_size=len(angles), max_size=len(angles)))
    thetas = [a * HALF_PI / 32 for a in angles]
    samples = [(t, f / 20 / max(math.cos(t), math.sin(t))) for t, f in zip(thetas, scales)]
    try:
        return boundary_sampled([(0.0, 1.0), *samples, (HALF_PI, 1.0)]), max(scales) / 20 - 1.0
    except DomainError:
        assume(False)


@given(_square_scaled_balls())
@settings(max_examples=80, deadline=None)
def test_sandwich_at_the_vertices_equals_a_dense_sampled_verdict(ball):
    """The vertex verdict equals the sampled one at 1e5 points: it fails
    exactly where the ball bulges past the unit square, each violation at a
    vertex below its lower bound (a constructible ball, in convex position
    through (1, 0) and (0, 1), never exceeds the upper one)."""
    p, bulge = ball
    exact = verify_sandwich(p)
    assert exact.passed == (bulge <= 0.0) == (not _sampled_sandwich_violated(p)), bulge
    for v in exact.violations:
        assert tuple(v["point"]) in p.vertices and v["value"] < v["lower"] - PLANAR_TOL


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 5))
@settings(max_examples=120)
def test_homogeneity_and_sandwich_property(u, v, t):
    for p in (linf(), l1(), lq(2), lq(1.5)):
        val = p((u, v))
        assert max(abs(u), abs(v)) - 1e-12 <= val <= abs(u) + abs(v) + 1e-12
        assert p((t * u, t * v)) == pytest.approx(t * val, rel=1e-12, abs=1e-12)


# --------------------------------------------------------------------------
# monotonicity modulus


def _sphere_grid(p, n):
    """n points of p's positive unit sphere, evenly spaced in angle."""
    thetas = np.linspace(0.0, HALF_PI, n)
    c, s = np.cos(thetas), np.sin(thetas)
    norms = p.evaluate_many(c, s)
    return c / norms, s / norms


def _modulus_box_oracle(p, eps, n=260):
    """Independent brute-force: walk x over the full box [0, y] and apply the
    level constraint p(x) >= eps directly, no level curve, no candidates."""
    y1, y2 = _sphere_grid(p, n)
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


def _values(p, epsilons):
    return [r.value for r in planar.modulus_diagnostics_many(p, epsilons)]


MODULUS_EPS = [0.001, 0.025, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999]


@pytest.mark.parametrize("q", [1.001, 1.5, 2.0, 3.0, 7.5, 40.0])
def test_power_constant_closed_forms(q):
    # the sum norm's C(p, q) = q (q - 1)^(1/q - 1) (Hudzik and Maligranda); the
    # max norm's 1, at t* = 1; the r-mean's t* = (q - 1)^(-1/r); a polygon
    # through a catalog ball's vertices gives that ball's constant
    assert l1().power_constant(q) == pytest.approx(
        (q * (q - 1.0) ** (1.0 / q - 1.0), 1.0 / (q - 1.0)), rel=1e-15)
    assert linf().power_constant(q) == (1.0, 1.0)
    for r in (1.0, 1.5, 2.0, 3.0):
        t = (q - 1.0) ** (-1.0 / r)
        c, got = lq(r).power_constant(q)
        assert got == t and c == pytest.approx((1.0 + t ** r) ** (1.0 / r) * t ** (-1.0 / q),
                                               rel=1e-15)
    square = boundary_sampled([(0.0, 1.0), (math.pi / 4, math.sqrt(2.0)), (HALF_PI, 1.0)])
    diamond = boundary_sampled([(0.0, 1.0), (HALF_PI, 1.0)])
    assert square.power_constant(q) == pytest.approx(linf().power_constant(q), rel=1e-15)
    assert diamond.power_constant(q) == pytest.approx(l1().power_constant(q), rel=1e-15)
    assert diamond.power_constant(q) is diamond.power_constant(q)  # cached per q


def test_modulus_l1_is_identity():
    for p in (l1(), L1_POLYGON):
        assert np.max(np.abs(np.subtract(_values(p, MODULUS_EPS), MODULUS_EPS))) <= 1e-15, p.label


def test_modulus_linf_is_zero():
    for p in (linf(), LINF_POLYGON):
        assert _values(p, MODULUS_EPS) == [0.0] * len(MODULUS_EPS), p.label


@pytest.mark.parametrize("q", [1, 1.2, 1.5, 2, 3, 6, 50, 400])
def test_modulus_lq_is_the_closed_form(q):
    # delta = 1 - (1 - eps^q)^(1/q), taken without cancellation
    epsilons = [0.001, 0.025, 0.5, 0.975, 0.999]
    for eps, got in zip(epsilons, _values(lq(q), epsilons)):
        closed = -math.expm1(math.log1p(-eps ** q) / q)
        assert abs(got - closed) <= 1e-15, eps


def test_modulus_lq2_closed_form_and_box_oracle():
    eps = 0.6
    closed = 1.0 - math.sqrt(1.0 - eps * eps)
    got = modulus_diagnostics(lq(2), eps).value
    assert abs(got - closed) <= 1e-15
    # the box oracle's infimum runs over fewer points, so it is at least delta
    oracle = _modulus_box_oracle(lq(2), eps)
    assert got <= oracle + 1e-9 and oracle == pytest.approx(closed, abs=4e-3)


@st.composite
def _monotone_balls(draw):
    """A monotone boundary ball: a q-mean sphere sampled at 1-5 angles, its
    radii moved by up to 5%."""
    angles = sorted(draw(st.lists(st.floats(0.01, HALF_PI - 0.01), min_size=1, max_size=5,
                                  unique=True)))
    q = draw(st.floats(1.0, 4.0))
    noise = draw(st.lists(st.floats(-0.05, 0.05), min_size=len(angles), max_size=len(angles)))
    radii = [(math.cos(a) ** q + math.sin(a) ** q) ** (-1.0 / q) * (1.0 + e)
             for a, e in zip(angles, noise)]
    try:
        p = boundary_sampled([(0.0, 1.0), *zip(angles, radii), (HALF_PI, 1.0)])
    except DomainError:
        assume(False)
    assume(planar.monotone(p))
    return p


@given(_monotone_balls(), st.lists(st.floats(0.001, 0.999), min_size=1, max_size=4))
@settings(max_examples=40)
def test_modulus_candidates_beat_a_dense_sphere_sweep(p, epsilons):
    """No point of a dense sweep of the sphere (2,000 per edge) reaches further
    than the candidates, and the value is at most the box oracle's, an
    infimum over fewer points."""
    got = np.array(_values(p, epsilons))
    y = _sphere_points(p, per_edge=2000)
    sweep = planar._reach(p, np.array(epsilons)[:, None], y[None, :, 0], y[None, :, 1])
    assert np.all(got <= 1.0 - np.max(sweep, axis=1) + 1e-14), p.descriptor()
    for eps, value in zip(epsilons, got):
        assert value <= _modulus_box_oracle(p, eps, n=60) + 1e-8, (p.descriptor(), eps)


@pytest.mark.parametrize("q", [1.2, 1.5, 2.0, 3.0, 6.0])
def test_modulus_endpoint_maximum_matches_level_curve_walk(q):
    """For each y, the largest p(y - x) over the level curve p(x) = eps inside
    [0, y] sits at an end of the curve: a dense walk of the curve (closed
    form for lq, ends included) finds nothing larger."""
    p = lq(q)
    c = np.linspace(0.0, 1.0, 20_001)
    for eps in (0.1, 0.3, 0.5, 0.7, 0.9):
        for y1, y2 in zip(*_sphere_grid(p, 33)):
            got = planar._reach(p, np.array([[eps]]), np.array([[y1]]), np.array([[y2]]))[0][0]
            x1 = eps * c
            x2 = eps * (1.0 - c ** q) ** (1.0 / q)
            ends_1 = [0.0 if eps <= y2 else (eps ** q - y2 ** q) ** (1.0 / q),
                      min(eps, y1)]
            ends_2 = [min(eps, y2),
                      0.0 if eps <= y1 else (eps ** q - y1 ** q) ** (1.0 / q)]
            x1 = np.concatenate([x1, ends_1])
            x2 = np.concatenate([x2, ends_2])
            inside = (x1 <= y1) & (x2 <= y2)
            walk = float(np.max(p.evaluate_many(y1 - x1[inside], y2 - x2[inside])))
            assert abs(got - walk) <= 1e-12, (eps, y1, y2)


def test_modulus_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        modulus_diagnostics(l1(), 0.0)
    with pytest.raises(DomainError):
        modulus_diagnostics(l1(), 1.0)


def test_modulus_never_exceeds_epsilon(planar_catalog):
    for p in planar_catalog.values():
        for eps in (0.15, 0.45, 0.85):
            assert modulus_diagnostics(p, eps).value <= eps + 1e-12


def test_modulus_table_monotone_and_floor():
    table = build_modulus_table(lq(2), epsilons=[0.1, 0.3, 0.5, 0.7, 0.9])
    assert all(b >= a - 1e-9 for a, b in zip(table.deltas, table.deltas[1:]))
    assert table.floor_value(0.05) == 0.0
    assert table.floor_value(0.35) == table.deltas[1]
    assert table.floor_value(0.95) == table.deltas[-1]
    assert table.bounds == (PLANAR_TOL,) * 5
    # the ignored keyword keeps its callers working
    assert build_modulus_table(lq(2), epsilons=[0.1, 0.3], resolution=0.05).deltas == table.deltas[:2]


TABLE_EPS = np.arange(0.025, 0.9751, 0.025)
BOUNDARY_BALL = boundary_sampled([(0.0, 1.0), (0.4, 1.1), (1.1, 1.15), (HALF_PI, 1.0)])
MONOTONE_BALL = boundary_sampled([(0.0, 1.0), (0.5, 1.02), (1.1, 1.05), (HALF_PI, 1.0)])
BULGE = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.8), (HALF_PI, 1.0)])
SLANTED = boundary_sampled([(0.0, 1.0), (math.atan2(0.3, 1.002), math.hypot(1.002, 0.3)),
                            (HALF_PI, 1.0)])


def _level_end_bisected(p, fixed, eps, cap, first):
    """planar._level_end by 60 vectorised bisection steps on p itself, for p
    nondecreasing in c: the reference for the closed forms."""
    lo, hi = np.zeros(np.broadcast_shapes(np.shape(fixed), np.shape(eps))), cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = p.evaluate_many(np.where(first, fixed, mid), np.where(first, mid, fixed)) < eps
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _level_end_cases(p):
    # the fixed coordinate and the cap run over a grid of the sphere
    y1, y2 = _sphere_grid(p, 129)
    for eps in TABLE_EPS:
        for fixed, cap, first in ((y1, y2, True), (y2, y1, False)):
            yield fixed, eps, cap, np.full(fixed.shape, first)


@pytest.mark.parametrize("p", [linf(), l1(), *(lq(q) for q in (1, 1.2, 1.5, 2, 3, 6, 50, 400)),
                               MONOTONE_BALL],
                         ids=lambda p: p.label)
def test_level_end_matches_bisection_oracle(p):
    # the bisection presumes p((fixed, c)) nondecreasing in c, so a monotone ball
    for fixed, eps, cap, first in _level_end_cases(p):
        got = _level_end(p, fixed, eps, cap, first)
        want = _level_end_bisected(p, fixed, eps, cap, first)
        assert np.max(np.abs(got - want)) <= 1e-13, (eps, first[0])


def test_level_end_boundary_is_least_point_at_level():
    # the bisected ends checked on the level condition itself: p(c) = eps
    # inside (0, cap), p(c - h) < eps, p(c + h) >= eps below cap, p(c) >= eps at 0
    p, h = BOUNDARY_BALL, 1e-12
    for fixed, eps, cap, first in _level_end_cases(p):
        c = _level_end(p, fixed, eps, cap, first)

        def at(u):
            return p.evaluate_many(fixed, u) if first[0] else p.evaluate_many(u, fixed)
        inner = (c > h) & (c < cap - h)
        assert np.all(np.abs(at(c) - eps)[inner] <= 1e-13), (eps, first[0])
        assert np.all(at(c - h)[c > h] < eps), (eps, first[0])
        assert np.all(at(np.minimum(c + h, cap))[c < cap - h] >= eps), (eps, first[0])
        assert np.all(at(c)[c <= h] >= eps - 1e-13), (eps, first[0])


def test_level_end_lq400_does_not_underflow():
    # eps**q underflows to 0 here, and (eps**q - fixed**q)**(1/q) gives 0
    # where the level curve sits at c = 0.0999...
    p, fixed, cap, first = lq(400), np.array([0.09]), np.array([1.0]), np.array([True])
    got = _level_end(p, fixed, 0.1, cap, first)
    assert got[0] == pytest.approx(0.1, abs=1e-3)
    assert abs(got[0] - _level_end_bisected(p, fixed, 0.1, cap, first)[0]) <= 1e-13
    assert p((0.09, got[0])) == pytest.approx(0.1, abs=1e-15)


def test_modulus_table_matches_bisection_pass(planar_catalog, monkeypatch):
    norms = {**planar_catalog, "boundary": MONOTONE_BALL}
    fast = {name: build_modulus_table(p) for name, p in norms.items()}
    monkeypatch.setattr(planar, "_level_end", _level_end_bisected)
    for name, p in norms.items():
        slow = build_modulus_table(p)
        assert np.max(np.abs(np.subtract(fast[name].deltas, slow.deltas))) <= 1e-14, name


@pytest.mark.parametrize("p", [l1(), lq(3), lq(400), MONOTONE_BALL], ids=lambda p: p.label)
def test_modulus_batch_equals_one_row_calls(p):
    grid = [0.7, 0.001, 0.5, 0.999, 0.5, 0.025, 0.975, 0.7, 0.3]
    batch = planar.modulus_diagnostics_many(p, grid)
    assert [r.epsilon for r in batch] == grid
    assert batch == [modulus_diagnostics(p, e) for e in grid]


def test_modulus_rejects_a_ball_that_is_not_monotone():
    # the endpoint argument needs p monotone: BOUNDARY_BALL's first facet has
    # b = -0.031, BULGE's -0.214; the max norm's polygon, whose first facet
    # has b = -2.2e-16 from rounding, is monotone and passes
    assert BOUNDARY_BALL.facets[0][1] < 0.0
    for p in (BOUNDARY_BALL, BULGE, SLANTED):
        for call in (lambda: modulus_diagnostics(p, 0.5), lambda: build_modulus_table(p),
                     lambda: planar.modulus_diagnostics_many(p, [0.2, 0.7])):
            with pytest.raises(DomainError, match="monotone"):
                call()
    assert LINF_POLYGON.facets[0][1] < 0.0
    assert build_modulus_table(LINF_POLYGON).deltas == build_modulus_table(linf()).deltas


def test_strictly_increasing_on_ray():
    assert is_strictly_increasing_on_ray(l1())
    assert not is_strictly_increasing_on_ray(linf())
    assert is_strictly_increasing_on_ray(lq(2))
    assert is_strictly_increasing_on_ray(MONOTONE_BALL)
    # the sample at 1.45 rad pokes out past the chord of its neighbours
    with pytest.raises(DomainError, match="convex position"):
        boundary_sampled([(0.0, 1.0), (1.35, 1.0), (1.45, 1.6), (HALF_PI, 1.0)])
    # the first edge leaves (1, 0) with u rising, b < 0: p((1, u)) first falls
    assert BULGE.facets[0][1] < 0.0
    assert not is_strictly_increasing_on_ray(BULGE)
    assert BULGE((1.0, 0.5)) < BULGE((1.0, 0.0))


def test_strictly_monotone_probe():
    ok, witness = strictly_monotone_probe(linf())
    assert not ok
    assert witness == {"low": [1.0, 0.2], "high": [1.0, 1.0], "low_value": 1.0,
                       "high_value": 1.0}
    for p in (l1(), lq(1.5), lq(2), lq(3), MONOTONE_BALL):
        ok, witness = strictly_monotone_probe(p)
        assert ok, witness
    # the first edge runs from (1, 0) out to (1.002, 0.3), so b < 0 on it:
    # p((1.001, 0)) > p((1.001, 0.05)); the witness is that edge, upward
    assert SLANTED.facets[0][1] < 0.0
    assert SLANTED((1.001, 0.0)) > SLANTED((1.001, 0.05))
    ok, witness = strictly_monotone_probe(SLANTED)
    assert not ok
    assert witness["low"] == [1.0, 0.0] and witness["high"] == list(SLANTED.vertices[1])
    _assert_dominated_sphere_pair(SLANTED, witness)
    # the last edge runs up to (0, 1) from (0.314, 1.012), so a < 0 on it;
    # the witness is that edge, downward
    p = boundary_sampled([(0.0, 1.0), (1.27, 1.06), (HALF_PI, 1.0)])
    assert p.facets[-1][0] < 0.0 < p.facets[0][1]
    ok, witness = strictly_monotone_probe(p)
    assert not ok
    assert witness["low"] == [0.0, 1.0] and witness["high"] == list(p.vertices[1])
    _assert_dominated_sphere_pair(p, witness)


def _assert_dominated_sphere_pair(p, witness):
    low, high = witness["low"], witness["high"]
    assert low != high and low[0] <= high[0] and low[1] <= high[1], witness
    assert witness["low_value"] == pytest.approx(1.0, abs=1e-12)
    assert witness["high_value"] == pytest.approx(1.0, abs=1e-12)
    assert p(tuple(low)) == witness["low_value"] and p(tuple(high)) == witness["high_value"]


def _random_ball(rng):
    """A boundary ball: a q-mean sphere sampled at 1-5 angles, its radii
    scaled by noise of a random size (none, small, large); a draw whose
    samples are not in convex position is drawn again."""
    while True:
        n = int(rng.integers(1, 6))
        angles = np.sort(rng.uniform(0.0, HALF_PI, n))
        q = rng.uniform(1.0, 4.0)
        radii = (np.cos(angles) ** q + np.sin(angles) ** q) ** (-1.0 / q)
        radii = radii * (1.0 + rng.choice([0.0, 0.01, 0.1]) * rng.standard_normal(n))
        try:
            return boundary_sampled([(0.0, 1.0), *zip(angles, radii), (HALF_PI, 1.0)])
        except DomainError:
            pass


def _sphere_points(p, per_edge=200):
    """Dense points on a boundary ball's sphere, the polygon's edges in angle
    order, as an (m, 2) array."""
    verts = np.array(p.vertices)
    t = np.linspace(0.0, 1.0, per_edge, endpoint=False)[:, None]
    return np.concatenate([a + t * (b - a) for a, b in zip(verts, verts[1:])] + [verts[-1:]])


def test_strictness_verdicts_match_dense_sphere_oracle():
    # oracle: dense points on the polygon; strictly monotone iff x strictly
    # falls and y strictly rises along it, ray-strict iff x strictly falls
    rng = np.random.default_rng(2024)
    counts = {True: 0, False: 0}
    for _ in range(400):
        p = _random_ball(rng)
        dx, dy = np.diff(_sphere_points(p), axis=0).T
        ok, witness = strictly_monotone_probe(p)
        assert ok == bool(np.all(dx < 0.0) and np.all(dy > 0.0)), p.descriptor()
        assert is_strictly_increasing_on_ray(p) == bool(np.all(dx < 0.0)), p.descriptor()
        counts[ok] += 1
        if not ok:
            _assert_dominated_sphere_pair(p, witness)
    assert min(counts.values()) >= 50, counts


def test_sampled_monotonicity_violation_implies_not_strictly_monotone():
    # oracle: dense points on the polygon; monotone iff x never rises and y
    # never falls along it
    rng = np.random.default_rng(7)
    flagged = 0
    for i in range(150):
        p = _random_ball(rng)
        rep = check_lattice_axioms(p)
        dx, dy = np.diff(_sphere_points(p), axis=0).T
        assert rep.passed == bool(np.all(dx <= 0.0) and np.all(dy >= 0.0)), p.descriptor()
        if any(v["check"] == "monotonicity" for v in rep.violations):
            flagged += 1
            assert strictly_monotone_probe(p)[0] is False, p.descriptor()
            for v in rep.violations:
                _assert_axis_projection_witness(p, v)
    assert flagged >= 10


def test_strict_monotonicity_gives_positive_modulus():
    # finite-dimensional uniform monotonicity: strictly monotone planar
    # norms have a strictly positive modulus on the whole grid
    for p in (l1(), lq(1.5), lq(2), lq(3)):
        for eps in (0.1, 0.4, 0.8):
            assert modulus_diagnostics(p, eps).value > 0.0, (p.label, eps)


def test_descriptor_roundtrip(planar_catalog):
    for p in planar_catalog.values():
        q = planar_from_descriptor(p.descriptor())
        assert q((0.7, 1.3)) == pytest.approx(p((0.7, 1.3)), rel=1e-15)
    b = boundary_sampled([(0.0, 1.0), (0.8, 1.25), (HALF_PI, 1.0)])
    b2 = planar_from_descriptor(b.descriptor())
    assert b2((0.5, 0.5)) == pytest.approx(b((0.5, 0.5)), rel=1e-15)
