"""Lattice norms on the plane and their monotonicity modulus.

A lattice norm here depends only on the coordinate absolute values and is
monotone in them.  Every constructible kind is normalised so that
p((1,0)) = p((0,1)) = 1.  The catalog kinds (max, sum, q-mean) evaluate
exactly.  A user-defined norm is the polygonal gauge through boundary
samples of its unit sphere in the positive quadrant, p = max_i (a_i |u| +
b_i |v|) with a_i u + b_i v = 1 on the i-th edge: monotone, hence a norm,
iff every a_i, b_i >= 0 (Bauer, Stoer and Witzgall, Numer. Math. 3, 1961).
check_lattice_axioms and the strictness verdicts are exact per kind, from
the signs of a boundary ball's normals, and verify_sandwich is exact from
the unit sphere's vertices.

The monotonicity modulus

    delta(eps) = inf { 1 - p(y - x) : 0 <= x <= y, p(x) >= eps, p(y) = 1 }

is exact: 1 minus the largest reach(y) over a finite set of candidate
points y on the positive unit sphere, every epsilon in one numpy pass.

reach(y), the inner maximum of p(y - x), needs no search.  Larger p(x) only
shrinks p(y - x), so x runs over the level curve p(x) = eps inside the box
[0, y].  On that curve x2 is a concave, nonincreasing function of x1, so
y2 - x2 is convex in x1; p is convex and nondecreasing in each coordinate
on the positive quadrant, so p(y - x) is convex along the curve and its
maximum sits at one of the curve's two ends on the box edges.

The candidates are the sphere's vertices (a boundary ball's samples;
(1, 0), (1, 1), (0, 1) for the max norm; the axis points for the sum and
q-mean norms) and the two sphere points with y1 = eps and with y2 = eps.
One code path serves every kind:

- Polygons (the max and sum norms, boundary balls).  Between two
  neighbouring candidates y runs along one edge, affinely in its position,
  and no end switches: the end taken switches only at y1 = eps or y2 = eps.
  Each term of reach is convex there.  With x = (0, eps), (eps, 0) or eps y
  it is p of an affine function.  With x = (y1, t) it is p((0, y2 - t)) =
  y2 - t, where t = g(y1), the least x2 with p(x) >= eps, is concave in y1
  on [0, eps), as the boundary of the convex set p < eps; x = (s, y2)
  gives y1 - s alike.  So the maximum sits at a candidate.  g jumps only
  at y1 = eps (where the curve has an edge on x1 = eps), a candidate, and
  there reach, the maximum over the whole curve, bounds the limit from
  either side.
- q-mean, q >= 1.  0 <= x <= y gives (y_i - x_i)^q + x_i^q <= y_i^q, so
  p(y - x)^q <= 1 - p(x)^q <= 1 - eps^q.  Equality holds at y2 = eps,
  x = (0, eps), which is a candidate, so delta = 1 - (1 - eps^q)^(1/q).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import DomainError, reading_descriptor

PLANAR_TOL = 1e-12  # absolute comparison tolerance at O(1) magnitudes
_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PlanarNorm:
    """A lattice norm on R^2 with p((1,0)) = p((0,1)) = 1."""

    kind: str  # "linf" | "l1" | "lq" | "boundary"
    q: float = math.nan
    angles: tuple[float, ...] = ()
    radii: tuple[float, ...] = ()

    @cached_property
    def vertices(self) -> tuple[tuple[float, float], ...]:
        """The positive unit sphere's vertices, (r, 0) first and (0, r) last:
        a boundary ball's sample points, the max norm's square corners, else
        the axis points (the q-mean sphere has no other corner)."""
        if self.kind == "linf":
            return ((1.0, 0.0), (1.0, 1.0), (0.0, 1.0))
        if self.kind != "boundary":
            return ((1.0, 0.0), (0.0, 1.0))
        pts = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(self.angles, self.radii)]
        return ((self.radii[0], 0.0), *pts[1:-1], (0.0, self.radii[-1]))

    @cached_property
    def facets(self) -> tuple[tuple[float, float], ...]:
        """(a, b) with a u + b v = 1 on each edge of a boundary ball, in angle
        order; u0 v1 - u1 v0 > 0 on the edge from (u0, v0) to (u1, v1)."""
        return tuple(((v1 - v0) / (u0 * v1 - u1 * v0), (u0 - u1) / (u0 * v1 - u1 * v0))
                     for (u0, v0), (u1, v1) in zip(self.vertices, self.vertices[1:]))

    @cached_property
    def corners(self) -> tuple[float, ...]:
        """Inner vertices' slopes v/u: (1, I) lies on facet bisect_right(corners, I)."""
        return tuple(v / u for u, v in self.vertices[1:-1])

    def evaluate(self, point: tuple[float, float]) -> float:
        u, v = point
        if not (math.isfinite(u) and math.isfinite(v)):
            raise DomainError(f"non-finite point {point!r}")
        return self._eval_abs(abs(u), abs(v))

    __call__ = evaluate

    def _eval_abs(self, au: float, av: float) -> float:
        k = self.kind
        if k == "linf":
            return au if au >= av else av
        if k == "l1":
            return au + av
        if k == "lq":
            m = au if au >= av else av
            if m == 0.0:
                return 0.0
            return m * ((au / m) ** self.q + (av / m) ** self.q) ** (1.0 / self.q)
        return max(a * au + b * av for a, b in self.facets)

    def evaluate_many(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised evaluation (absolute values are taken internally)."""
        au = np.abs(np.asarray(u, dtype=float))
        av = np.abs(np.asarray(v, dtype=float))
        k = self.kind
        if k == "linf":
            return np.maximum(au, av)
        if k == "l1":
            return au + av
        if k == "lq":
            m = np.maximum(au, av)
            safe = np.where((m > 0.0) & np.isfinite(m), m, 1.0)
            with np.errstate(invalid="ignore"):
                out = safe * ((au / safe) ** self.q + (av / safe) ** self.q) ** (1.0 / self.q)
            out = np.where(np.isinf(m), np.inf, out)
            return np.where(m > 0.0, out, 0.0)
        return reduce(np.maximum, (a * au + b * av for a, b in self.facets))

    @property
    def label(self) -> str:
        if self.kind == "lq":
            return f"lq:{self.q:g}"
        if self.kind == "boundary":
            return f"boundary[{len(self.angles)}]"
        return self.kind

    def descriptor(self) -> dict:
        if self.kind == "lq":
            return {"kind": "lq", "q": self.q}
        if self.kind == "boundary":
            return {"kind": "boundary", "samples": [[a, r] for a, r in zip(self.angles, self.radii)]}
        return {"kind": self.kind}


def linf() -> PlanarNorm:
    return PlanarNorm("linf")


def l1() -> PlanarNorm:
    return PlanarNorm("l1")


def lq(q: float) -> PlanarNorm:
    q = float(q)
    if not math.isfinite(q) or q < 1.0:
        raise DomainError(f"q-mean norm needs finite q >= 1, got {q!r}")
    return PlanarNorm("lq", q=q)


def boundary_sampled(samples) -> PlanarNorm:
    """The polygonal gauge through (angle, radius) samples of the
    positive-quadrant unit sphere.

    Angles must increase from 0 to pi/2; the endpoint radii must equal 1
    within 1e-12 so the unit vectors are normalised.  The samples must be in
    convex position, p <= 1 + PLANAR_TOL at every one.  Monotonicity is not
    required: a ball that bulges past the max-norm square constructs;
    check_lattice_axioms reads the failure from its facets, and
    modulus_diagnostics_many rejects it.
    """
    pts = sorted((float(a), float(r)) for a, r in samples)
    if len(pts) < 2:
        raise DomainError("boundary norm needs at least two samples")
    angles, radii = zip(*pts)
    for a, r in pts:
        if not (math.isfinite(a) and math.isfinite(r)) or r <= 0.0:
            raise DomainError(f"bad boundary sample ({a!r}, {r!r})")
    if any(b - a <= 0.0 for a, b in zip(angles, angles[1:])):
        raise DomainError("boundary angles must be strictly increasing")
    if abs(angles[0]) > PLANAR_TOL or abs(angles[-1] - _HALF_PI) > PLANAR_TOL:
        raise DomainError("boundary angles must run from 0 to pi/2")
    if abs(1.0 / radii[0] - 1.0) > PLANAR_TOL or abs(1.0 / radii[-1] - 1.0) > PLANAR_TOL:
        raise DomainError("boundary norm must satisfy p((1,0)) = p((0,1)) = 1")
    p = PlanarNorm("boundary", angles=(0.0, *angles[1:-1], _HALF_PI), radii=radii)
    for (a, r), vertex in zip(pts, p.vertices):
        if p._eval_abs(*vertex) > 1.0 + PLANAR_TOL:
            raise DomainError(f"boundary samples are not in convex position at ({a!r}, {r!r})")
    return p


def planar_from_descriptor(d: dict) -> PlanarNorm:
    with reading_descriptor("planar norm", d):
        kind = d.get("kind")
        if kind == "linf":
            return linf()
        if kind == "l1":
            return l1()
        if kind == "lq":
            return lq(d["q"])
        if kind == "boundary":
            return boundary_sampled(d["samples"])
    raise DomainError(f"unknown planar norm descriptor {d!r}")


# ---------------------------------------------------------------------------
# Axiom checks


@dataclass
class ValidationReport:
    passed: bool
    violations: list[dict] = field(default_factory=list)

    def first_violation(self) -> dict | None:
        return self.violations[0] if self.violations else None


def monotone(p: PlanarNorm) -> bool:
    """p is nondecreasing in |u| and |v|: every catalog kind, and a boundary
    ball iff every facet has a, b >= -PLANAR_TOL (samples on an
    axis-parallel edge, as through (1, 1), give a or b of a rounding's size)."""
    return p.kind != "boundary" or min(map(min, p.facets)) >= -PLANAR_TOL


def check_lattice_axioms(p: PlanarNorm) -> ValidationReport:
    """The lattice-norm axioms, exactly: the catalog kinds hold them by
    construction, a boundary ball iff it is monotone.  A facet with b (a)
    below -PLANAR_TOL pushes u (v) past 1 at its end (start) vertex, high,
    whose projection low onto that axis has p(low) > p(high)."""
    violations = []
    if p.kind == "boundary":
        for (a, b), start, end in zip(p.facets, p.vertices, p.vertices[1:]):
            if min(a, b) >= -PLANAR_TOL:
                continue
            high = end if b < -PLANAR_TOL else start
            low = (high[0], 0.0) if b < -PLANAR_TOL else (0.0, high[1])
            violations.append({"check": "monotonicity", "p": p.descriptor(),
                               "low": list(low), "high": list(high),
                               "low_value": p.evaluate(low), "high_value": p.evaluate(high)})
    return ValidationReport(passed=not violations, violations=violations)


def sandwich_violated(u, v, value):
    """value = p((u,v)) lies outside [max(|u|,|v|), |u| + |v|] by more than
    PLANAR_TOL; elementwise on arrays."""
    au, av = np.abs(u), np.abs(v)
    return (value < np.maximum(au, av) - PLANAR_TOL) | (value > au + av + PLANAR_TOL)


def verify_sandwich(p: PlanarNorm) -> ValidationReport:
    """max(|u|,|v|) <= p((u,v)) <= |u| + |v|, exactly (within PLANAR_TOL at
    unit scale): p is even in each coordinate and homogeneous, so the bounds
    hold iff they do on the positive unit sphere, and there iff at its
    vertices (PlanarNorm.vertices).  On a polygon's sphere max(u, v) is
    convex and u + v affine along each edge, so the largest max(u, v) and
    the least u + v sit at vertices; the q-mean holds both bounds by the
    power-mean inequality, with equality at its axis points."""
    u, v = np.array(p.vertices).T
    vals = p.evaluate_many(u, v)
    violations = [
        {"check": "sandwich", "p": p.descriptor(), "point": [a, b], "value": val,
         "lower": max(a, b), "upper": a + b}
        for a, b, val, bad in zip(u.tolist(), v.tolist(), vals.tolist(),
                                  sandwich_violated(u, v, vals).tolist()) if bad
    ]
    return ValidationReport(passed=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Monotonicity modulus


@dataclass(frozen=True)
class ModulusResult:
    epsilon: float
    value: float


def _level_end(p: PlanarNorm, fixed: np.ndarray, eps, cap,
               first: np.ndarray) -> np.ndarray:
    """The least c in [0, cap] with p((fixed, c)) >= eps where ``first``,
    else p((c, fixed)) >= eps (cap if none), elementwise with eps and cap
    broadcasting; closed form per kind, the q-mean's scaled by eps (eps**q
    underflows); on a boundary ball, where the first of its facets does."""
    if p.kind == "linf":
        return np.where(fixed >= eps, 0.0, np.minimum(eps, cap))
    if p.kind == "l1":
        return np.clip(eps - fixed, 0.0, cap)
    if p.kind == "lq":
        with np.errstate(divide="ignore"):
            gap = -np.expm1(p.q * np.log(np.minimum(fixed / eps, 1.0)))
        return np.minimum(eps * gap ** (1.0 / p.q), cap)
    c = cap
    for a, b in p.facets:  # the least c >= 0 at which the facet reaches eps
        lead, rate = np.where(first, a, b) * fixed, np.where(first, b, a)
        # 0/0 where fixed sits on the end of a facet with rate 0; np.where drops it
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = np.where(rate > 0.0, (eps - lead) / rate, np.inf)
        c = np.minimum(c, np.where(lead >= eps, 0.0, reach))
    return c


def _candidates(p: PlanarNorm, eps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The candidate points y of the positive unit sphere, one row per
    epsilon of the column ``eps``: the sphere's vertices, then (eps, t) and
    (s, eps)."""
    t, s = _level_end(p, np.hstack([eps, eps]), 1.0, 1.0, np.array([True, False])).T
    v1, v2 = (np.broadcast_to(coord, (len(eps), len(p.vertices))) for coord in zip(*p.vertices))
    return np.hstack([v1, eps, s[:, None]]), np.hstack([v2, t[:, None], eps])


def _reach(p: PlanarNorm, eps: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """The largest p(y - x) over x on the level curve p(x) = eps inside the
    box [0, y], for y = (y1, y2) on the positive unit sphere, elementwise
    with eps broadcasting.  The curve leaves the box at (0, eps) when eps <=
    y2, else at (s, y2); it ends at (eps, 0) when eps <= y1, else at (y1, t).
    s and t come from _level_end."""
    n = y1.shape[-1]  # columns [0, n) solve p(y1, t) = eps, columns [n, 2n) p(s, y2) = eps
    t, s = np.split(_level_end(p, np.concatenate([y1, y2], axis=-1), eps,
                               np.concatenate([y2, y1], axis=-1), np.arange(2 * n) < n), 2, axis=-1)
    # a running maximum holds two (m, n) arrays at a time; the scaled
    # witness x = eps * y is on the curve and pins delta <= eps
    reach = p.evaluate_many((1.0 - eps) * y1, (1.0 - eps) * y2)
    reach = np.maximum(reach, np.where(eps <= y2, p.evaluate_many(y1, y2 - eps), -np.inf))  # x = (0, eps)
    reach = np.maximum(reach, np.where(eps <= y1, p.evaluate_many(y1 - eps, y2), -np.inf))  # x = (eps, 0)
    reach = np.maximum(reach, np.where(y1 <= eps, p.evaluate_many(np.zeros(n), y2 - t), -np.inf))  # x = (y1, t)
    reach = np.maximum(reach, np.where(y2 <= eps, p.evaluate_many(y1 - s, np.zeros(n)), -np.inf))  # x = (s, y2)
    return reach


def modulus_diagnostics_many(p: PlanarNorm, epsilons) -> list[ModulusResult]:
    """modulus_diagnostics at each epsilon, in the given order, duplicates
    included, in one numpy pass.  p must be monotone (every lattice norm
    is), as the level curve's end points bound the modulus only then."""
    if not monotone(p):
        raise DomainError("the modulus needs a monotone ball: a boundary facet "
                          "a u + b v = 1 has a < 0 or b < 0")
    eps = []
    for e in epsilons:
        if not (0.0 < float(e) < 1.0):
            raise DomainError(f"epsilon must lie in (0, 1), got {e!r}")
        eps.append(float(e))
    col = np.array(eps).reshape(-1, 1)
    values = 1.0 - np.max(_reach(p, col, *_candidates(p, col)), axis=1)
    return [ModulusResult(epsilon=e, value=max(0.0, v)) for e, v in zip(eps, values.tolist())]


def modulus_diagnostics(p: PlanarNorm, epsilon: float) -> ModulusResult:
    """The monotonicity modulus at epsilon, exact up to rounding."""
    return modulus_diagnostics_many(p, [epsilon])[0]


@dataclass(frozen=True)
class MonotonicityModulusTable:
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        for e, d in zip(self.epsilons, self.deltas):
            if d < -PLANAR_TOL or d > e + PLANAR_TOL:
                raise DomainError(f"modulus table entry delta({e}) = {d} outside [0, eps]")
        for d0, d1 in zip(self.deltas, self.deltas[1:]):
            if d1 < d0 - PLANAR_TOL:
                raise DomainError("modulus table must be nondecreasing in epsilon")

    @property
    def bounds(self) -> tuple[float, ...]:
        """Each entry's error bound: rounding only, PLANAR_TOL."""
        return (PLANAR_TOL,) * len(self.deltas)

    def floor_value(self, eps: float) -> float:
        """delta at the largest grid point <= eps (0 below the grid).

        Because the modulus is nondecreasing, this never overstates
        delta(eps).
        """
        best = 0.0
        for e, d in zip(self.epsilons, self.deltas):
            if e <= eps:
                best = d
            else:
                break
        return best


def build_modulus_table(p: PlanarNorm, epsilons=None, resolution: float = 1e-3) -> MonotonicityModulusTable:
    """The exact modulus at each epsilon (by default 0.025, 0.05, ..., 0.975).
    ``resolution`` is ignored: it set the grid step of an earlier, sampled
    modulus, and stays so that callers passing it keep working."""
    if epsilons is None:
        epsilons = np.arange(0.025, 0.9751, 0.025)
    epsilons = tuple(float(e) for e in epsilons)
    return MonotonicityModulusTable(epsilons=epsilons,
                                    deltas=tuple(r.value for r in modulus_diagnostics_many(p, epsilons)))


# ---------------------------------------------------------------------------
# Strictness verdicts


def is_strictly_increasing_on_ray(p: PlanarNorm) -> bool:
    """True iff u -> p((1, u)) strictly increases on [0, inf), exactly per
    kind.  On a boundary ball p((1, u)) is convex in u and starts on the
    first facet, so it strictly increases iff that facet's b > 0."""
    return p.facets[0][1] > 0.0 if p.kind == "boundary" else p.kind != "linf"


def strictly_monotone_probe(p: PlanarNorm):
    """Strict monotonicity on the positive quadrant, exactly per kind: the
    sum and q-mean norms are, the max norm is not, a boundary ball is iff
    every facet has a, b > 0.  Returns (True, None) or (False, witness), the
    witness a dominated pair on the unit sphere: the failing edge's ends
    (b <= 0 iff u does not fall along the edge, a <= 0 iff v does not rise)."""
    if p.kind == "linf":
        return False, {"low": [1.0, 0.2], "high": [1.0, 1.0], "low_value": 1.0, "high_value": 1.0}
    if p.kind == "boundary":
        for (a, b), start, end in zip(p.facets, p.vertices, p.vertices[1:]):
            if a <= 0.0 or b <= 0.0:
                low, high = (start, end) if b <= 0.0 else (end, start)
                return False, {"low": list(low), "high": list(high),
                               "low_value": p.evaluate(low), "high_value": p.evaluate(high)}
    return True, None
