"""Lattice norms on the plane and their monotonicity modulus.

A lattice norm here depends only on the coordinate absolute values and is
monotone in them.  Every constructible kind is normalised so that
p((1,0)) = p((0,1)) = 1.  The catalog kinds (max, sum, q-mean) evaluate
exactly; user-defined norms are given by boundary samples of the unit
sphere in the positive quadrant and interpolate the radius piecewise
linearly in the angle.  Axiom checks are sampled: a "pass" means no
violation was found at the given budget.

The monotonicity modulus

    delta(eps) = inf { 1 - p(y - x) : 0 <= x <= y, p(x) >= eps, p(y) = 1 }

is computed on the positive quadrant by a two-pass nested grid: the outer
parameter walks y along the positive unit sphere, the inner parameter
walks x along the level curve p(x) = eps inside the box [0, y] (larger
p(x) only shrinks p(y - x), so the level curve is the binding set).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

PLANAR_TOL = 1e-12  # absolute comparison tolerance at O(1) magnitudes
RAY_U_MAX = 4.0  # is_strictly_increasing_on_ray samples u in [0, RAY_U_MAX]
RAY_GRID = 64
_HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class PlanarNorm:
    """A lattice norm on R^2 with p((1,0)) = p((0,1)) = 1."""

    kind: str  # "linf" | "l1" | "lq" | "boundary"
    q: float = math.nan
    angles: tuple[float, ...] = ()
    radii: tuple[float, ...] = ()

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
        r = math.hypot(au, av)
        if r == 0.0:
            return 0.0
        return r / self._radius(math.atan2(av, au))

    def _radius(self, theta: float) -> float:
        ang, rad = self.angles, self.radii
        if theta <= ang[0]:
            return rad[0]
        if theta >= ang[-1]:
            return rad[-1]
        i = bisect_right(ang, theta)
        a0, a1 = ang[i - 1], ang[i]
        t = (theta - a0) / (a1 - a0)
        return rad[i - 1] * (1.0 - t) + rad[i] * t

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
        r = np.hypot(au, av)
        theta = np.arctan2(av, au)
        rad = np.interp(theta, self.angles, self.radii)
        with np.errstate(invalid="ignore"):
            out = r / rad
        return np.where(r > 0.0, out, 0.0)

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
    """Norm from (angle, radius) samples of the positive-quadrant unit sphere.

    Angles must increase from 0 to pi/2; the endpoint radii must equal 1
    within 1e-12 so the unit vectors are normalised.  Convexity and
    monotonicity of the induced ball are NOT enforced here: run
    check_lattice_axioms to probe them.
    """
    pts = sorted((float(a), float(r)) for a, r in samples)
    if len(pts) < 2:
        raise DomainError("boundary norm needs at least two samples")
    angles = tuple(a for a, _ in pts)
    radii = tuple(r for _, r in pts)
    for a, r in pts:
        if not (math.isfinite(a) and math.isfinite(r)) or r <= 0.0:
            raise DomainError(f"bad boundary sample ({a!r}, {r!r})")
        if a < -PLANAR_TOL or a > _HALF_PI + PLANAR_TOL:
            raise DomainError(f"boundary angle {a!r} outside [0, pi/2]")
    if any(b - a <= 0.0 for a, b in zip(angles, angles[1:])):
        raise DomainError("boundary angles must be strictly increasing")
    if abs(angles[0]) > PLANAR_TOL or abs(angles[-1] - _HALF_PI) > PLANAR_TOL:
        raise DomainError("boundary samples must cover angles 0 and pi/2")
    if abs(1.0 / radii[0] - 1.0) > PLANAR_TOL or abs(1.0 / radii[-1] - 1.0) > PLANAR_TOL:
        raise DomainError("boundary norm must satisfy p((1,0)) = p((0,1)) = 1")
    angles = (0.0,) + angles[1:-1] + (_HALF_PI,)
    return PlanarNorm("boundary", angles=angles, radii=radii)


def planar_from_descriptor(d: dict) -> PlanarNorm:
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
# Sampled axiom checks


@dataclass
class ValidationReport:
    passed: bool
    samples: int
    violations: list[dict] = field(default_factory=list)

    def first_violation(self) -> dict | None:
        return self.violations[0] if self.violations else None


_MAX_RECORDS = 50


def check_lattice_axioms(p: PlanarNorm, sample_budget: int = 1000, seed: int = 0) -> ValidationReport:
    """Probe normalisation, the lattice property, homogeneity, the triangle
    inequality and coordinatewise monotonicity on random points."""
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    rng = np.random.default_rng(seed)
    violations: list[dict] = []

    def record(kind: str, **data) -> None:
        if len(violations) < _MAX_RECORDS:
            violations.append({"check": kind, "p": p.descriptor(), **data})

    for axis, val in (("(1,0)", p.evaluate((1.0, 0.0))), ("(0,1)", p.evaluate((0.0, 1.0)))):
        if abs(val - 1.0) > PLANAR_TOL:
            record("normalization", point=axis, value=val)

    n = sample_budget
    u = rng.uniform(0.0, 2.0, n)
    v = rng.uniform(0.0, 2.0, n)
    base = p.evaluate_many(u, v)

    signs_u = rng.choice([-1.0, 1.0], n)
    signs_v = rng.choice([-1.0, 1.0], n)
    signed = p.evaluate_many(signs_u * u, signs_v * v)
    for i in np.nonzero(np.abs(signed - base) > PLANAR_TOL * np.maximum(1.0, base))[0][:5]:
        record("lattice", point=[float(u[i]), float(v[i])],
               signs=[float(signs_u[i]), float(signs_v[i])],
               value=float(signed[i]), expected=float(base[i]))

    t = rng.uniform(0.25, 4.0, n)
    scaled = p.evaluate_many(t * u, t * v)
    tol = PLANAR_TOL * np.maximum(1.0, t * base)
    for i in np.nonzero(np.abs(scaled - t * base) > tol)[0][:5]:
        record("homogeneity", point=[float(u[i]), float(v[i])], factor=float(t[i]),
               value=float(scaled[i]), expected=float(t[i] * base[i]))

    u2 = rng.uniform(0.0, 2.0, n)
    v2 = rng.uniform(0.0, 2.0, n)
    other = p.evaluate_many(u2, v2)
    summed = p.evaluate_many(u + u2, v + v2)
    for i in np.nonzero(summed > base + other + PLANAR_TOL * np.maximum(1.0, base + other))[0][:5]:
        record("triangle", x=[float(u[i]), float(v[i])], y=[float(u2[i]), float(v2[i])],
               value=float(summed[i]), bound=float(base[i] + other[i]))

    # dominated pairs: random growth plus the axis projections (u,0) <= (u,v)
    du = rng.uniform(0.0, 1.0, n)
    dv = rng.uniform(0.0, 1.0, n)
    bigger = p.evaluate_many(u + du, v + dv)
    for i in np.nonzero(base > bigger + PLANAR_TOL)[0][:5]:
        record("monotonicity", low=[float(u[i]), float(v[i])],
               high=[float(u[i] + du[i]), float(v[i] + dv[i])],
               low_value=float(base[i]), high_value=float(bigger[i]))
    proj_u = p.evaluate_many(u, np.zeros(n))
    proj_v = p.evaluate_many(np.zeros(n), v)
    for i in np.nonzero((proj_u > base + PLANAR_TOL) | (proj_v > base + PLANAR_TOL))[0][:5]:
        record("monotonicity", low=[float(u[i]), 0.0] if proj_u[i] > base[i] + PLANAR_TOL else [0.0, float(v[i])],
               high=[float(u[i]), float(v[i])],
               low_value=float(max(proj_u[i], proj_v[i])), high_value=float(base[i]))

    return ValidationReport(passed=not violations, samples=n, violations=violations)


def sandwich_violated(u, v, value):
    """value = p((u,v)) lies outside [max(|u|,|v|), |u| + |v|] by more than
    PLANAR_TOL; elementwise on arrays."""
    au, av = np.abs(u), np.abs(v)
    return (value < np.maximum(au, av) - PLANAR_TOL) | (value > au + av + PLANAR_TOL)


def verify_sandwich(p: PlanarNorm, sample_budget: int = 10_000, seed: int = 0) -> ValidationReport:
    """Check max(|u|,|v|) - tol <= p((u,v)) <= |u| + |v| + tol on samples."""
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    rng = np.random.default_rng(seed)
    n = sample_budget
    u = np.concatenate([rng.uniform(-2.0, 2.0, n), [1.0, 0.0, 1.0, 0.0, 5.0]])
    v = np.concatenate([rng.uniform(-2.0, 2.0, n), [0.0, 1.0, 1.0, 0.0, 5.0]])
    vals = p.evaluate_many(u, v)
    lo = np.maximum(np.abs(u), np.abs(v))
    hi = np.abs(u) + np.abs(v)
    bad = sandwich_violated(u, v, vals)
    violations = [
        {"check": "sandwich", "p": p.descriptor(), "point": [float(u[i]), float(v[i])],
         "value": float(vals[i]), "lower": float(lo[i]), "upper": float(hi[i])}
        for i in np.nonzero(bad)[0][:_MAX_RECORDS]
    ]
    return ValidationReport(passed=not violations, samples=len(u), violations=violations)


# ---------------------------------------------------------------------------
# Monotonicity modulus


@dataclass(frozen=True)
class ModulusResult:
    epsilon: float
    value: float
    refinement_bound: float
    coarse_value: float
    fine_value: float
    resolution: float


def _positive_sphere(p: PlanarNorm, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(thetas), np.sin(thetas)
    norms = p.evaluate_many(c, s)
    return c / norms, s / norms


def _modulus_pass(p: PlanarNorm, eps: float, thetas: np.ndarray, fracs: np.ndarray):
    """Minimise 1 - p(y - x) over a (theta, frac) grid.

    theta parametrises y on the positive unit sphere; frac parametrises
    the first coordinate of x over its feasible range [0, min(eps, y1)],
    the second coordinate being recovered by bisection on p(x) = eps.
    """
    y1, y2 = _positive_sphere(p, thetas)
    n_t, n_f = len(thetas), len(fracs)
    x1 = fracs[None, :] * np.minimum(eps, y1)[:, None]
    y1b = np.broadcast_to(y1[:, None], (n_t, n_f))
    y2b = np.broadcast_to(y2[:, None], (n_t, n_f))

    # feasible when the column can reach level eps at x2 <= y2
    top = p.evaluate_many(x1, y2b)
    feasible = top >= eps - 1e-15

    lo = np.zeros((n_t, n_f))
    hi = y2b.copy()
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        val = p.evaluate_many(x1, mid)
        go_up = val < eps
        lo = np.where(go_up, mid, lo)
        hi = np.where(go_up, hi, mid)
    x2 = 0.5 * (lo + hi)

    obj = 1.0 - p.evaluate_many(y1b - x1, y2b - x2)
    obj = np.where(feasible, obj, np.inf)

    # the scaled witness x = eps * y is always feasible and pins delta <= eps
    obj_scaled = 1.0 - p.evaluate_many((1.0 - eps) * y1, (1.0 - eps) * y2)
    obj = np.concatenate([obj, obj_scaled[:, None]], axis=1)

    flat = int(np.argmin(obj))
    i, j = divmod(flat, obj.shape[1])
    return float(obj[i, j]), i, min(j, n_f - 1)


def modulus_diagnostics(p: PlanarNorm, epsilon: float, resolution: float = 1e-3) -> ModulusResult:
    eps = float(epsilon)
    if not (0.0 < eps < 1.0):
        raise DomainError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not (0.0 < resolution <= 0.1):
        raise DomainError(f"resolution must lie in (0, 0.1], got {resolution!r}")

    thetas1 = np.linspace(0.0, _HALF_PI, 129)
    fracs1 = np.linspace(0.0, 1.0, 65)
    v1, i1, _ = _modulus_pass(p, eps, thetas1, fracs1)

    step = thetas1[1] - thetas1[0]
    t_lo = max(0.0, thetas1[i1] - 2.0 * step)
    t_hi = min(_HALF_PI, thetas1[i1] + 2.0 * step)
    n_t = int(np.clip(math.ceil((t_hi - t_lo) / resolution) + 1, 33, 6001))
    n_f = int(np.clip(math.ceil(1.0 / resolution) + 1, 65, 4001))
    thetas2 = np.linspace(t_lo, t_hi, n_t)
    fracs2 = np.linspace(0.0, 1.0, n_f)
    v2, _, _ = _modulus_pass(p, eps, thetas2, fracs2)

    value = max(0.0, min(v1, v2))
    bound = 4.0 * (max(v1 - v2, 0.0) + resolution)
    return ModulusResult(epsilon=eps, value=value, refinement_bound=bound,
                         coarse_value=v1, fine_value=v2, resolution=resolution)


def modulus_of_monotonicity(p: PlanarNorm, epsilon: float, resolution: float = 1e-3) -> float:
    """The monotonicity modulus of (R^2, p) at epsilon, by nested grid search."""
    return modulus_diagnostics(p, epsilon, resolution).value


@dataclass(frozen=True)
class MonotonicityModulusTable:
    epsilons: tuple[float, ...]
    deltas: tuple[float, ...]
    bounds: tuple[float, ...]
    resolution: float

    def __post_init__(self) -> None:
        slack = max(self.bounds) if self.bounds else 0.0
        for e, d in zip(self.epsilons, self.deltas):
            if d < -PLANAR_TOL or d > e + slack + PLANAR_TOL:
                raise DomainError(f"modulus table entry delta({e}) = {d} outside [0, eps]")
        for d0, d1 in zip(self.deltas, self.deltas[1:]):
            if d1 < d0 - slack - PLANAR_TOL:
                raise DomainError("modulus table must be nondecreasing in epsilon")

    @property
    def slack(self) -> float:
        return max(self.bounds) if self.bounds else 0.0

    def floor_value(self, eps: float) -> float:
        """delta at the largest grid point <= eps (0 below the grid).

        Because the modulus is nondecreasing, this never overstates
        delta(eps) by more than the table's grid slack.
        """
        best = 0.0
        for e, d in zip(self.epsilons, self.deltas):
            if e <= eps:
                best = d
            else:
                break
        return best


def build_modulus_table(p: PlanarNorm, epsilons=None, resolution: float = 1e-3) -> MonotonicityModulusTable:
    if epsilons is None:
        epsilons = tuple(np.arange(0.025, 0.9751, 0.025))
    results = [modulus_diagnostics(p, float(e), resolution) for e in epsilons]
    return MonotonicityModulusTable(
        epsilons=tuple(float(e) for e in epsilons),
        deltas=tuple(r.value for r in results),
        bounds=tuple(r.refinement_bound for r in results),
        resolution=resolution,
    )


# ---------------------------------------------------------------------------
# Strictness probes


def is_strictly_increasing_on_ray(p: PlanarNorm) -> bool:
    """True iff u -> p((1, u)) strictly increases across the sampled grid."""
    us = np.linspace(0.0, RAY_U_MAX, RAY_GRID)
    vals = p.evaluate_many(np.ones(RAY_GRID), us)
    return bool(np.all(np.diff(vals) > PLANAR_TOL))


def strictly_monotone_probe(p: PlanarNorm, budget: int = 512, seed: int = 0):
    """Scan for a dominated pair 0 <= x <= y, x != y with p(x) = p(y).

    Returns (True, None) when no flat pair was found, else (False, witness).
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for t in (0.2, 0.5, 0.8):
        pairs.append(((1.0, t), (1.0, 1.0)))
        pairs.append(((t, 1.0), (1.0, 1.0)))
    for _ in range(budget):
        u, v = rng.uniform(0.05, 2.0, 2)
        bump = rng.uniform(0.05, 1.0)
        if rng.random() < 0.5:
            pairs.append(((u, v), (u + bump, v)))
        else:
            pairs.append(((u, v), (u, v + bump)))
    for low, high in pairs:
        if p.evaluate(high) - p.evaluate(low) <= PLANAR_TOL:
            return False, {"low": list(low), "high": list(high),
                           "low_value": p.evaluate(low), "high_value": p.evaluate(high)}
    return True, None
