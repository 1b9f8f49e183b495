"""Orlicz functions: catalog, zero set, growth analysis and Young conjugation.

An Orlicz function is an even convex Phi with Phi(0) = 0 that is not
identically zero.  The catalog kinds are

    power(q)                |u|^q                     (q >= 1)
    exp_minus()             e^|u| - |u| - 1
    flat_then_power(a, q)   max(0, |u| - a)^q         (a > 0, q >= 1)
    piecewise_linear(pts)   convex polyline through pts, extended linearly

Values beyond double range evaluate to +inf; the modular layer treats that
as an honest "too large to represent" and the growth analysis below never
mistakes it for a finite number.

Two cached analysis numbers ride on each function: ``zero_bound``, the
largest u with Phi(u) = 0, and ``slope_limit``, the limit of Phi(u)/u
estimated on dyadic probes u = 2^j (j <= 60) and flagged infinite once the
ratio passes 1e12.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError

SLOPE_DIVERGENCE = 1e12
DELTA2_FAIL_RATIO = 1e8
DELTA2_LO_EXP = -40.0  # the doubling grid: 2^[lo, hi], DELTA2_PER_OCTAVE points per octave
DELTA2_HI_EXP = 40.0
DELTA2_PER_OCTAVE = 4
CONJUGATE_U_MAX = 2.0 ** 40  # the Young conjugate's grid: 0 and a log grid up to here
CONJUGATE_GRID_POINTS = 400
CONJUGATE_REFINE_ITERS = 90  # golden-section steps around the grid maximum


@dataclass(frozen=True)
class OrliczFunction:
    kind: str  # "power" | "exp_minus" | "flat_then_power" | "pwl"
    q: float = math.nan
    a: float = math.nan
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()
    zero_bound: float = 0.0     # largest u >= 0 with Phi(u) = 0
    slope_limit: float = math.inf  # lim Phi(u)/u, +inf when divergent

    def evaluate(self, u: float) -> float:
        au = abs(u)
        if not math.isfinite(au):
            raise DomainError(f"non-finite argument {u!r}")
        return self._eval_abs(au)

    __call__ = evaluate

    def _eval_abs(self, au: float) -> float:
        """Phi(au) for a finite au >= 0, unchecked."""
        k = self.kind
        if k == "power":
            try:
                return au ** self.q
            except OverflowError:
                return math.inf
        if k == "exp_minus":
            if au < 1e-5:
                return au * au * (0.5 + au * (1.0 / 6.0 + au / 24.0))
            try:
                return math.expm1(au) - au
            except OverflowError:
                return math.inf
        if k == "flat_then_power":
            t = au - self.a
            if t <= 0.0:
                return 0.0
            try:
                return t ** self.q
            except OverflowError:
                return math.inf
        return self._eval_pwl(au)

    def _eval_pwl(self, au: float) -> float:
        xs, ys = self.xs, self.ys
        if au >= xs[-1]:
            return ys[-1] + self._tail_slope() * (au - xs[-1])
        i = bisect_right(xs, au)
        x0, x1 = xs[i - 1], xs[i]
        t = (au - x0) / (x1 - x0)
        return ys[i - 1] * (1.0 - t) + ys[i] * t

    def _tail_slope(self) -> float:
        return (self.ys[-1] - self.ys[-2]) / (self.xs[-1] - self.xs[-2])

    def evaluate_array(self, u: np.ndarray) -> np.ndarray:
        au = np.abs(np.asarray(u, dtype=float))
        k = self.kind
        with np.errstate(over="ignore", invalid="ignore"):
            if k == "power":
                return au ** self.q
            if k == "exp_minus":
                small = au < 1e-5
                series = au * au * (0.5 + au * (1.0 / 6.0 + au / 24.0))
                big = np.where(small, 0.0, au)
                return np.where(small, series, np.expm1(big) - big)
            if k == "flat_then_power":
                t = np.maximum(0.0, au - self.a)
                return t ** self.q
            out = np.interp(au, self.xs, self.ys)
            tail = au >= self.xs[-1]
            if np.any(tail):
                out = np.where(tail, self.ys[-1] + self._tail_slope() * (au - self.xs[-1]), out)
            return out

    @property
    def label(self) -> str:
        if self.kind == "power":
            return f"power:{self.q:g}"
        if self.kind == "flat_then_power":
            return f"flat_then_power:{self.a:g},{self.q:g}"
        if self.kind == "pwl":
            return f"pwl[{len(self.xs)}]"
        return self.kind

    def descriptor(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "q": self.q}
        if self.kind == "flat_then_power":
            return {"kind": "flat_then_power", "a": self.a, "q": self.q}
        if self.kind == "pwl":
            return {"kind": "pwl", "points": [[x, y] for x, y in zip(self.xs, self.ys)]}
        return {"kind": self.kind}


def _asymptotic_slope(f) -> float:
    """Estimate lim Phi(u)/u on dyadic probes; +inf past the divergence cap."""
    ratio = 0.0
    for j in range(61):
        u = 2.0 ** j
        val = f(u)
        if math.isinf(val):
            return math.inf
        ratio = val / u
        if ratio > SLOPE_DIVERGENCE:
            return math.inf
    return ratio


def _finish(kind: str, zero_bound: float, **params) -> OrliczFunction:
    probe = OrliczFunction(kind, **params)
    return replace(probe, zero_bound=zero_bound, slope_limit=_asymptotic_slope(probe.evaluate))


def power(q: float) -> OrliczFunction:
    q = float(q)
    if not math.isfinite(q) or q < 1.0:
        raise DomainError(f"power kind needs finite q >= 1, got {q!r}")
    return _finish("power", 0.0, q=q)


def exp_minus() -> OrliczFunction:
    return _finish("exp_minus", 0.0)


def flat_then_power(a: float, q: float) -> OrliczFunction:
    a, q = float(a), float(q)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"flat_then_power needs a > 0, got {a!r}")
    if not math.isfinite(q) or q < 1.0:
        raise DomainError(f"flat_then_power needs q >= 1, got {q!r}")
    return _finish("flat_then_power", a, a=a, q=q)


def piecewise_linear(points) -> OrliczFunction:
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 2:
        raise DomainError("piecewise linear kind needs at least two points")
    xs = tuple(x for x, _ in pts)
    ys = tuple(y for _, y in pts)
    if xs[0] != 0.0 or ys[0] != 0.0:
        raise DomainError("piecewise linear kind must start at (0, 0)")
    if any(b - a <= 0.0 for a, b in zip(xs, xs[1:])):
        raise DomainError("breakpoint abscissae must be strictly increasing")
    if any(y < 0.0 or not math.isfinite(y) for y in ys):
        raise DomainError("breakpoint values must be finite and nonnegative")
    slopes = [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(pts, pts[1:])]
    if any(s1 < s0 - 1e-12 for s0, s1 in zip(slopes, slopes[1:])):
        raise DomainError("breakpoints must describe a convex function")
    if slopes[0] < -1e-12:
        raise DomainError("an even convex function cannot decrease on [0, inf)")
    if max(ys) == 0.0 and slopes[-1] <= 0.0:
        raise DomainError("the zero function is not an Orlicz function")
    # Phi vanishes exactly on [0, xs[i-1]] for the first i with ys[i] > 0
    first_positive = next(i for i, y in enumerate(ys) if y > 0.0)
    return _finish("pwl", xs[first_positive - 1], xs=xs, ys=ys)


def orlicz_from_descriptor(d: dict) -> OrliczFunction:
    kind = d.get("kind")
    if kind == "power":
        return power(d["q"])
    if kind == "exp_minus":
        return exp_minus()
    if kind == "flat_then_power":
        return flat_then_power(d["a"], d["q"])
    if kind == "pwl":
        return piecewise_linear(d["points"])
    raise DomainError(f"unknown Orlicz descriptor {d!r}")


# ---------------------------------------------------------------------------
# Doubling condition


REGIME_ZERO = "zero"
REGIME_INFINITY = "infinity"
REGIME_GLOBAL = "global"
_REGIMES = (REGIME_ZERO, REGIME_INFINITY, REGIME_GLOBAL)


@dataclass(frozen=True)
class Delta2Report:
    regime: str
    holds: bool
    constant: float | None
    witness_u: float | None
    witness_ratio: float | None
    sample_spec: str


def delta2_check(phi: OrliczFunction, regime: str) -> Delta2Report:
    """Grid-relative doubling verdict: Phi(2u) <= K Phi(u) on the regime's
    sampled range, with failure declared when the ratio passes 1e8 or when
    Phi(u) = 0 < Phi(2u) somewhere in range.

    The verdict is relative to the declared log-uniform grid; the "zero"
    regime covers grid points u <= 1 and the "infinity" regime the points
    u > 1, so the global verdict is exactly the conjunction of the two.
    """
    if regime not in _REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    exps = np.arange(DELTA2_LO_EXP, DELTA2_HI_EXP + 0.5 / DELTA2_PER_OCTAVE,
                     1.0 / DELTA2_PER_OCTAVE)
    us = 2.0 ** exps
    if regime == REGIME_ZERO:
        us = us[us <= 1.0]
    elif regime == REGIME_INFINITY:
        us = us[us > 1.0]
    spec = (f"log grid 2^[{DELTA2_LO_EXP}, {DELTA2_HI_EXP}], {DELTA2_PER_OCTAVE}/octave, "
            f"regime {regime}")

    fu = phi.evaluate_array(us)
    f2u = phi.evaluate_array(2.0 * us)

    zero_break = (fu == 0.0) & (f2u > 0.0)
    if np.any(zero_break):
        i = int(np.argmax(zero_break))
        return Delta2Report(regime, False, None, float(us[i]), math.inf, spec)

    # points where Phi(u) itself overflows carry no ratio information
    pos = (fu > 0.0) & np.isfinite(fu)
    if not np.any(pos):
        return Delta2Report(regime, True, 1.0, None, None, spec)
    ratios = np.where(pos, f2u / np.where(pos, fu, 1.0), 0.0)
    over = ratios > DELTA2_FAIL_RATIO
    if np.any(over):
        i = int(np.argmax(over))
        return Delta2Report(regime, False, None, float(us[i]), float(ratios[i]), spec)
    k = float(np.max(ratios)) * (1.0 + 1e-9)
    return Delta2Report(regime, True, k, None, None, spec)


# ---------------------------------------------------------------------------
# Young conjugate


def _concave_refine(phi: OrliczFunction, vs: np.ndarray, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Golden-section maximum of u -> v*u - Phi(u) on [lo, hi], per element."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo.copy(), hi.copy()
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc = vs * c - phi.evaluate_array(c)
    fd = vs * d - phi.evaluate_array(d)
    for _ in range(CONJUGATE_REFINE_ITERS):
        left = fc >= fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_new = b - inv * (b - a)
        d_new = a + inv * (b - a)
        fc = vs * c_new - phi.evaluate_array(c_new)
        fd = vs * d_new - phi.evaluate_array(d_new)
        c, d = c_new, d_new
    mid = 0.5 * (a + b)
    return np.maximum(vs * mid - phi.evaluate_array(mid), 0.0)


def young_conjugate_many(phi: OrliczFunction, vs) -> np.ndarray:
    """sup_{u >= 0} (|v| u - Phi(u)) for an array of v, +inf where divergent."""
    av = np.abs(np.asarray(vs, dtype=float))
    us = np.concatenate(([0.0], np.geomspace(1e-12, CONJUGATE_U_MAX, CONJUGATE_GRID_POINTS)))
    fus = phi.evaluate_array(us)
    h = av[:, None] * us[None, :]
    h -= fus[None, :]  # in place: h is len(vs) x 401
    h[np.isnan(h)] = -math.inf
    idx = np.argmax(h, axis=1)

    top = idx == len(us) - 1
    divergent = top & (av > phi.slope_limit * (1.0 + 1e-9))

    lo = us[np.maximum(idx - 1, 0)]
    hi = us[np.minimum(idx + 1, len(us) - 1)]
    refined = _concave_refine(phi, av, lo, hi)
    coarse = np.maximum(h[np.arange(len(av)), idx], 0.0)
    out = np.maximum(refined, coarse)
    return np.where(divergent, math.inf, out)


def young_conjugate(phi: OrliczFunction, v: float) -> float:
    """Young conjugate value at v, in [0, +inf]: grid supremum refined
    locally, +inf when the supremum still grows at CONJUGATE_U_MAX and |v|
    exceeds the asymptotic slope."""
    return float(young_conjugate_many(phi, [v])[0])


# ---------------------------------------------------------------------------
# Strict convexity probe


@dataclass(frozen=True)
class ConvexityProbe:
    strictly_convex: bool
    witness: tuple[float, float] | None
    gap: float | None = None


def strict_convexity_probe(phi: OrliczFunction, sample_budget: int = 512,
                           seed: int = 0) -> ConvexityProbe:
    """Search for a midpoint equality Phi((u1+u2)/2) = (Phi(u1)+Phi(u2))/2
    with u1 != u2; finding one disproves strict convexity."""
    if sample_budget < 1:
        raise DomainError("sample_budget must be >= 1")
    rng = np.random.default_rng(seed)
    candidates: list[tuple[float, float]] = []
    a = phi.zero_bound
    if a > 0.0:
        candidates += [(0.25 * a, 0.75 * a), (-0.5 * a, 0.5 * a)]
    if phi.kind == "pwl":
        for x0, x1 in zip(phi.xs, phi.xs[1:]):
            candidates.append((x0 + 0.25 * (x1 - x0), x0 + 0.75 * (x1 - x0)))
        candidates.append((phi.xs[-1] + 0.5, phi.xs[-1] + 1.5))
    scale = max(4.0, 2.0 * a, 1.5 * (phi.xs[-1] if phi.xs else 0.0))
    for _ in range(sample_budget):
        u1, u2 = rng.uniform(-scale, scale, 2)
        if abs(u1 - u2) >= 1e-3 * scale:
            candidates.append((float(u1), float(u2)))
    for u1, u2 in candidates:
        mid = phi.evaluate(0.5 * (u1 + u2))
        avg = 0.5 * (phi.evaluate(u1) + phi.evaluate(u2))
        gap = avg - mid
        if gap <= 1e-12 * max(1.0, avg):
            return ConvexityProbe(False, (u1, u2), gap)
    return ConvexityProbe(True, None, None)
