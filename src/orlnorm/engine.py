"""The norm engine: Luxemburg norm, the lattice-norm-generated family, a
dual-norm lower bound, and the unit-ball bound check.

The generated norm of x is  inf_{k>0} g(k),  g(k) = (1/k) p((1, I(k x))).
f(t) = p((1, I(t x))) is convex and nondecreasing, so g(1/u) = u f(1/u), its
perspective, is convex in u = 1/k and g is unimodal in log k.  The engine
caps k at the finite/+inf jump, taken in closed form from the zero bound of
Phi, brackets the minimum by doubling/halving from k = 1 and polishes with
Brent's method on log k.  The reported value is exactly the best g(k) the
engine evaluated: for a planar "norm" whose ball is not convex, an upper
bound of the infimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .orlicz import OrliczFunction, young_conjugate_many
from .planar import PlanarNorm
from .spaces import SimpleFunction, modular, modular_on_grid

K_CAP = 1e12  # the generated-norm search keeps k <= K_CAP
LUXEMBURG_REL_TOL = 1e-10  # bisection stops at this relative width
LUXEMBURG_LAM_CAP = 1e18  # the Luxemburg norm is +inf when no lambda below this works
GRID_K_LO = 1e-8  # generated_norm_on_grid: GRID_POINTS k on a log grid over [GRID_K_LO, GRID_K_HI]
GRID_K_HI = 1e8
GRID_POINTS = 10_000
LEMMA_TOL = 1e-9  # slack of lemma_bounds_check's two inequalities
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class NormResult:
    value: float
    k_star: float | None
    attained: bool
    bracket: tuple[float, float] | None
    evaluations: int


def luxemburg_norm(phi: OrliczFunction, x: SimpleFunction) -> float:
    """inf { lam > 0 : modular(x / lam) <= 1 }, by predicate bisection.

    Returns +inf when no lambda below LUXEMBURG_LAM_CAP brings the modular
    under 1 (x falls outside the representable space).
    """
    if x.is_zero:
        return 0.0

    def under_one(lam: float) -> bool:
        return modular(phi, x, scale=1.0 / lam) <= 1.0

    hi = 1.0
    while not under_one(hi):
        hi *= 2.0
        if hi > LUXEMBURG_LAM_CAP:
            return math.inf
    lo = hi
    while under_one(lo * 0.5):
        lo *= 0.5
        if lo < 1e-300:
            raise RuntimeError("luxemburg bracketing failed to find a lower end")
    lo *= 0.5
    while hi - lo > LUXEMBURG_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if under_one(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def generated_norm(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction, *,
                   log_tol: float = 1e-11) -> NormResult:
    """Minimise g(k) = (1/k) p((1, modular(k x))) over 0 < k <= K_CAP."""
    if not log_tol > 0.0:
        raise DomainError(f"log_tol must be positive, got {log_tol!r}")
    if x.is_zero:
        return NormResult(0.0, None, False, None, 0)

    # I(k x) = +inf exactly when Phi(k m) > 0: stop at the last k with Phi(k m) = 0
    k_top = K_CAP
    m = max((abs(x.values[i]) for i in x.space.infinite_indices), default=0.0)
    if m > 0.0:
        k_top = min(K_CAP, phi.zero_bound / m)
        while k_top > 0.0 and phi.evaluate(k_top * m) != 0.0:
            k_top = math.nextafter(k_top, 0.0)
        if k_top == 0.0:
            return NormResult(math.inf, None, False, None, 0)

    seen: dict[float, float] = {}
    best_k, best_v = None, math.inf

    def g(k: float) -> float:
        nonlocal best_k, best_v
        if k in seen:
            return seen[k]
        mod = modular(phi, x, scale=k)
        val = math.inf if math.isinf(mod) else p.evaluate((1.0, mod)) / k
        seen[k] = val
        if val < best_v:
            best_v, best_k = val, k
        return val

    # below k_top only double overflow makes g infinite
    k0 = min(1.0, k_top)
    while math.isinf(g(k0)):
        k0 *= 0.5
        if k0 < 1e-300:
            return NormResult(math.inf, None, False, None, len(seen))

    k_hi, v_hi = k0, best_v
    while k_hi < k_top:
        k_hi = min(2.0 * k_hi, k_top)
        v_hi = g(k_hi)
        if math.isinf(v_hi) or v_hi > best_v * (1.0 + 1e-12):
            break
    hit_cap = k_hi >= K_CAP and math.isfinite(v_hi) and best_k >= K_CAP * 0.999

    # convex in 1/k: once doubling improved on g(k0), the minimum lies above k0
    k_lo = k0
    if best_k == k0:
        while k_lo > 1e-300:
            k_lo *= 0.5
            if g(k_lo) > best_v * (1.0 + 1e-12):
                break

    ks = sorted(seen)
    i = ks.index(best_k)
    ka, kb = ks[max(i - 1, 0)], ks[min(i + 1, len(ks) - 1)]
    _brent_log(g, *[(math.log(k), seen[k]) for k in (ka, best_k, kb)], log_tol)
    return NormResult(value=best_v, k_star=best_k, attained=not hit_cap,
                      bracket=(k_lo, k_hi), evaluations=len(seen))


def _brent_log(g, lo: tuple[float, float], best: tuple[float, float],
               hi: tuple[float, float], tol: float) -> None:
    """Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5) on s -> g(e^s) from the bracket lo < best < hi of (s, g) samples,
    until the minimiser is within tol of the best point.  tol is absolute: at
    a kink of g (max norm) the error in the value is linear in the step."""
    (a, fv), (x, fx), (b, fw) = lo, best, hi
    v, w = a, b
    d = e = b - a
    while True:
        xm = 0.5 * (a + b)
        tol1 = 0.5 * tol + _EPS * abs(x)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            return
        parabolic = False
        if a < x < b and abs(e) > tol1 and fw + fv < math.inf:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            pp = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            pp, q = (-pp if q > 0.0 else pp), abs(q)
            parabolic = abs(pp) < abs(0.5 * q * e) and q * (a - x) < pp < q * (b - x)
        if not a < x < b:
            # the best sample ends the bracket (the cap or the jump): one
            # tolerance inward settles a monotone bracket
            d = math.copysign(tol1, xm - x)
        elif parabolic:
            e, d = d, pp / q
            if min(x + d - a, b - x - d) < 2.0 * tol1:
                d = math.copysign(tol1, xm - x)
        else:
            e = (a if x >= xm else b) - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = g(math.exp(u))
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv:
                v, fv = u, fu


def generated_norm_on_grid(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction) -> float:
    """Dense-grid record for g(k); an independent cross-check of the engine."""
    ks = np.geomspace(GRID_K_LO, GRID_K_HI, GRID_POINTS)
    mods = modular_on_grid(phi, x, ks)
    finite = np.isfinite(mods)
    if not np.any(finite):
        return math.inf
    ones = np.ones(int(np.sum(finite)))
    vals = p.evaluate_many(ones, mods[finite]) / ks[finite]
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# Dual (Orlicz) norm: a certified lower bound


def orlicz_dual_norm(phi: OrliczFunction, x: SimpleFunction) -> float:
    """sup { |integral of x*y| : conjugate modular of y <= 1 }, from below.

    The supremum is attained at y = Phi'(k|x|) for the k where the conjugate
    modular of y reaches 1.  By Young's equality Psi(Phi'(u)) = u Phi'(u) -
    Phi(u), that modular is sum w (u Phi'(u) - Phi(u)) with u = k|x|, which
    is nondecreasing in k; the k is found by bracketing and bisection on
    log k, capped at K_CAP.  The certificate y is checked once against the
    exact conjugate and scaled into the dual ball if it lies outside (Psi
    is convex with Psi(0) = 0), so the value is the pairing with a feasible y.
    """
    for i in x.space.infinite_indices:
        if x.values[i] != 0.0:
            raise PreconditionError("dual norm needs x supported on finite atoms")
    if x.is_zero:
        return 0.0

    idx = [i for i in x.support]
    w = np.array([x.space.weights[i] for i in idx])
    ax = np.array([abs(x.values[i]) for i in idx])

    def slope(us: np.ndarray) -> np.ndarray:
        h = 1e-6 * np.maximum(1.0, us)
        with np.errstate(invalid="ignore"):
            out = (phi.evaluate_array(us + h) - phi.evaluate_array(us - h)) / (2.0 * h)
        return np.maximum(np.nan_to_num(out, nan=0.0, posinf=0.0), 0.0)

    def dual_point(k: float) -> tuple[np.ndarray, float]:
        """y = Phi'(k|x|) clipped at the asymptotic slope, and its conjugate
        modular by Young's equality (+inf when not finite: slope maps an
        overflow to 0, which would read as feasible)."""
        us = k * ax
        y = np.minimum(slope(us), phi.slope_limit)
        with np.errstate(invalid="ignore"):
            total = float(np.sum(w * (us * y - phi.evaluate_array(us))))
        return y, total if math.isfinite(total) else math.inf

    def feasible(k: float) -> bool:
        return dual_point(k)[1] <= 1.0

    lo = hi = 1.0
    while hi < K_CAP and feasible(hi):
        lo, hi = hi, min(2.0 * hi, K_CAP)
    while not feasible(lo):
        lo, hi = 0.5 * lo, lo
    s_lo, s_hi = math.log(lo), math.log(hi)
    for _ in range(60):
        mid = 0.5 * (s_lo + s_hi)
        if feasible(math.exp(mid)):
            s_lo = mid
        else:
            s_hi = mid
    y = dual_point(math.exp(s_lo))[0]

    exact = float(np.sum(w * young_conjugate_many(phi, y)))
    if exact > 1.0:
        y = y / (exact * (1.0 + 1e-12))  # the margin absorbs rounding in Psi
    return float(np.sum(w * ax * y))


# ---------------------------------------------------------------------------
# Unit-ball bounds for elements pinned to the ball boundary


@dataclass(frozen=True)
class LemmaBounds:
    norm: float
    modular_value: float
    lower_ok: bool
    upper_ok: bool


def lemma_bounds_check(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction) -> LemmaBounds:
    """For x with finite modular but infinite modular at every scale > 1,
    check 1 <= generated norm <= 1 + modular(x)."""
    m = modular(phi, x)
    if math.isinf(m):
        raise PreconditionError("modular of x must be finite")
    if math.isfinite(modular(phi, x, scale=1.0 + 1e-6)):
        raise PreconditionError("x must have an infinite modular at every scale above 1")
    r = generated_norm(phi, p, x)
    return LemmaBounds(norm=r.value, modular_value=m,
                       lower_ok=r.value >= 1.0 - LEMMA_TOL,
                       upper_ok=r.value <= 1.0 + m + LEMMA_TOL)
