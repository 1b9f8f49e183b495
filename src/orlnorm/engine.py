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

K_CAP = 1e12
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = 2.0 ** -52


@dataclass(frozen=True)
class NormResult:
    value: float
    k_star: float | None
    attained: bool
    bracket: tuple[float, float] | None
    evaluations: int


def luxemburg_norm(phi: OrliczFunction, x: SimpleFunction, rel_tol: float = 1e-10,
                   lam_cap: float = 1e18) -> float:
    """inf { lam > 0 : modular(x / lam) <= 1 }, by predicate bisection.

    Returns +inf when no lambda below the cap brings the modular under 1
    (x falls outside the representable space).
    """
    if x.is_zero:
        return 0.0

    def under_one(lam: float) -> bool:
        m = modular(phi, x, scale=1.0 / lam)
        return m.is_finite and m.value <= 1.0

    hi = 1.0
    while not under_one(hi):
        hi *= 2.0
        if hi > lam_cap:
            return math.inf
    lo = hi
    while under_one(lo * 0.5):
        lo *= 0.5
        if lo < 1e-300:
            raise RuntimeError("luxemburg bracketing failed to find a lower end")
    lo *= 0.5
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if under_one(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def generated_norm(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction, *,
                   log_tol: float = 1e-11, k_hints: tuple[float, ...] = (),
                   k_cap: float = K_CAP) -> NormResult:
    """Minimise g(k) = (1/k) p((1, modular(k x))) over 0 < k <= k_cap."""
    if not log_tol > 0.0:
        raise DomainError(f"log_tol must be positive, got {log_tol!r}")
    if x.is_zero:
        return NormResult(0.0, None, False, None, 0)

    # I(k x) = +inf exactly when Phi(k m) > 0: stop at the last k with Phi(k m) = 0
    k_top = k_cap
    m = max((abs(x.values[i]) for i in x.space.infinite_indices), default=0.0)
    if m > 0.0:
        k_top = min(k_cap, phi.zero_bound / m)
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
        val = math.inf if mod.is_infinite else p.evaluate((1.0, mod.value)) / k
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
    hit_cap = k_hi >= k_cap and math.isfinite(v_hi) and best_k >= k_cap * 0.999

    # convex in 1/k: once doubling improved on g(k0), the minimum lies above k0
    k_lo = k0
    if best_k == k0:
        while k_lo > 1e-300:
            k_lo *= 0.5
            if g(k_lo) > best_v * (1.0 + 1e-12):
                break
    for hint in [h for h in k_hints if 0.0 < h <= k_top]:
        g(float(hint))

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


def generated_norm_on_grid(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction,
                           k_lo: float = 1e-8, k_hi: float = 1e8,
                           points: int = 10_000) -> float:
    """Dense-grid record for g(k); an independent cross-check of the engine."""
    ks = np.geomspace(k_lo, k_hi, points)
    mods = modular_on_grid(phi, x, ks)
    finite = np.isfinite(mods)
    if not np.any(finite):
        return math.inf
    ones = np.ones(int(np.sum(finite)))
    vals = p.evaluate_many(ones, mods[finite]) / ks[finite]
    return float(np.min(vals))


# ---------------------------------------------------------------------------
# Dual (Orlicz) norm: a certified lower bound


def orlicz_dual_norm(phi: OrliczFunction, x: SimpleFunction, *,
                     k_points: int = 33, polish_rounds: int = 2,
                     table_points: int = 2048, v_max: float = 1e6) -> float:
    """sup { |integral of x*y| : conjugate modular of y <= 1 }, from below.

    Searches rays y = t*d over subgradient-flavoured directions d, then
    polishes coordinatewise.  Feasibility during the search uses a chord
    table of the Young conjugate (chords of a convex function overestimate,
    so the search never steps outside the true dual ball); the final
    certificate is checked against the exact conjugate.
    """
    for i in x.space.infinite_indices:
        if x.values[i] != 0.0:
            raise PreconditionError("dual norm needs x supported on finite atoms")
    if x.is_zero:
        return 0.0

    idx = [i for i in x.support]
    w = np.array([x.space.weights[i] for i in idx])
    ax = np.array([abs(x.values[i]) for i in idx])

    v_nodes = np.concatenate(([0.0], np.geomspace(1e-9, v_max, table_points)))
    conj_nodes = young_conjugate_many(phi, v_nodes)
    finite_mask = np.isfinite(conj_nodes)
    v_tab = v_nodes[finite_mask]
    c_tab = conj_nodes[finite_mask]

    def conj_chord(ys: np.ndarray) -> np.ndarray:
        out = np.interp(ys, v_tab, c_tab)
        return np.where(ys > v_tab[-1], math.inf, out)

    def table_modular(ys: np.ndarray) -> float:
        return float(np.sum(w * conj_chord(ys)))

    def ray_level(d: np.ndarray) -> float:
        """Largest t with the chord-table conjugate modular of t*d <= 1;
        0 when no feasible scale was found."""
        t = 1.0
        if table_modular(t * d) <= 1.0:
            while table_modular(2.0 * t * d) <= 1.0 and t < 1e12:
                t *= 2.0
        else:
            while table_modular(t * d) > 1.0:
                t *= 0.5
                if t < 1e-15:
                    return 0.0
        lo, hi = t, 2.0 * t
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if table_modular(mid * d) <= 1.0:
                lo = mid
            else:
                hi = mid
        return lo

    def slope(us: np.ndarray) -> np.ndarray:
        h = 1e-6 * np.maximum(1.0, us)
        with np.errstate(invalid="ignore"):
            out = (phi.evaluate_array(us + h) - phi.evaluate_array(us - h)) / (2.0 * h)
        return np.maximum(np.nan_to_num(out, nan=0.0, posinf=0.0), 0.0)

    directions = [ax.copy()]
    for k in np.geomspace(1e-6, 1e6, k_points):
        d = slope(k * ax)
        top = float(np.max(d))
        if top > 0.0 and math.isfinite(top):
            directions.append(d / top)

    best_val, best_y = 0.0, np.zeros_like(ax)
    for d in directions:
        t = ray_level(d)
        y = t * d
        val = float(np.sum(w * ax * y))
        if math.isfinite(val) and val > best_val and table_modular(y) <= 1.0:
            best_val, best_y = val, y

    y = best_y
    for _ in range(polish_rounds):
        for i in range(len(idx)):
            if ax[i] == 0.0:
                continue
            others = float(np.sum(np.delete(w * conj_chord(y), i)))
            budget = 1.0 - others
            if budget <= 0.0:
                continue
            lo, hi = 0.0, max(1.0, 2.0 * y[i])
            while w[i] * float(conj_chord(np.array([hi]))[0]) <= budget and hi < 1e12:
                hi *= 2.0
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if w[i] * float(conj_chord(np.array([mid]))[0]) <= budget:
                    lo = mid
                else:
                    hi = mid
            y[i] = max(y[i], lo)

    # exact feasibility of the certificate
    exact = float(np.sum(w * young_conjugate_many(phi, y)))
    if exact > 1.0:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(np.sum(w * young_conjugate_many(phi, mid * y))) <= 1.0:
                lo = mid
            else:
                hi = mid
        y = lo * (1.0 - 1e-9) * y
    return float(np.sum(w * ax * y))


# ---------------------------------------------------------------------------
# Unit-ball bounds for elements pinned to the ball boundary


@dataclass(frozen=True)
class LemmaBounds:
    norm: float
    modular_value: float
    lower_ok: bool
    upper_ok: bool


def lemma_bounds_check(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction,
                       tol: float = 1e-9) -> LemmaBounds:
    """For x with finite modular but infinite modular at every scale > 1,
    check 1 <= generated norm <= 1 + modular(x)."""
    m = modular(phi, x)
    if m.is_infinite:
        raise PreconditionError("modular of x must be finite")
    m_up = modular(phi, x, scale=1.0 + 1e-6)
    if not m_up.is_infinite:
        raise PreconditionError("x must have an infinite modular at every scale above 1")
    r = generated_norm(phi, p, x, k_hints=(1.0,))
    return LemmaBounds(norm=r.value, modular_value=m.value,
                       lower_ok=r.value >= 1.0 - tol,
                       upper_ok=r.value <= 1.0 + m.value + tol)
