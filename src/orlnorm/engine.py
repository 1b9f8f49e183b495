"""The norm engine: Luxemburg norm, the lattice-norm-generated family, a
dual-norm lower bound, and the unit-ball bound check.

The generated norm of x is  inf_{k>0} g(k),  g(k) = (1/k) p((1, I(k x))).
f(t) = p((1, I(t x))) is convex and nondecreasing, so g(1/u) = u f(1/u), its
perspective, is convex in u = 1/k and g is unimodal in log k.

The engine first finds the Luxemburg point k_L, where I(k_L x) = 1, with
Brent's zeroin on log I(e^s x), s = log k.  One sample brackets it, because
I(kx)/k is nondecreasing.  k stays below the finite/+inf jump, taken in
closed form from the zero bound of Phi, and below K_CAP k_L; the search is
homogeneous in x.  Under the max norm k_L is the minimiser and the search
ends there.  Otherwise p >= max gives k* >= k_L / p((1,1)), and Brent's
method on log k, seeded with the root's samples, stops when the minimiser
is within log_tol of the best sample or when convexity certifies the best
value within GAP_REL_TOL of the infimum.  A 6-atom call takes about 9
evaluations.  The reported value is exactly the best g(k) the engine
evaluated: for a planar "norm" whose ball is not convex, an upper bound of
the infimum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError
from .orlicz import OrliczFunction, young_conjugate_many
from .planar import PlanarNorm
from .spaces import SimpleFunction, modular, modular_of, modular_on_grid

K_CAP = 1e12  # the generated-norm and dual-norm searches keep k <= K_CAP * k_L (I(k_L x) = 1)
ROOT_LOG_TOL = 1e-2  # width in log k of the Luxemburg root that seeds Brent (p not max)
DUAL_LOG_TOL = 2e-4  # width in log k of the dual norm's root bracket before one secant step
GAP_REL_TOL = 1e-13  # Brent stops once convexity bounds the infimum this close to g
LUXEMBURG_LOG_TOL = 1e-11  # width in log k of luxemburg_norm's root bracket
GRID_K_LO = 1e-8  # generated_norm_on_grid: GRID_POINTS k on a log grid over [GRID_K_LO, GRID_K_HI]
GRID_K_HI = 1e8
GRID_POINTS = 10_000
LEMMA_TOL = 1e-9  # slack of lemma_bounds_check's two inequalities
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = 2.0 ** -52
_LN2 = math.log(2.0)
_LOG_TINY = math.log(1e-300)
_LOG_K_CAP = math.log(K_CAP)


@dataclass(frozen=True)
class NormResult:
    value: float
    k_star: float | None
    attained: bool
    bracket: tuple[float, float] | None
    evaluations: int


def luxemburg_norm(phi: OrliczFunction, x: SimpleFunction) -> float:
    """inf { lam > 0 : modular(x / lam) <= 1 } = 1 / k_L: one over the end of
    luxemburg_root's bracket where I(kx) <= 1, capped at the finite/+inf
    jump.  +inf when the modular of x / lam is +inf for every lam (x nonzero
    on an infinite atom, Phi vanishing only at 0) or the norm overflows."""
    modular_at = modular_of(phi, x)
    if modular_at.top == 0.0:
        return 0.0
    s_start, s_top = log_k_span(modular_at.top)
    top = _jump_top(phi, modular_at.top_inf, s_top)
    if top is None:
        return math.inf
    k_top, s_top, _ = top
    lo, _ = luxemburg_root(lambda s: modular_at(min(math.exp(s), k_top)), phi,
                           modular_at.top_finite, min(s_start, s_top), s_top, LUXEMBURG_LOG_TOL)
    k = min(math.exp(lo), k_top)
    return 1.0 / k if k > 0.0 else math.inf


def _jump_top(phi: OrliczFunction, m: float,
              s_top: float) -> tuple[float, float, bool] | None:
    """(k_top, s_top, open_top): the cap e^s_top on k, lowered to the finite/+inf
    jump where lower (open_top false there), or None when I(k x) = +inf for all
    k > 0.  I(k x) = +inf exactly when Phi(k m) > 0, m = max|x| on infinite atoms."""
    k_top, open_top = math.exp(s_top), True
    if m > 0.0:
        k_jump = phi.zero_bound / m
        while k_jump > 0.0 and phi.evaluate(k_jump * m) != 0.0:
            k_jump = math.nextafter(k_jump, 0.0)
        if k_jump == 0.0:
            return None
        if k_jump < k_top:
            k_top, s_top, open_top = k_jump, math.log(k_jump), False
    return k_top, s_top, open_top


def generated_norm(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction, *,
                   log_tol: float = 1e-11) -> NormResult:
    """Minimise g(k) = (1/k) p((1, modular(k x))) over 0 < k <= K_CAP * k_L,
    k_L the Luxemburg point I(k_L x) = 1, and below the finite/+inf jump.

    ``bracket`` is an interval of k known to hold the minimiser; ``attained``
    is false when the best k sits at the K_CAP * k_L cap with no jump below
    it (the infimum is approached as k grows).
    """
    if not log_tol > 0.0:
        raise DomainError(f"log_tol must be positive, got {log_tol!r}")
    modular_at = modular_of(phi, x)
    if modular_at.top == 0.0:
        return NormResult(0.0, None, False, None, 0)

    s_start, s_top = log_k_span(modular_at.top)
    top = _jump_top(phi, modular_at.top_inf, s_top)
    if top is None:
        return NormResult(math.inf, None, False, None, 0)
    k_top, s_top, open_top = top  # open_top: false while s_top is the jump

    def k_of(s: float) -> float:
        return k_top if s >= s_top else min(math.exp(s), k_top)

    p_abs = p._eval_abs
    seen: dict[float, float] = {}  # g by s = log k: exp(log k) need not give k back
    best_s, best_v = s_top, math.inf

    def sample(s: float) -> float:
        """Record g at s = log k and return I(k x)."""
        nonlocal best_s, best_v
        k = k_of(s)
        mod = modular_at(k)
        val = math.inf if math.isinf(mod) else p_abs(1.0, mod) / k
        seen[s] = val
        if val < best_v:
            best_v, best_s = val, s
        return mod

    p11 = p_abs(1.0, 1.0)
    lo, hi = luxemburg_root(sample, phi, modular_at.top_finite, min(s_start, s_top), s_top,
                            log_tol if p11 == 1.0 else ROOT_LOG_TOL)
    if hi not in seen:
        sample(hi)
    if math.isinf(best_v):
        return NormResult(math.inf, None, False, None, len(seen))
    s_cap = max(lo + _LOG_K_CAP, max(seen))
    if s_cap < s_top:
        s_top, k_top, open_top = s_cap, math.exp(s_cap), True
    if p11 != 1.0:
        # p >= max gives g(k) >= 1/k, so k* >= k_L / p((1,1)); under the max
        # norm (p((1,1)) = 1) the Luxemburg point k_L is the minimiser itself
        lo, hi = _minimise(sample, seen, best_s, min(lo - math.log(p11), best_s), s_top,
                           log_tol)
    best_k = k_of(best_s)
    # g is convex in 1/k: if best_s lies outside (lo, hi), g is least all the way between
    return NormResult(value=best_v, k_star=best_k,
                      attained=not (open_top and best_k >= 0.999 * k_top),
                      bracket=(k_of(min(lo, best_s)), k_of(max(hi, best_s))),
                      evaluations=len(seen))


def log_k_span(top: float) -> tuple[float, float]:
    """(s_start, s_top) in s = log k for x with top = max|x| > 0: the searches are
    homogeneous, starting at k = 1 / max|x|; up to s_top, k and k max|x| stay below 1e300."""
    s_start = -math.log(top)
    return s_start, min(s_start, 0.0) - _LOG_TINY


def luxemburg_root(sample, phi: OrliczFunction, top_finite: float, s: float, s_top: float,
                   tol: float) -> tuple[float, float]:
    """Bracket (lo, hi) in s = log k, of width at most about tol, of the
    Luxemburg point I(e^s x) = 1, searched from s up to s_top; (s_top,
    s_top) when I <= 1 up to there (s_top possibly not sampled).  sample(s)
    returns I(e^s x); top_finite is max|x| on the finite atoms.

    I(kx)/k is nondecreasing (Phi is convex with Phi(0) = 0), so one sample
    I(e^s x) = i brackets the root between s and s - log i."""
    s_floor = max(s, 0.0) + _LOG_TINY  # k and k max|x| stay above 1e-300
    i = sample(s)
    while math.isinf(i):  # below the jump only double overflow makes I infinite
        s -= _LN2
        if s < s_floor:
            return s, s
        i = sample(s)
    low = -math.inf  # I = 0 at low
    if i == 0.0:
        # Phi vanishes on [0, zero_bound]: start where the finite support leaves it
        if top_finite == 0.0:
            s = s_top
        elif phi.zero_bound > 0.0:
            s = min(max(s, math.log(phi.zero_bound / top_finite)), s_top)
        while i == 0.0 and s < s_top:
            low, s = s, min(s + _LN2, s_top)
            i = sample(s)
        if i == 0.0:
            return s, s

    def log_modular(t: float) -> float:
        mod = sample(t)
        return math.log(mod) if mod > 0.0 else -math.inf

    f = math.log(i)
    other = max(s - f, low) if f > 0.0 else min(s - f, s_top)
    if other == s:  # I = 1 at s, or I < 1 at s_top
        return s, s
    f_other = -math.inf if other == low else log_modular(other)
    if (f_other > 0.0) == (f > 0.0):  # the root lies at s_top, or at other up to rounding
        return other, other
    return _zeroin(log_modular, s, f, other, f_other, tol)


def _zeroin(f, a: float, fa: float, b: float, fb: float, tol: float) -> tuple[float, float]:
    """Brent's zeroin (Algorithms for Minimization without Derivatives, 1973,
    ch. 4) from a sign change of the nondecreasing f between a and b:
    returns the final bracket (lower, upper) of the root, f <= 0 at lower,
    of width at most tol + 4 eps |s|.  An infinite f (I = 0, or an
    overflow) forces bisection."""
    c, fc = a, fa
    d = e = b - a
    while True:
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return (b, c) if fb <= 0.0 else (c, b)
        if abs(e) >= tol1 and abs(fa) > abs(fb) and math.isfinite(fa + fc):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def _minimise(sample, seen: dict[float, float], x: float, a: float, s_top: float,
              tol: float) -> tuple[float, float]:
    """Brent's method on s -> g(e^s) over [a, s_top] from the samples taken
    so far, x the best; returns the final bracket of the minimiser."""

    def g(s: float) -> float:
        if s not in seen:
            sample(s)
        return seen[s]

    # g is unimodal in s: while no sample lies above the best, step up with
    # doubling steps until g rises or the cap is reached
    step = 1.0
    while x < s_top and x == max(seen):
        g(min(x + step, s_top))
        x = min(seen, key=seen.__getitem__)
        step *= 2.0
    below = [s for s in seen if s < x]
    above = [s for s in seen if s > x]
    if below and max(below) >= a:
        a = max(below)
    b = min(above) if above else s_top
    # the parabola's first points: x's neighbours, or its two nearest samples
    if below and above:
        v, w = max(below), min(above)
    else:
        v, w = (sorted(below or above, key=lambda s: abs(s - x)) + [x, x])[:2]
    return _brent_log(g, a, seen.get(a, math.inf), b, seen.get(b, math.inf),
                      x, seen[x], v, seen[v], w, seen[w], tol)


def _brent_log(g, a: float, fa: float, b: float, fb: float, x: float, fx: float,
               v: float, fv: float, w: float, fw: float, tol: float) -> tuple[float, float]:
    """Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5) on s -> g(e^s) over the bracket [a, b] with x the best sample and
    v, w the two next (a and b need not be samples: fa, fb are then +inf).
    Stops when the minimiser is within tol of x (absolute: at a kink of g
    the error in the value is linear in the step), or when the samples
    L < x < R nearest x certify g(x) within GAP_REL_TOL of the infimum:
    in u = 1/k, g(1/u) is convex, so below x it stays above the extension
    of the chord (x, R), and above x above that of (L, x)."""
    d = e = b - a
    while True:
        xm = 0.5 * (a + b)
        tol1 = 0.5 * tol + _EPS * abs(x)
        if abs(x - xm) <= 2.0 * tol1 - 0.5 * (b - a):
            return a, b
        lo, flo, hi, fhi = a, fa, b, fb
        for s, fs in ((v, fv), (w, fw)):
            if lo < s < x:
                lo, flo = s, fs
            elif x < s < hi:
                hi, fhi = s, fs
        if flo + fhi < math.inf:
            ul, ux, uh = math.exp(-lo), math.exp(-x), math.exp(-hi)
            if ul > ux > uh and GAP_REL_TOL * fx >= max(
                    (flo - fx) * (ux - uh) / (ul - ux), (fhi - fx) * (ul - ux) / (ux - uh)):
                return a, b
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
            # the nearest sample across x is already flat to GAP_REL_TOL:
            # its mirror image can complete the certificate
            across, f_across = (hi - x, fhi) if e < 0.0 else (x - lo, flo)
            if across < abs(d) and f_across - fx <= GAP_REL_TOL * fx:
                d = math.copysign(across, e)
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = g(u)
        if fu < fx:  # a tie keeps x: the minimiser lies between the two
            if u >= x:
                a, fa = x, fx
            else:
                b, fb = x, fx
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a, fa = u, fu
            else:
                b, fb = u, fu
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

    The supremum is attained at y = Phi'(k|x|), the right derivative, for
    the k where the conjugate modular of y reaches 1.  By Young's equality
    Psi(Phi'(u)) = u Phi'(u) - Phi(u), that modular is sum w (u Phi'(u) -
    Phi(u)) with u = k|x|, which is nondecreasing in k.  Brent's zeroin
    finds the k on the log of that modular in s = log k, bracketed from
    k_L / 2 (k_L the Luxemburg point I(k_L x) = 1) by steps that double up
    to K_CAP * k_L.  y is taken on the chord between the bracket's ends,
    where their modulars average to 1 (feasible, as Psi is convex): exact
    where a kink of Phi makes the modular jump across 1.  The certificate y
    is checked once against the exact conjugate and scaled into the dual
    ball if it lies outside (Psi is convex with Psi(0) = 0), so the value
    is the pairing with a feasible y.
    """
    modular_at = modular_of(phi, x)
    if modular_at.top_inf > 0.0:
        raise PreconditionError("dual norm needs x supported on finite atoms")
    if modular_at.top == 0.0:
        return 0.0

    w, ax = np.array([(x.space.weights[i], abs(x.values[i])) for i in x.support]).T
    points: dict[float, tuple[np.ndarray, float]] = {}  # s -> (y, conjugate modular of y)

    def log_modular(s: float) -> float:
        """Take y = Phi'(e^s |x|), the right derivative, and the log of its
        conjugate modular by Young's equality (+inf when not finite)."""
        us = math.exp(s) * ax
        y = phi.derivative_array(us)
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(w * (us * y - phi.evaluate_array(us))))
        if not math.isfinite(total):
            total = math.inf
        points[s] = y, total
        return math.log(total) if total > 0.0 else -math.inf

    # u Phi'(u) - Phi(u) <= Phi(2u) - 2 Phi(u), so the modular is at most
    # I(2kx) and k = k_L / 2 is feasible
    s_start, s_top = log_k_span(modular_at.top)
    s_lo, s_hi = luxemburg_root(lambda s: modular_at(math.exp(s)), phi, modular_at.top_finite,
                                s_start, s_top, ROOT_LOG_TOL)
    s_cap = s_hi + _LOG_K_CAP
    a = b = s_lo - _LN2
    fa = fb = log_modular(a)
    step = _LN2
    while fb <= 0.0 and b < s_cap:
        a, fa = b, fb
        b = min(b + step, s_cap)
        fb = log_modular(b)
        step *= 2.0
    lo, hi = (b, b) if fb <= 0.0 else _zeroin(log_modular, a, fa, b, fb, DUAL_LOG_TOL)
    if lo < hi:  # a secant step lands O(tol^2) from a smooth root; the chord's
        # error is the product of its ends' distances to the root
        (_, m_lo), (_, m_hi) = points[lo], points[hi]
        s = lo + (1.0 - m_lo) / (m_hi - m_lo) * (hi - lo)
        if lo < s < hi:
            lo, hi = (s, hi) if log_modular(s) <= 0.0 else (lo, s)
    (y_lo, m_lo), (y_hi, m_hi) = points[lo], points[hi]
    t = 1.0 if m_hi <= 1.0 else (1.0 - m_lo) / (m_hi - m_lo)
    y = y_lo + t * (y_hi - y_lo)

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
