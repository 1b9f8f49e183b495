"""The norm engine: Luxemburg norm, the lattice-norm-generated family, a
dual-norm lower bound, and the unit-ball bound check.

The generated norm of x is  inf_{k>0} g(k),  g(k) = (1/k) p((1, I(k x))).
f(t) = p((1, I(t x))) is convex and nondecreasing, so g is convex in 1/k
(a perspective).  p is 1-homogeneous, so p(1, I) = p_1 + I p_2 (Euler) and

    k^2 g'(k) = p_2(1, I) J(k) - p_1(1, I),  J(k) = sum w (u Phi'(u) - Phi(u)),

u = k|x|, Phi' the right derivative; by Young's equality J is the conjugate
modular of Phi'(k|x|), nondecreasing in k, and d I / d log k = I + J.  The
minimiser is the sign change of one function F of k (_first_order_root), in log
form: log I under the max norm (the Luxemburg point I(k_L x) = 1), log J
under the sum norm (the Amemiya/Orlicz equality J = 1; Hudzik and
Maligranda, Indag. Math. 11, 2000), log J + (q - 1) log I under the q-mean,
and log(b J / a) under a boundary ball, on its facet a u + b v = 1 that
holds (1, I).

Where Phi has a finite slope limit, F may stay <= 0 for every k: then g
falls to its infimum S = slope_limit sum w |x| only as k -> inf.  That is
decided before any search, in closed form (_limit), from the limit of J,
J_inf = Psi(slope_limit) mu(supp x), Psi the Young conjugate.  Nor does
|u|^q, q > 1: I(kx) = k^q I(x), and the norm is C(p, q) I(x)^(1/q)
(_power_norm).  Otherwise one loop in s = log k (_first_order_root)
solves F = 0 from k = 1/max|x| (from twice Phi's flat edge where that k
is not past it), below the finite/+inf jump, taken in closed form from
the zero bound of Phi, and with k and k max|x| in [1e-300, 1e300] (or up
to twice a flat edge past that, where that is a double), so the search
is homogeneous in x: Newton steps with the slope q'(1 + J/I) of log I
(exact for a power generator), scaled by the secant of the two latest
samples, each landing 0.45 tol past the predicted root.  Where a step
overshoots into overflow (I = +inf: a steep atom of tiny weight), the
next is Newton in k from the lower end, where log Phi is linear (exp_minus)
or concave (powers), so it lands at or just below the root.  F jumps up at
k = b/|x_i| for a kink b of Phi, and at I(kx) = v/u for a corner (u, v) of
a boundary ball: a binary search over the kinks and Newton steps on log I
toward the corners narrow the bracket first, and a jump of F across 0 at
one of them is the minimiser.  The value reported is the least g(k)
sampled, at an end of the final bracket as g is unimodal.

Both engines sum I and J term by term and check once, after the sum, that
nothing overflowed.  On a steep atom of tiny weight (the constructions of
R2, R3 and T3 sit within a few units of log DBL_MAX) u Phi'(u), and at the
minimiser even Phi(u), can overflow while w Phi(u) is of order 1; such a
term is taken as exp(log w + its closed-form log) (OrliczFunction.mend_sums),
so F stays finite below its root and the value is the true minimum.

generated_norm_batch solves the same equation for the rows of an (N, n)
value array in lockstep, each row independent of the others, by the same
step rule (_lockstep), which also solves log I(kx) = log t for
scale_to_modular_batch (R3's scales to a modular level), and takes a
power generator's rows in closed form, one array sum; verify norms its
samples and its constructions on finite atoms with them.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PreconditionError
from .orlicz import OrliczFunction, young_conjugate, young_conjugate_many
from .planar import PlanarNorm, l1, linf
from .spaces import MeasureSpace, SimpleFunction, modular, modular_of, modular_on_grid

LOG_TOL = 1e-11  # default width in log k of the searches' final bracket
SCALE_LOG_TOL = 1e-13  # scale_to_modular_batch: width in log c of its final bracket
GRID_K_LO = 1e-8  # generated_norm_on_grid: GRID_POINTS k on a log grid over [GRID_K_LO, GRID_K_HI]
GRID_K_HI = 1e8
GRID_POINTS = 10_000
LEMMA_TOL = 1e-9  # slack of lemma_bounds_check's two inequalities
_EPS = 2.0 ** -52
_LN2 = math.log(2.0)
_LOG_TINY = math.log(1e-300)
_TINY = 2.0 ** -1022  # the least normal float
_HALF_TOL = 0.45  # a step lands this many tol past the predicted root: two close a bracket
# _lockstep's state rows: lo, hi, last, prev (s, k, G, I, q'(1 + J/I) each), the
# bracket's width 1, 2 and 3 steps back, the row's constants, and the k of
# the lower end its last Newton step in k started from
_STATE = (slice(0, 5), slice(5, 10), slice(10, 15), slice(15, 20), slice(20, 23), slice(23, 29),
          29)
_STATE_ROWS = 30


class NormResult(NamedTuple):
    value: float
    k_star: float | None
    attained: bool
    bracket: tuple[float, float] | None
    evaluations: int


def luxemburg_norm(phi: OrliczFunction, x: SimpleFunction) -> float:
    """inf { lam > 0 : modular(x / lam) <= 1 }: the norm generated by the max
    norm.  +inf when the modular of x / lam is +inf for every lam (x nonzero
    on an infinite atom, Phi vanishing only at 0) or the norm overflows."""
    return generated_norm(phi, _MAX_NORM, x).value


def generated_norm(phi: OrliczFunction, p: PlanarNorm, x: SimpleFunction, *,
                   log_tol: float = LOG_TOL) -> NormResult:
    """Minimise g(k) = (1/k) p((1, modular(k x))) over k > 0, below the
    finite/+inf jump.

    Attainment is decided before any search (_limit): where the infimum is
    approached only as k -> inf, the result is its value S = slope_limit
    sum w |x|, with ``attained`` false, ``k_star`` and ``bracket`` None and
    0 evaluations.  Phi = |u|^q, q > 1, takes its closed form
    (_power_norm): 1 evaluation, ``bracket`` (k*, k*).  Every other x of
    finite norm has ``attained`` true, and ``bracket`` holds the minimiser:
    F <= 0 at its lower end and F > 0 at its upper end, or both ends at the
    top when F <= 0 up to there (the finite/+inf jump, or the end of the
    span where the root lies past double range).
    """
    if not log_tol > 0.0:
        raise DomainError(f"log_tol must be positive, got {log_tol!r}")
    modular_at = modular_of(phi, x)
    if modular_at.top == 0.0:
        return NormResult(0.0, None, False, None, 0)
    if modular_at.top_inf == 0.0:
        limit = float(_limit(phi, p, modular_at.finite_atoms))
        if limit == limit:
            return NormResult(limit, None, False, None, 0)
    if phi.kind == "power" and phi.q > 1.0 and modular_at.top_inf == 0.0:
        return _power_norm(phi, p, modular_at)
    value, k, lo, hi, evaluations = _first_order_root(phi, p, modular_at, log_tol)
    if value == math.inf:
        return NormResult(math.inf, None, False, None, evaluations)
    # k is lo's or hi's; where F's sign is rounding, lo may lie above hi
    return NormResult(value, k, True, (lo[1] if lo[1] < k else k, hi[1] if hi[1] > k else k),
                      evaluations)


def _power_norm(phi: OrliczFunction, p: PlanarNorm, modular_at) -> NormResult:
    """generated_norm for |u|^q, q > 1, on finite atoms: I(kx) = k^q I(x), so
    g = h(t) I(x)^(1/q) with t = I(kx), and the norm is C I(x)^(1/q) at k* =
    (t*/I(x))^(1/q), (C, t*) = PlanarNorm.power_constant.  I(x) = 2^(eq)
    I(u), u = |x| 2^-e in (0, 1) exactly: one kernel sum, as I(u) = m 2^b
    with b = n q + rho (fmod, exact), whose root m^(1/q) 2^(rho/q) 2^n keeps
    ln I(u) out of the rounding of 1/q (i ** (1/q) is off by (ln i / q)
    2^-53 relative); _power_roots' log sum where I(u) is not a normal float."""
    (c, t), q = p.power_constant(phi.q), phi.q
    e = math.frexp(modular_at.top_finite)[1]
    i = modular_at.kernel(math.ldexp(1.0, -e))[0] if e > -1024 else 0.0  # 2^-e a double
    if _TINY <= i < math.inf:
        m, b = math.frexp(i)
        rho = math.fmod(b, q)
        r, e = m ** (1.0 / q) * 2.0 ** (rho / q), e + round((b - rho) / q)
    else:
        w, ax = modular_at.finite_atoms()
        r, e = (a.item() for a in _power_roots(phi, w, ax[None, :]))
    try:
        value = math.ldexp(c * r, e)
    except OverflowError:  # the norm is past double range
        return NormResult(math.inf, None, False, None, 1)
    try:
        k = math.ldexp(t ** (1.0 / q) / r, -e)
    except OverflowError:  # so is k*, as the batch reads it
        k = math.inf
    return NormResult(value, k, True, (k, k), 1)


def _power_roots(phi: OrliczFunction, w: np.ndarray, ax: np.ndarray):
    """(r, e) with I(x)^(1/q) = r 2^e for the nonzero rows ax (N, n) of
    |values| on finite atoms of weights w, Phi = |u|^q: _power_norm's
    arithmetic, its sums one array sum; where a sum is not a normal float,
    from the log sum of log w + q log u, within about 1e-13 relative."""
    q = phi.q
    e = np.frexp(ax.max(axis=1))[1]
    u = np.ldexp(ax, -e[:, None])
    with np.errstate(over="ignore"):  # a sum past double range is +inf
        i = np.vecdot(phi.pair_terms(u)[0], w)
    m, b = np.frexp(i)
    rho = np.fmod(b, q)
    r, n = m ** (1.0 / q) * np.exp2(rho / q), np.rint((b - rho) / q)
    if (odd := ~((i >= _TINY) & (i < math.inf))).any():
        with np.errstate(divide="ignore"):
            lt = np.log(w) + phi.log_pair_array(u[odd])[0]
        top = lt.max(axis=1)
        l2 = (top + np.log(np.exp(lt - top[:, None]).sum(axis=1))) / (_LN2 * q)
        n[odd] = np.floor(l2)
        r[odd] = np.exp2(l2 - n[odd])
    return r, e + n.astype(np.int32)


def _limit(phi: OrliczFunction, p: PlanarNorm, atoms) -> np.ndarray | float:
    """For the |values| ax on finite atoms of weights w that atoms() gives
    (ax a row or an (N, n) array of rows): S = slope_limit sum w |x| where
    the infimum of g is approached only as k -> inf, nan where it is
    attained; a plain nan, without calling atoms, where the slope limit is
    infinite, as the infimum is then always attained.  With a finite slope
    limit g(k) = p((1/k, I(kx)/k)) tends to p((0, S)) = S, and J(kx)
    reaches J_inf = Psi(slope_limit) mu(supp x) at a finite k, past Phi's
    last kink; F <= 0 for every k iff F <= 0 at J_inf and I = +inf: never
    under the max norm, iff J_inf < 1 under the sum norm and the q-mean
    with q = 1 (Hudzik and Maligranda), iff J_inf = 0 under a q-mean with
    q > 1, iff b J_inf < a on a boundary ball's last facet (a, b)."""
    slope = phi.slope_limit
    if slope == math.inf:
        return math.nan
    w, ax = atoms()
    j_inf = young_conjugate(phi, slope) * np.vecdot(ax != 0.0, w)
    if p.kind == "boundary":
        a, b = p.facets[-1]
        below = b * j_inf < a
    elif p.kind == "l1" or p.kind == "lq" and p.q == 1.0:
        below = j_inf < 1.0
    else:  # the max norm never, a q-mean where J stays 0
        below = (j_inf == 0.0) & (p.kind == "lq")
    with np.errstate(over="ignore"):  # S past double range is +inf
        return np.where(below, slope * np.vecdot(ax, w), math.nan)


def _first_order(p: PlanarNorm):
    """F(I, J) on a boundary ball, with the sign of p_2(1, I) J - p_1(1, I),
    the sign of g'(k+): log(b J / a) on the facet a u + b v = 1 that holds
    (1, I+); +-inf where the sign is fixed (a facet's a or b is not
    positive, or I + J overflows).  The max, sum and q-mean norms' F is
    written in _first_order_root's loop."""
    log, inf, corners, facets = math.log, math.inf, p.corners, p.facets

    def on_facet(i: float, j: float) -> float:
        if not i + j < inf:
            return inf
        a, b = facets[bisect_right(corners, i)]
        bj = b * j
        if a > 0.0 < bj:
            return log(bj) - log(a)
        return 0.0 if bj == a else math.copysign(inf, bj - a)
    return on_facet


def _jump(phi: OrliczFunction, m_inf: float) -> float:
    """The largest float k with Phi(k m_inf) = 0 (0.0 if none): as Phi
    vanishes exactly on [0, zero_bound], the largest with k m_inf <=
    zero_bound, one or two floats from their rounded quotient."""
    nextafter, zb = math.nextafter, phi.zero_bound
    k = zb / m_inf
    while k > 0.0 and k * m_inf > zb:
        k = nextafter(k, 0.0)
    while k > 0.0 and nextafter(k, math.inf) * m_inf <= zb:
        k = nextafter(k, math.inf)
    return k


def _first_order_root(phi: OrliczFunction, p: PlanarNorm, modular_at, log_tol: float):
    """Find the minimiser of g as the sign change of F in s = log k, from k =
    1 / max|x|, or from twice Phi's flat edge k_edge where that k is not
    past it (I there is 0, or rounding on the edge): (the least g sampled,
    its k, lo, hi, evaluations), lo and hi the bracket ends (s, k, F, I, J),
    F <= 0 at lo and F > 0 at hi; +inf and no k or ends when I(kx) = +inf
    for all k > 0.

    One loop finds the root of F from the latest and the previous sample
    and the bracket ends a (F <= 0) and b (F > 0, or its left limit at a
    kink), samples (s, k, F, I, J) or None (then the floor or end of the
    span bounds the bracket).  Each step is Newton's from the latest
    sample, with slope q'(1 + J/I) (q' = q under the q-mean, else 1), the
    exact slope of log I, so exact for a power generator; once the two
    latest samples are finite, the slope is scaled by their secant's ratio
    to the model.  Where Phi vanishes on [0, z], the step is taken in
    log(k - k_edge), k_edge = z / max|x| on the finite atoms, in which such
    a Phi grows like a power.  A step lands 0.45 tol (_HALF_TOL) past the
    predicted root, at least that far inside the bracket, so that two steps
    close it; it takes the ends' secant when it would leave the bracket,
    and bisects when the last three steps did not halve it (unless F at
    least halved) or when the latest F is infinite.  Two moves replace that
    bisection while I overflowed at b (I = +inf, no value there): from a
    with F finite, Newton in k, k = k_a (1 - F_a / m_a), m_a = q'(1 + J_a /
    I_a), at most once per lower end (log Phi is linear in k for exp_minus
    and concave for powers, so it lands at or just below the root, where
    Newton in log k overshoots by hundreds); from a in the flat zone (I =
    0), k_edge itself where a lies below it, then the first float past it,
    which close the bracket when the root lies within a float of the edge.
    With no sample above, F = -inf steps to k twice Phi's flat edge (I =
    0), or else (J = 0) to the end of the span, where J is largest; with
    none below, F = +inf steps past the corner below, or halves k (an
    overflow).  F's jumps go first: a binary search over the kinks b/|x_i|
    inside the bracket (F at an upper end there is its left limit), then
    Newton on log I toward a corner between the ends' facets, from the end
    nearer to it, in log(k - k_edge) too.  The loop stops at width tol + 4
    eps |s|, at F = 0, or with F <= 0 up to the end (F > 0 down to the
    floor)."""
    log, exp, inf = math.log, math.exp, math.inf
    s_start = -log(modular_at.top)  # homogeneous: from k = 1/max|x|, k and k max|x|
    s_top = (0.0 if 0.0 < s_start else s_start) - _LOG_TINY  # within [1e-300, 1e300]
    zb, tf = phi.zero_bound, modular_at.top_finite
    k_edge = zb / tf if zb > 0.0 < tf else 0.0  # I = 0 up to here (every k when tf = 0)
    if exp(s_top) < 2.0 * k_edge < inf:  # or up to twice a flat edge past that, a double
        s_top = log(2.0 * k_edge)
    k_top, m_inf = exp(s_top), modular_at.top_inf
    if m_inf > 0.0:  # I(k x) = +inf exactly when Phi(k m_inf) > 0, m_inf = max|x| there
        k_jump = _jump(phi, m_inf)
        if k_jump == 0.0:
            return inf, None, None, None, 0
        if k_jump < k_top:  # the finite/+inf jump ends the span
            k_top, s_top = k_jump, log(k_jump)
    kernel, p_abs, max_norm = modular_at.kernel, p._eval_abs, p.kind == "linf"
    qm = p.q if p.kind == "lq" else 1.0
    q1 = qm - 1.0
    corners, on_facet = (p.corners, _first_order(p)) if p.kind == "boundary" else (None, None)
    cands = _kink_candidates(phi, modular_at, k_top) if phi.kinks else None
    drops = dict(cands) if cands else None  # a sample at a kink takes F's left limit
    s_floor = (0.0 if 0.0 > s_start else s_start) + _LOG_TINY  # k and k max|x| above 1e-300
    s_edge = -inf if zb == 0.0 else log(k_edge) if tf > 0.0 else inf
    if zb > 0.0 and tf / modular_at.top <= zb:  # k = 1/max|x| not past the edge: from twice it
        s_start = s_edge + _LN2
    h0 = _HALF_TOL * log_tol
    a = b = hi = last = prev = k = k_from = None
    # a start within h0 below the top (the jump at k = 1/max|x|, up to a float) takes the top
    jumped, s, n = False, s_top if s_top < s_start + h0 else s_start, 0
    w1 = w2 = w3 = inf  # the bracket's width 1, 2 and 3 steps back
    while True:
        if last is not None:
            s1, k1, g1, i1, j1 = last
            k = None
            if cands:  # the kinks inside the bracket, or up to the top
                k_lo, k_hi = a[1] if a else 0.0, b[1] if b else math.nextafter(k_top, inf)
                cands = [c for c in cands if k_lo < c[0] < k_hi]
            two = over = False  # over: both ends, and I overflowed at b
            if b is None:  # F <= 0 at every sample
                done = a[1] >= k_top or a[2] == 0.0
            elif a is None:  # F > 0 at every sample
                done = b[0] <= s_floor
            else:  # F's left limit <= 0 at b: b is the minimiser, once a is next to it
                two, over, width = True, b[3] == inf, b[0] - a[0]
                done = (width <= log_tol + 4.0 * _EPS * abs(s1) or a[2] == 0.0
                        or b[2] <= 0.0 and not cands)
            if done:
                break
            if cands:  # the middle kink, exactly there
                k = cands[len(cands) // 2][0]
                s, w1, w2, w3, jumped = log(k), inf, inf, inf, True
            elif a is None and b[2] <= 0.0:  # F's left limit <= 0 at the kink b: a sample
                s = b[0] - _LN2  # below it, next to it as no kink lies between
            elif (two and corners is not None
                  and (ta := bisect_right(corners, a[3])) < (tb := bisect_right(corners, b[3]))):
                # Newton on log I to the middle corner, from the end nearer to it
                c = corners[(ta + tb) // 2]
                e = a if a[3] > 0.0 and (not b[3] < inf or c * c < a[3] * b[3]) else b
                s = _toward(e, c, h0, k_edge) if 0.0 < e[3] < inf else 0.5 * (a[0] + b[0])
                w1, w2, w3, jumped = inf, inf, inf, True
                if not a[0] < s < b[0]:
                    s = 0.5 * (a[0] + b[0])
            elif over and a[1] != k_from and -inf < a[2] and 0.0 < a[3] and a[4] < inf:
                # Newton in k from a, once per lower end
                k_from = a[1]
                s = log(a[1] * (1.0 - a[2] / (qm * (1.0 + a[4] / a[3]))))
                s += h0 + _EPS * abs(s)
                h = h0 + _EPS * abs(s)
                s = a[0] + h if s < a[0] + h else b[0] - h if s > b[0] - h else s
                w1, w2, w3 = width, w1, w2
            elif (over and a[3] == 0.0 < k_edge and a[1] <= k_edge
                  and (k_next := k_edge if a[1] < k_edge else math.nextafter(k_edge, inf)) < b[1]):
                # I = 0 at a: the flat edge, then the first float past it
                k, w1, w2, w3 = k_next, width, w1, w2
                s = log(k)
            elif -inf < g1 < inf and (not two or width <= 0.5 * w3
                                      or prev is not None and abs(g1) <= 0.5 * abs(prev[2])):
                # Newton, in x = log(k - k_edge)
                if k1 > k_edge > 0.0:
                    ke, x1 = k_edge, log(k1 - k_edge)
                    m = qm * (1.0 + j1 / i1) * (1.0 - ke / k1) if i1 > 0.0 else inf
                else:
                    ke, x1 = 0.0, s1
                    m = qm * (1.0 + j1 / i1) if i1 > 0.0 else inf
                if prev is not None and -inf < prev[2] < inf and prev[3] > 0.0 < prev[1] - ke:
                    s0, k0, g0, i0, j0 = prev
                    x0 = log(k0 - ke) if ke else s0
                    if x0 != x1:  # the secant-to-model ratio; a flat secant: no root near
                        r = (g1 - g0) / (x1 - x0) / (
                            0.5 * (m + qm * (1.0 + j0 / i0) * (1.0 - ke / k0)))
                        m = m * r if r > 0.0 else 0.0
                s = x = x1 - g1 / m if m > 0.0 else (inf if g1 < 0.0 else -inf)
                if ke:  # k = k_edge + e^x
                    s = _log_past(ke, x)
                s += h0 + _EPS * abs(s) if g1 < 0.0 else -h0 - _EPS * abs(s)
                if two:
                    if not a[0] < s < b[0]:  # the ends' secant, else bisect
                        s = (a[0] - a[2] * width / (b[2] - a[2])
                             if -inf < a[2] and b[2] < inf else 0.5 * (a[0] + b[0]))
                    h = h0 + _EPS * abs(s)
                    s = a[0] + h if s < a[0] + h else b[0] - h if s > b[0] - h else s
                    w1, w2, w3 = width, w1, w2
            elif two:
                s = 0.5 * (a[0] + b[0])
                w1, w2, w3 = width, w1, w2
            elif b is None:  # F = -inf at every sample
                if i1 == 0.0:  # Phi's flat zone: k doubles past its edge
                    s = (s1 if s1 > s_edge else s_edge) + _LN2
                else:  # J = 0: F's root, if any, lies where J > 0, at the top
                    s = s_top
            elif (corners is not None and i1 + j1 < inf
                  and bisect_right(corners, i1)):  # F > 0 on the whole facet
                s = _toward(last, corners[bisect_right(corners, i1) - 1], h0, k_edge)
            else:  # F = +inf at every sample: an overflow
                s = s1 - _LN2
            if not two:
                s = s_top if s >= s_top else s_floor if s < s_floor else s
        if k is None:  # the top itself at or past it
            k = k_top if s >= s_top else exp(s)
            k = k_top if k_top < k else k
        i, j = kernel(k)  # unchecked: k max|x| <= 1e300 and k <= the jump
        n += 1
        right = True  # F at k; at a kink where F > 0 then its left limit
        while True:
            # F: log I under the max norm, log J + (q - 1) log I under the
            # q-mean (q = 1: the sum norm); +-inf where its sign is fixed
            if max_norm:
                f = log(i) if 0.0 < i < inf else (inf if i else -inf)
            elif on_facet is not None:
                f = on_facet(i, j)
            elif not i + j < inf:
                f = inf
            elif j <= 0.0 or i <= 0.0 < q1:  # the sign of I^(q-1) J - 1
                f = -inf
            else:
                f = log(j) + q1 * log(i) if q1 else log(j)
            e = (s, k, f, i, j)
            if right and f <= 0.0:  # ordered by k: e^s rounds, and a kink is sampled at its own k
                if a is None or k > a[1]:
                    a = e
                break
            if right:
                if hi is None or k < hi[1]:
                    hi = e
                if drops is not None and k in drops:  # at a kink: F's left limit
                    j, right = j - drops[k], False
                    continue
            if b is None or k < b[1]:
                b = e
            break
        prev, last, jumped = None if jumped else last, e, False  # no secant across a jump
    lo, hi = a or hi, hi or a  # F > 0 down to the floor, or F <= 0 up to the top
    # g is nonincreasing where F <= 0 and increasing where F > 0, so its least
    # sampled value is at lo or at hi (k underflows to 0 below 1e-323)
    v_lo = p_abs(1.0, lo[3]) / lo[1] if lo[3] < inf and lo[1] > 0.0 else inf
    v_hi = p_abs(1.0, hi[3]) / hi[1] if hi[3] < inf and hi[1] > 0.0 else inf
    v, k = (v_lo, lo[1]) if v_lo <= v_hi else (v_hi, hi[1])
    return v, k, lo, hi, n


def _toward(e, c: float, h0: float, ke: float) -> float:
    """Newton's step on log I - log c from the sample e, landing h0 past the
    corner I = c of a boundary ball: in log k, its slope 1 + J/I exact, or
    past Phi's flat edge k = ke > 0 in log(k - ke), as the Newton branch."""
    d = math.log(c / e[3]) / (1.0 + e[4] / e[3])
    if e[1] > ke > 0.0:  # the slope in log(k - ke) is (1 + J/I)(1 - ke/k)
        s = _log_past(ke, math.log(e[1] - ke) + d / (1.0 - ke / e[1]))
    else:
        s = e[0] + d
    return s + math.copysign(h0 + _EPS * abs(s), d)


def _log_past(ke: float, x: float) -> float:
    """log(ke + e^x), without overflow."""
    return x + math.log1p(ke * math.exp(-x)) if x > 0.0 else math.log(ke + math.exp(x))


@dataclass(frozen=True)
class NormBatch:
    """generated_norm_batch's answer, one entry per row: the value, the k of
    the least g sampled (nan where NormResult.k_star is None) and the
    attainment flag; ``steps`` counts the lockstep iterations taken."""
    value: np.ndarray
    k_star: np.ndarray
    attained: np.ndarray
    steps: int

    def __getitem__(self, rows: slice) -> NormBatch:
        """The answer for a slice of the rows (``steps`` is the whole batch's)."""
        return NormBatch(self.value[rows], self.k_star[rows], self.attained[rows], self.steps)


def generated_norm_batch(phi: OrliczFunction, p: PlanarNorm, space: MeasureSpace,
                         values) -> NormBatch:
    """generated_norm for each row of the (N, n) array ``values`` on ``space``,
    solved in lockstep: the rows share every numpy step, and a row's result
    does not depend on the other rows (a batch of N is N batches of one, bit
    for bit).

    Rows whose infimum is approached only as k -> inf (_limit) are not
    searched: their value is its limit S, with nan and False; nor are
    |u|^q's, q > 1, under any p: _power_norm's closed form with 0 steps, one
    array sum (numpy's sums and powers may round an ulp from the kernel's).
    Each other row runs the scalar engine's loop (_first_order_root) on its
    first-order equation F = 0 (log I under the max norm, log J under the
    sum norm, log J + (q - 1) log I under the q-mean; -inf where I or J is
    0, +inf where I overflows): the same span, Newton steps and one-sided
    moves, I and J the row sums of one phi.pair_terms over the block.
    Where a term of those sums overflows (u Phi'(u), or Phi(u) itself, past
    double range on a steep atom of tiny weight, while the sum is of order
    1), one check per step sends the rows concerned to phi.mend_sums, which
    takes that term as exp(log w + its closed-form log); I or J is +inf
    only where the sum itself is.  A row stops at the loop's stopping rule
    and is sampled no more; ``steps`` counts the samples, so it is the most
    any row took.  Its value is the lesser g = p((1, I))/k at its final
    bracket's ends, within 1e-11 relative of generated_norm's; ``attained``
    is true on the searched rows of finite value.  All-zero rows give 0.0,
    nan and False.

    These rows go through the scalar generated_norm instead, and equal it
    exactly: every row when p is a boundary ball (but for |u|^q) or Phi'
    has a kink (a polyline, flat_then_power(a, 1)), and rows with a nonzero
    value on an infinite atom (the finite/+inf jump).  With a smooth
    generator and a max, sum or q-mean norm, rows on finite atoms never
    take this route.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[1] != space.n_atoms:
        raise DomainError(f"values must have shape (N, {space.n_atoms}), got {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("simple functions take finite values")
    n_rows = len(x)
    value, k_star = np.zeros(n_rows), np.full(n_rows, math.nan)
    weights, finite = space.atom_arrays
    nonzero = (x != 0.0).any(axis=1)
    power = phi.kind == "power" and phi.q > 1.0
    scalar = (nonzero if p.kind == "boundary" and not power or phi.kinks
              else (x[:, ~finite] != 0.0).any(axis=1))
    rows = np.flatnonzero(nonzero & ~scalar)
    steps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # C order: each row's sums then run on one contiguous row, whatever N is
        ax = np.ascontiguousarray(np.abs(x[rows][:, finite]))
        if rows.size:
            limit = np.broadcast_to(_limit(phi, p, lambda: (weights, ax)), rows.shape)
            far = limit == limit
            value[rows[far]], rows, ax = limit[far], rows[~far], ax[~far]
        if rows.size and power:  # _power_norm's closed form
            (c, t), (r, e) = p.power_constant(phi.q), _power_roots(phi, weights, ax)
            v = value[rows] = np.ldexp(c * r, e)
            k_star[rows] = np.where(v < math.inf, np.ldexp(t ** (1.0 / phi.q) / r, -e), math.nan)
        elif rows.size:
            lo, hi, steps = _lockstep(_batch_sampler(phi, p, weights), ax,
                                      np.zeros(len(rows)), LOG_TOL, p.q if p.kind == "lq" else 1.0,
                                      phi.zero_bound)
            # g is nonincreasing where F <= 0 and increasing where F > 0: the
            # lesser g at the ends (nan at a missing end)
            ends = np.array([lo, hi])
            v_lo, v_hi = p.evaluate_many(1.0, ends[:, 3]) / ends[:, 1]
            v = value[rows] = np.fmin(v_lo, v_hi)
            k_star[rows] = np.where(v < math.inf, np.where((v_lo <= v_hi) | (v_hi != v_hi),
                                                           lo[1], hi[1]), math.nan)
    for r in np.flatnonzero(scalar):
        res = generated_norm(phi, p, SimpleFunction(space, x[r]))
        value[r] = res.value
        k_star[r] = math.nan if res.k_star is None else res.k_star
    return NormBatch(value, k_star, k_star == k_star, steps)  # attained: a minimiser found


def scale_to_modular_batch(phi: OrliczFunction, space: MeasureSpace, values,
                           targets) -> np.ndarray:
    """For each row x of the (N, n) array ``values`` and its target t > 0 in
    ``targets``: c <= the root of modular(c x) = t, within SCALE_LOG_TOL in log c
    (c at the top of the span where the modular stays below t up to there).
    The rows must be nonzero and vanish on the infinite atoms.  The roots
    are solved in lockstep by generated_norm_batch's loop, on log I - log t;
    a power generator's (q > 1) is c = (t / I(x))^(1/q), to rounding."""
    x = np.asarray(values, dtype=float)
    weights, finite = space.atom_arrays
    if x.ndim != 2 or x.shape[1] != space.n_atoms:
        raise DomainError(f"values must have shape (N, {space.n_atoms}), got {x.shape}")
    ax = np.ascontiguousarray(np.abs(x[:, finite]))
    if (x[:, ~finite] != 0.0).any() or not (ax.max(axis=1, initial=0.0) > 0.0).all():
        raise DomainError("rows must be nonzero and supported on the finite atoms")
    targets = np.asarray(targets, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if phi.kind == "power" and phi.q > 1.0:  # I(cx) = c^q I(x): c = (t / I(x))^(1/q)
            r, e = _power_roots(phi, weights, ax)
            return np.ldexp(targets ** (1.0 / phi.q) / r, -e)
        lo, hi, _ = _lockstep(_batch_sampler(phi, _MAX_NORM, weights), ax,
                              np.log(targets), SCALE_LOG_TOL, 1.0,
                              phi.zero_bound)
    return np.where(lo[0] == lo[0], lo[1], hi[1])  # hi: above t down to the floor


def _batch_sampler(phi: OrliczFunction, p: PlanarNorm, w: np.ndarray):
    """(k, ax) -> (I, 1 + J/I, F) per row at k, ax the rows' |values| on the
    finite atoms of weights w: the row sums of one phi.pair_terms over the
    block (its callers hold the error context), and F as _first_order_root
    takes it for p."""
    q1 = p.q - 1.0 if p.kind == "lq" else 0.0
    max_norm, vecdot, log, inf = p.kind == "linf", np.vecdot, np.log, math.inf

    def sample(k: np.ndarray, ax: np.ndarray):
        u = k[:, None] * ax
        f, jt = phi.pair_terms(u)
        i, j = vecdot(f, w), vecdot(jt, w)
        t, big = i + j, None
        if not t.sum() < inf:  # a term overflowed: its log form, on those rows only
            big = ~(t < inf)
            i, j = phi.mend_sums(w, u, i, j)
            t[big] = i[big] + j[big]
        if max_norm:
            return i, t / i, log(i)
        first = log(np.fmax(j, 0.0))  # log J, -inf where J <= 0
        if q1:
            first += q1 * log(i)
        if big is not None:
            first[~(t < inf)] = inf
        return i, t / i, first

    return sample


def _lockstep(sample, ax: np.ndarray, target: np.ndarray, tol: float, qm: float,
              zero_bound: float):
    """_first_order_root's loop on the rows ax (nonzero |values| on finite
    atoms) in lockstep, on G = F - target, F the sampler's: (lo, hi, steps),
    lo and hi (5, N) arrays of each row's final samples (s, k, G, I, q'(1 +
    J/I)) with G <= 0 at lo and G > 0 at hi (nan where no sample had that
    sign); ``steps`` counts the calls of ``sample``.

    Each row takes the scalar loop's steps: from k = 1/max|x| (twice the
    flat edge where zero_bound >= 1, as that k is then not past it), Newton
    in log k or log(k - k_edge), and, while its upper end's I overflowed,
    Newton in k from the lower end once per lower end, or the flat edge,
    then the first float past it, from a lower end where I = 0, in a span
    up to twice a flat edge past k max|x| = 1e300 where that is a double.
    lo and hi are a row's bracket ends, last and prev its two latest
    samples, w its bracket's width 1, 2 and 3 steps back, k_from the lower
    end its last Newton step in k started from; qm is q', and Phi vanishes
    on [0, zero_bound].  These and the row's constants are rows of one
    stacked array, updated in place, so that dropping the rows that stopped
    takes one index.  A row stops at the scalar loop's stopping rule and is
    sampled no more.  Numpy's cost here is per call, not per row, so the
    branches that few passes need (one end, a step outside the bracket,
    bisection, an overflowed upper end, the flat edge) run only on those
    passes."""
    nan, inf, where, log, exp = math.nan, math.inf, np.where, np.log, np.exp
    fmin, fmax, count, copyto = np.fmin, np.fmax, np.count_nonzero, np.copyto
    top = ax.max(axis=1)
    s_start = -log(top)  # homogeneous: from k = 1/max|x|
    s_end = np.minimum(s_start, 0.0) - _LOG_TINY  # k and k max|x| within [1e-300, 1e300]
    k_edge = zero_bound / top  # I = 0 up to here
    if zero_bound:  # or up to twice a flat edge past that, a double
        s_end = where((exp(s_end) < 2.0 * k_edge) & (2.0 * k_edge < inf), log(2.0 * k_edge), s_end)
    state = np.full((_STATE_ROWS, len(ax)), nan)
    lo, hi, last, prev, w, span, k_from = (state[r] for r in _STATE)
    w[:] = inf
    span[:] = (target, exp(s_end), s_end, np.maximum(s_start, 0.0) + _LOG_TINY, k_edge,
               log(k_edge))
    target, k_end, s_end, s_floor, k_edge, s_edge = span
    h0 = _HALF_TOL * tol
    out_lo, out_hi = lo.copy(), lo.copy()
    rows, steps = np.arange(len(ax)), 0
    # k = 1/max|x| lies on the flat edge or inside it when zero_bound >= 1
    s = np.minimum(s_edge + _LN2 if zero_bound >= 1.0 else s_start, s_end)
    k = fmin(exp(s), k_end)
    while True:
        i, d, f = sample(k, ax)
        steps += 1
        prev[:] = last
        last[0], last[1], last[2], last[3], last[4] = s, k, f - target, i, d
        if qm != 1.0:
            last[4] *= qm
        up = last[2] > 0.0  # each sample lies past the end of its sign
        copyto(lo, last, where=~up)
        copyto(hi, last, where=up)
        s1, k1, g1, i1, m1 = last
        width = hi[0] - lo[0]  # nan with one end
        one_end = count(width == width) < len(rows)
        # at width tol + 4 eps |s| or at G = 0; with one end, at G <= 0 up
        # to the end or G > 0 down to the floor
        ulp = abs(s1) * _EPS
        done = (width <= ulp * 4.0 + tol) | (lo[2] == 0.0)
        if one_end:
            done |= (width != width) & ((hi[0] <= s_floor) | (lo[1] >= k_end))
        if count(done):
            out_lo[:, rows[done]], out_hi[:, rows[done]] = lo[:, done], hi[:, done]
            keep = ~done
            if not count(keep):
                return out_lo, out_hi, steps
            state, ax, rows = state[:, keep], ax[keep], rows[keep]
            lo, hi, last, prev, w, span, k_from = (state[r] for r in _STATE)
            target, k_end, s_end, s_floor, k_edge, s_edge = span
            s1, k1, g1, i1, m1 = last
            width, ulp = hi[0] - lo[0], abs(s1) * _EPS
            one_end = count(width == width) < len(rows)
        # Newton, in x = log(k - k_edge) past Phi's flat edge, with the
        # slope q'(1 + J/I) scaled by the secant of the two latest samples
        x1, m0 = s1, prev[4]
        dx, dg = (last - prev)[0:3:2]
        if zero_bound:  # past the edge, x = log(k - k_edge), k - k_edge exact near it
            ke = where(k1 > k_edge, k_edge, 0.0)
            past = ke > 0.0
            x1 = where(past, log(k1 - ke), s1)
            dx = x1 - where(past, log(prev[1] - ke), prev[0])
            m1, m0 = m1 * (1.0 - ke / k1), m0 * (1.0 - ke / prev[1])
        # r is finite where both samples are and lie apart (G is finite
        # only where I > 0, and past the edge k > k_edge); with both ends,
        # a slope m <= 0 steps out of the bracket, as the scalar loop's m = 0
        # does
        r = dg / dx / (0.5 * (m1 + m0))
        m1 = m1 * where(np.isfinite(r), r, 1.0)
        x = x1 - g1 / m1
        if zero_bound:  # k = k_edge + e^x
            x = np.logaddexp(log(ke), x)
        h = ulp + h0
        x = x - np.copysign(h, g1)  # 0.45 tol past the root
        # with both ends: inside the bracket, at least 0.45 tol inside,
        # else the ends' secant, else bisect (G infinite); bisect when the
        # last three steps did not halve the bracket, unless G halved
        step = fmax(fmin(x, hi[0] - h), lo[0] + h)  # no bound where an end is missing
        if count(step != x) and count(out := (width == width) & ~((lo[0] < x) & (x < hi[0]))):
            step = where(out, where((abs(g1) < inf) & (lo[2] > -inf) & (hi[2] < inf),
                                    lo[0] - lo[2] * width / (hi[2] - lo[2]),
                                    0.5 * (lo[0] + hi[0])), x)
            h = where(out, abs(step) * _EPS + h0, h)
            step = fmax(fmin(step, hi[0] - h), lo[0] + h)
        if count(slow := width + width > w[2]):
            step = where(slow & ~(abs(g1) <= 0.5 * abs(prev[2])), 0.5 * (lo[0] + hi[0]), step)
        if n_over := count(over := hi[3] == inf):  # I overflowed at the upper end
            # Newton in k from the lower end, once per lower end
            newt = over & (lo[1] != k_from) & (lo[2] > -inf) & (lo[3] > 0.0) & (lo[4] < inf)
            if count(newt):  # (x stays the Newton step of the rows with one end)
                xk = log(lo[1] * (1.0 - lo[2] / lo[4]))
                xk = xk + (abs(xk) * _EPS + h0)
                hk = abs(xk) * _EPS + h0
                step = where(newt, fmax(fmin(xk, hi[0] - hk), lo[0] + hk), step)
                k_from[newt] = lo[1, newt]
        if one_end:
            # with one end: Newton, else past Phi's flat edge (I = 0), to the
            # end of the span (J = 0: F has no root below it), or halving k
            # (an overflow)
            x = where(m1 > 0.0, x, where(g1 < 0.0, inf, -inf))
            x = where(abs(g1) < inf, x, where(hi[0] == hi[0], s1 - _LN2,
                                              where(i1 == 0.0, fmax(s1, s_edge) + _LN2, s_end)))
            step = where(width == width, step, fmin(fmax(x, s_floor), s_end))
            k = where(step >= s_end, k_end, fmin(exp(step), k_end))
        else:
            k = fmin(exp(step), k_end)
        if zero_bound and n_over:  # I = 0 at lo: the flat edge, then the first float past it
            k_next = where(lo[1] < k_edge, k_edge, np.nextafter(k_edge, inf))
            if count(probe := over & (lo[3] == 0.0) & (lo[1] <= k_edge) & (k_next < hi[1])):
                k, step = where(probe, k_next, k), where(probe, log(k_next), step)
        w[1:], w[0], s = w[:2], fmin(width, inf), step


def _kink_candidates(phi: OrliczFunction, modular_at, hi: float) -> list[tuple[float, float]]:
    """The k <= hi where Phi' jumps on a finite atom, k |x_i| = b for a kink
    b of Phi, sorted, each with the drop of J from its right to its left
    limit there: the sum of w_i b (the jump of Phi' at b)."""
    drops: dict[float, float] = {}
    ws, az = modular_at.finite_atoms()
    for w, a in zip(ws.tolist(), az.tolist()):
        for b, jump in phi.kinks if a > 0.0 else ():
            k = b / a
            while k * a < b:  # the modular takes u = k |x_i|: at k it must reach b
                k = math.nextafter(k, math.inf)
            if k <= hi:
                drops[k] = drops.get(k, 0.0) + w * b * jump
    return sorted(drops.items())


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
    Psi(Phi'(u)) = u Phi'(u) - Phi(u), that modular is J(k) = sum w (u
    Phi'(u) - Phi(u)) with u = k|x|, and J = 1 is the sum norm's first-order
    equation.  Where J stays below 1 (_limit under the sum norm), y =
    slope_limit on the support of x is feasible, as its conjugate modular
    is J_inf < 1, and no y pairs higher, as Psi is +inf past the slope
    limit: the value is S = slope_limit sum w |x|.  Otherwise k comes from
    generated_norm's search under the sum norm, whose bracket has J <= 1 at
    its lower end and J > 1 at its upper end (both at the lower end where J
    = 1 there).  y is taken on the chord between the ends' derivatives,
    where their J average to 1 (feasible, as Psi is convex): exact where a
    kink of Phi makes J jump across 1.  The
    certificate y is checked against the exact conjugate and, while its
    conjugate modular c exceeds 1, replaced by y / c (Psi is convex with
    Psi(0) = 0, so that is within rounding of the dual ball; for a power,
    by y / c^((q - 1)/q), which is on it, or by y one float lower where that
    factor rounds to 1) and checked again, so the value is the pairing with
    a feasible y.
    """
    modular_at = modular_of(phi, x)
    if modular_at.top_inf > 0.0:
        raise PreconditionError("dual norm needs x supported on finite atoms")
    if modular_at.top == 0.0:
        return 0.0
    w, ax = modular_at.finite_atoms()
    limit = float(_limit(phi, _SUM_NORM, lambda: (w, ax)))
    if limit == limit:
        return limit
    root = _first_order_root(phi, _SUM_NORM, modular_at, LOG_TOL)
    (_, k_lo, _, _, m_lo), (_, k_hi, _, _, m_hi) = root[2:4]
    y_lo, y_hi = phi.derivative_array(k_lo * ax), phi.derivative_array(k_hi * ax)
    t = 1.0 if m_hi <= 1.0 else (1.0 - m_lo) / (m_hi - m_lo)
    y = y_lo + t * (y_hi - y_lo)

    # a power's Psi is homogeneous of degree q/(q - 1): y / c^((q - 1)/q) is on the ball
    degree = (phi.q - 1.0) / phi.q if phi.kind == "power" else 1.0
    exact = float(np.sum(w * young_conjugate_many(phi, y)))
    while exact > 1.0:  # +inf gives y = 0
        shrink = exact ** degree
        y = y / shrink if shrink > 1.0 else np.nextafter(y, 0.0)  # q near 1 rounds it to 1
        exact = float(np.sum(w * young_conjugate_many(phi, y)))
    return float(np.sum(w * ax * y))


_MAX_NORM, _SUM_NORM = linf(), l1()


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
