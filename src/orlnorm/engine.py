"""The norm engine: Luxemburg norm, the lattice-norm-generated family, a
dual-norm lower bound, and the unit-ball bound check.

The generated norm of x is  inf_{k>0} g(k),  g(k) = (1/k) p((1, I(k x))).
f(t) = p((1, I(t x))) is convex and nondecreasing, so g is convex in 1/k
(a perspective).  p is 1-homogeneous, so p(1, I) = p_1 + I p_2 (Euler) and

    k^2 g'(k) = p_2(1, I) J(k) - p_1(1, I),  J(k) = sum w (u Phi'(u) - Phi(u)),

u = k|x|, Phi' the right derivative; by Young's equality J is the conjugate
modular of Phi'(k|x|), nondecreasing in k, and d I / d log k = I + J.  The
minimiser is the sign change of one function F of k (_first_order), in log
form: log I under the max norm (the Luxemburg point I(k_L x) = 1), log J
under the sum norm (the Amemiya/Orlicz equality J = 1; Hudzik and
Maligranda, Indag. Math. 11, 2000), log J + (q - 1) log I under the q-mean,
and log(b J / a) under a boundary ball, on its facet a u + b v = 1 that
holds (1, I).  One loop in s = log k (_first_order_root) solves it from k
= 1/max|x|, below the finite/+inf jump, taken in closed form from the zero
bound of Phi, and below K_CAP k_L, so the search is homogeneous in x: Newton
steps with the slope q'(1 + J/I) of log I (exact for a power generator,
which takes 3 evaluations), scaled by the secant of the two latest samples,
each landing 0.45 tol past the predicted root.  F jumps up at k = b/|x_i| for
a kink b of Phi, and at I(kx) = v/u for a corner (u, v) of a boundary ball:
a binary search over the kinks and Newton steps on log I toward the corners
narrow the bracket first, and a jump of F across 0 at one of them is the
minimiser.  The value reported is the least g(k) sampled, at an end of the
final bracket as g is unimodal.

Both engines sum I and J term by term and check once, after the sum, that
nothing overflowed.  On a steep atom of tiny weight (the constructions of
R2, R3 and T3 sit within a few units of log DBL_MAX) u Phi'(u), and at the
minimiser even Phi(u), can overflow while w Phi(u) is of order 1; such a
term is taken as exp(log w + its closed-form log) (OrliczFunction.mend_sums),
so F stays finite below its root and the value is the true minimum.

generated_norm_batch solves the same equation for the rows of an (N, n)
value array in lockstep, each row independent of the others, and
scale_to_modular_batch R3's scales to a modular level; verify norms its
samples and its constructions on finite atoms with them.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PreconditionError
from .orlicz import OrliczFunction, young_conjugate_many
from .planar import PlanarNorm, l1, linf
from .spaces import MeasureSpace, SimpleFunction, modular, modular_of, modular_on_grid

K_CAP = 1e12  # the generated-norm and dual-norm searches keep k <= K_CAP * k_L (I(k_L x) = 1)
LOG_TOL = 1e-11  # default width in log k of the searches' final bracket
SCALE_LOG_TOL = 1e-13  # scale_to_modular_batch: width in log c of its final bracket
GRID_K_LO = 1e-8  # generated_norm_on_grid: GRID_POINTS k on a log grid over [GRID_K_LO, GRID_K_HI]
GRID_K_HI = 1e8
GRID_POINTS = 10_000
LEMMA_TOL = 1e-9  # slack of lemma_bounds_check's two inequalities
_EPS = 2.0 ** -52
_LN2 = math.log(2.0)
_LOG_TINY = math.log(1e-300)
_HALF_TOL = 0.45  # a step lands this many tol past the predicted root: two close a bracket


@dataclass(frozen=True)
class NormResult:
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
                   log_tol: float = LOG_TOL) -> NormResult:
    """Minimise g(k) = (1/k) p((1, modular(k x))) over 0 < k <= K_CAP * k_L,
    k_L the Luxemburg point I(k_L x) = 1, and below the finite/+inf jump.

    ``bracket`` holds the minimiser: F <= 0 at its lower end and F > 0 at
    its upper end, or both ends at the top when F <= 0 up to there.
    ``attained`` is false exactly when F <= 0 all the way to the K_CAP * k_L
    cap with no jump below it (the infimum is approached as k grows).
    """
    if not log_tol > 0.0:
        raise DomainError(f"log_tol must be positive, got {log_tol!r}")
    modular_at = modular_of(phi, x)
    if modular_at.top == 0.0:
        return NormResult(0.0, None, False, None, 0)
    root = _first_order_root(phi, p, modular_at, log_tol)
    if root is None:
        return NormResult(math.inf, None, False, None, 0)
    value, k, lo, hi, attained, evaluations = root
    if value == math.inf:
        return NormResult(math.inf, None, False, None, evaluations)
    # k is lo's or hi's; where F's sign is rounding, lo may lie above hi
    return NormResult(value, k, attained, (lo[1] if lo[1] < k else k, hi[1] if hi[1] > k else k),
                      evaluations)


def _first_order(p: PlanarNorm):
    """F(I, J), with the sign of p_2(1, I) J - p_1(1, I), the sign of g'(k+),
    in log form: log I under the max norm, log J + (q - 1) log I under the
    q-mean (q = 1: the sum norm), log(b J / a) on the facet a u + b v = 1 of
    a boundary ball that holds (1, I+); +-inf where the sign is fixed (I or
    J is 0, a facet's a or b is not positive, or I + J overflows)."""
    if p.kind != "boundary":
        return _mean_first_order(p.kind == "linf", p.q - 1.0 if p.kind == "lq" else 0.0)
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


@lru_cache(maxsize=32)
def _mean_first_order(max_norm: bool, q1: float):
    """F for the max norm, or for the q-mean with q1 = q - 1 (0: the sum norm)."""
    log, inf = math.log, math.inf
    if max_norm:
        return lambda i, j: log(i) if 0.0 < i < inf else (inf if i else -inf)

    def first_order(i: float, j: float) -> float:
        if not i + j < inf:
            return inf
        if j <= 0.0 or i <= 0.0 < q1:  # the sign of I^(q-1) J - 1
            return -inf
        return log(j) + q1 * log(i) if q1 else log(j)
    return first_order


def _first_order_root(phi: OrliczFunction, p: PlanarNorm, modular_at, log_tol: float):
    """Find the minimiser of g as the sign change of F in s = log k, from k =
    1 / max|x|: (the least g sampled, its k, lo, hi, attained,
    evaluations), lo and hi the bracket ends (s, k, F, I, J), F <= 0 at lo
    and F > 0 at hi; None when I(kx) = +inf for all k > 0.

    One loop finds the root of G = F, or, while it solves for the K_CAP
    k_L cap, of G = log I (the Luxemburg point; given up once F > 0 at a
    sample below K_CAP kl, where the cap cannot bind), from the latest and
    the previous sample and the bracket ends a (G <= 0) and b (G > 0),
    samples (s, k, G, I, J) or None (then the floor or end of the span
    bounds the bracket).  Every sample also records F's ends lo and hi,
    and kl, a lower bound of k_L (I(kx)/k is nondecreasing, so k_L >= k /
    max(1, I(kx))).  Each step is
    Newton's from the latest sample, with slope q'(1 + J/I) (q' = q under
    the q-mean, else 1), the exact slope of log I, so exact for a power
    generator; once the two latest samples are finite, the slope is scaled
    by their secant's ratio to the model.  Where Phi vanishes on [0, z],
    the step is taken in log(k - k_edge), k_edge = z / max|x| on the finite
    atoms, in which such a Phi grows like a power.  A step lands 0.45 tol
    (_HALF_TOL) past the predicted root, at least that far inside the
    bracket, so that two steps close it; it takes the ends' secant when it
    would leave the bracket, and bisects when the last three steps did not
    halve it (unless G at least halved) or when the latest G is infinite.
    With no sample above, G = -inf steps to k twice Phi's flat edge (I =
    0), past a boundary ball's corner, or to the end of the span (J = 0: F
    has no root below it); with none below, G = +inf steps past the corner
    below, or halves k (an overflow).  F's jumps go first: a binary search
    over the kinks b/|x_i| inside the bracket (G at an upper end there is
    F's left limit), then Newton on log I toward a corner between the
    ends' facets, from the end nearer to it.  The loop stops at width tol +
    4 eps |s|, at G = 0, or with G <= 0 up to the end (G > 0 down to the
    floor)."""
    log, exp, inf = math.log, math.exp, math.inf
    s_start = -log(modular_at.top)  # homogeneous: from k = 1/max|x|, k and k max|x|
    s_top = min(s_start, 0.0) - _LOG_TINY  # within [1e-300, 1e300]
    top = _jump_top(phi, modular_at.top_inf, s_top)
    if top is None:
        return None
    k_top, s_top, open_top = top  # open_top: false while k_top is the jump
    pair, p_abs, first_order = modular_at.with_conjugate, p._eval_abs, _first_order(p)
    qm = p.q if p.kind == "lq" else 1.0
    corners = p.corners if p.kind == "boundary" else None
    cands = _kink_candidates(phi, modular_at, k_top) if phi.kinks else None
    drops = dict(cands) if cands else None  # a sample at a kink takes F's left limit
    s_floor = max(s_start, 0.0) + _LOG_TINY  # k and k max|x| above 1e-300
    zb, tf = phi.zero_bound, modular_at.top_finite
    k_edge = zb / tf if zb > 0.0 < tf else 0.0  # I = 0 up to here (every k when tf = 0)
    s_edge = -inf if zb == 0.0 else log(k_edge) if tf > 0.0 else inf
    h0 = _HALF_TOL * log_tol
    lo, hi, kl, n = None, None, 0.0, 0
    s_end, k_end, capped = s_top, k_top, p.kind == "linf"  # lowered to the cap once solved
    a = b = last = prev = k = saved = None
    jumped, luxemburg, s = False, False, min(s_start, s_top)  # luxemburg: G = log I
    w1 = w2 = w3 = inf  # the bracket's width 1, 2 and 3 steps back
    while True:
        if last is not None:
            s1, k1, g1, i1, j1 = last
            k = None
            if cands and not luxemburg:  # the kinks inside the bracket, or up to the end
                k_lo, k_hi = a[1] if a else 0.0, b[1] if b else math.nextafter(k_end, inf)
                cands = [c for c in cands if k_lo < c[0] < k_hi]
            two = False
            if b is None:  # G <= 0 at every sample
                done = a[1] >= k_end or a[2] == 0.0
            elif a is None:  # G > 0 at every sample
                done = b[0] <= s_floor
            else:  # F's left limit <= 0 at b: b is the minimiser, once lo is next to it
                two, width = True, b[0] - a[0]
                done = (width <= log_tol + 4.0 * _EPS * abs(s1) or a[2] == 0.0
                        or b[2] <= 0.0 and not cands)
            if done or luxemburg and hi is not None and hi[1] <= K_CAP * kl:
                if not luxemburg:
                    break
                # back to F where it left off, with the cap K_CAP k_L once k_L is
                # solved; not when F > 0 at a sample below K_CAP kl <= K_CAP k_L
                if done:
                    s = 0.5 * (a[0] + b[0]) if two else (a or b)[0]
                    if K_CAP * exp(s) < k_end:
                        k_end = K_CAP * exp(s)
                        s_end = log(k_end)
                luxemburg, a, b, (last, prev, w1, w2, w3) = False, lo, hi, saved
                continue
            if cands and not luxemburg:  # the middle kink, exactly there
                k = cands[len(cands) // 2][0]
                s, w1, w2, w3, jumped = log(k), inf, inf, inf, True
            elif a is None and b[2] <= 0.0:  # F's left limit <= 0 at the kink b: a sample
                s = b[0] - _LN2  # below it, next to it as no kink lies between
            elif (two and corners is not None and not luxemburg
                  and (ta := bisect_right(corners, a[3])) < (tb := bisect_right(corners, b[3]))):
                # Newton on log I to the middle corner, from the end nearer to it
                c = corners[(ta + tb) // 2]
                e = a if a[3] > 0.0 and (not b[3] < inf or c * c < a[3] * b[3]) else b
                s = _toward(e, c, h0) if 0.0 < e[3] < inf else 0.5 * (a[0] + b[0])
                w1, w2, w3, jumped = inf, inf, inf, True
                if not a[0] < s < b[0]:
                    s = 0.5 * (a[0] + b[0])
            elif -inf < g1 < inf and (not two or width <= 0.5 * w3
                                      or prev is not None and abs(g1) <= 0.5 * abs(prev[2])):
                # Newton, in x = log(k - k_edge)
                q = 1.0 if luxemburg else qm
                if k1 > k_edge > 0.0:
                    ke, x1 = k_edge, log(k1 - k_edge)
                    m = q * (1.0 + j1 / i1) * (1.0 - ke / k1) if i1 > 0.0 else inf
                else:
                    ke, x1 = 0.0, s1
                    m = q * (1.0 + j1 / i1) if i1 > 0.0 else inf
                if prev is not None and -inf < prev[2] < inf and prev[3] > 0.0 < prev[1] - ke:
                    s0, k0, g0, i0, j0 = prev
                    x0 = log(k0 - ke) if ke else s0
                    if x0 != x1:  # the secant-to-model ratio; a flat secant: no root near
                        r = (g1 - g0) / (x1 - x0) / (
                            0.5 * (m + q * (1.0 + j0 / i0) * (1.0 - ke / k0)))
                        m = m * r if r > 0.0 else 0.0
                s = x = x1 - g1 / m if m > 0.0 else (inf if g1 < 0.0 else -inf)
                if ke:  # k = k_edge + e^x
                    s = x + math.log1p(ke * exp(-x)) if x > 0.0 else log(ke + exp(x))
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
            elif b is None:  # G = -inf at every sample
                if i1 == 0.0:  # Phi's flat zone: k doubles past its edge
                    s = (s1 if s1 > s_edge else s_edge) + _LN2
                elif (corners is not None and not luxemburg
                      and bisect_right(corners, i1) < len(corners)):
                    s = _toward(last, corners[bisect_right(corners, i1)], h0)
                else:  # J = 0 from here on: F has no root below the end
                    s = s_end
            elif (corners is not None and not luxemburg and i1 + j1 < inf
                  and bisect_right(corners, i1)):  # F > 0 on the whole facet
                s = _toward(last, corners[bisect_right(corners, i1) - 1], h0)
            else:  # G = +inf at every sample: an overflow
                s = s1 - _LN2
            if not two:
                s = s_end if s >= s_end else s_floor if s < s_floor else s
        if k is None:  # the end itself at or past it
            k = k_end if s >= s_end else min(exp(s), k_end)
        if not capped and b is None and last is not None and k >= K_CAP * kl:
            # the cap K_CAP k_L may bind: solve for k_L first
            capped, saved, luxemburg = True, (last, prev, w1, w2, w3), True
            g = log(i1) if 0.0 < i1 < inf else (inf if i1 else -inf)
            last, prev, w1, w2, w3 = (s1, k1, g, i1, j1), None, inf, inf, inf
            a, b = (last, None) if g <= 0.0 else (None, last)
            continue
        i, j = pair(k)
        n += 1
        f = first_order(i, j)
        e = (s, k, f, i, j)
        if f <= 0.0:  # ordered by k: e^s rounds, and a kink is sampled at its own k
            if lo is None or k > lo[1]:
                lo = e
        elif hi is None or k < hi[1]:
            hi = e
        if not capped:
            c = k / i if i > 1.0 else k
            if c > kl:
                kl = c
        if luxemburg:
            f = log(i) if 0.0 < i < inf else (inf if i else -inf)
            e = (s, k, f, i, j)
        elif drops is not None and f > 0.0 and k in drops:  # at a kink: F's left limit
            d = drops[k]
            e = (s, k, first_order(i, j - d), i, j - d)
        if f <= 0.0:
            if a is None or k > a[1]:
                a = e
        elif b is None or k < b[1]:
            b = e
        prev, last, jumped = None if jumped else last, e, False  # no secant across a jump
    attained = True
    if lo is None:  # F > 0 down to the floor
        lo = hi
    if hi is None:  # F <= 0 up to the top: attained at the jump, or where F = 0
        hi = lo
        attained = lo[1] == k_top and not open_top or lo[2] == 0.0
    # g is nonincreasing where F <= 0 and increasing where F > 0, so its least
    # sampled value is at lo or at hi (k underflows to 0 below 1e-323)
    v_lo, v_hi = (p_abs(1.0, e[3]) / e[1] if e[3] < inf and e[1] > 0.0 else inf
                  for e in (lo, hi))
    v, k = (v_lo, lo[1]) if v_lo <= v_hi else (v_hi, hi[1])
    return v, k, lo, hi, attained, n


def _toward(e, c: float, h0: float) -> float:
    """Newton's step on log I - log c from the sample e, its slope 1 + J/I
    exact, landing h0 past the corner I = c of a boundary ball."""
    d = math.log(c / e[3]) / (1.0 + e[4] / e[3])
    s = e[0] + d
    return s + math.copysign(h0 + _EPS * abs(s), d)


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

    Each row solves the scalar engine's first-order equation F = 0 (log I
    under the max norm, log J under the sum norm, log J + (q - 1) log I under
    the q-mean; -inf where I or J is 0, +inf where I overflows), I and J the
    row sums of one phi.pair_array over the block.  Where a term of those
    sums overflows (u Phi'(u), or Phi(u) itself, past double range on a
    steep atom of tiny weight, while the sum is of order 1), one check per
    step sends the rows concerned to phi.mend_sums, which takes that term
    as exp(log w + its closed-form log); I or J is +inf only where the sum
    itself is.  The bracket is the batch's own, not the scalar engine's
    Newton steps: the first sample at k = 1/max|x|, then steps that double
    in log k, k and k max|x| within [1e-300, 1e300], and k <= K_CAP * k_L
    off the max norm, k_L the Luxemburg point I(k_L x) = 1, solved for (on
    log I, by the same regula falsi) once the steps reach K_CAP times a
    lower bound of it.  Illinois regula falsi (Dowell and Jarratt, BIT 11,
    1971) in s = log k then narrows each bracket to width LOG_TOL,
    bisecting where the last three steps did not halve the bracket and
    while an end's F is infinite (a flat zone below, an overflow above).
    A row stops at that width and is sampled no more.  Its value is the
    least g sampled, an upper bound of the infimum, within 1e-11 relative
    of generated_norm's; ``attained`` is false exactly when F <= 0 all the
    way to the cap.  All-zero rows give 0.0, nan and False.

    These rows go through the scalar generated_norm instead, and equal it
    exactly: every row when p is a boundary ball or Phi' has a kink (a
    polyline, flat_then_power(a, 1)), and rows with a nonzero value on an
    infinite atom (the finite/+inf jump).  With a smooth generator and a
    max, sum or q-mean norm, rows on finite atoms never take this route.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[1] != space.n_atoms:
        raise DomainError(f"values must have shape (N, {space.n_atoms}), got {x.shape}")
    if not np.isfinite(x).all():
        raise DomainError("simple functions take finite values")
    n_rows = len(x)
    value, k_star = np.zeros(n_rows), np.full(n_rows, math.nan)
    attained = np.zeros(n_rows, dtype=bool)
    weights = np.asarray(space.weights)
    finite = np.isfinite(weights)
    nonzero = (x != 0.0).any(axis=1)
    scalar = nonzero if p.kind == "boundary" or phi.kinks else (x[:, ~finite] != 0.0).any(axis=1)
    rows = np.flatnonzero(nonzero & ~scalar)
    steps = 0
    if rows.size:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            sample = _batch_sampler(phi, p, weights[finite])
            # C order: each row's sums then run on one contiguous row, whatever N is
            ax = np.ascontiguousarray(np.abs(x[rows][:, finite]))
            value[rows], k_star[rows], attained[rows], steps = _lockstep(
                sample, ax, p.kind != "linf")
    for r in np.flatnonzero(scalar):
        res = generated_norm(phi, p, SimpleFunction(space, x[r]))
        value[r], attained[r] = res.value, res.attained
        k_star[r] = math.nan if res.k_star is None else res.k_star
    return NormBatch(value, k_star, attained, steps)


def scale_to_modular_batch(phi: OrliczFunction, space: MeasureSpace, values,
                           targets) -> np.ndarray:
    """For each row x of the (N, n) array ``values`` and its target t > 0 in
    ``targets``: c <= the root of modular(c x) = t, within SCALE_LOG_TOL in log c
    (c at the top of the span where the modular stays below t up to there).
    The rows must be nonzero and vanish on the infinite atoms.  The roots
    are solved in lockstep, as generated_norm_batch solves its cap."""
    x = np.asarray(values, dtype=float)
    weights = np.asarray(space.weights)
    finite = np.isfinite(weights)
    if x.ndim != 2 or x.shape[1] != space.n_atoms:
        raise DomainError(f"values must have shape (N, {space.n_atoms}), got {x.shape}")
    ax = np.ascontiguousarray(np.abs(x[:, finite]))
    if (x[:, ~finite] != 0.0).any() or not (ax.max(axis=1, initial=0.0) > 0.0).all():
        raise DomainError("rows must be nonzero and supported on the finite atoms")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sample = _batch_sampler(phi, _MAX_NORM, weights[finite])
        top = ax.max(axis=1)
        k = 1.0 / top
        i, _, _ = sample(k, ax)
        s, _, _, _ = _modular_root(sample, k, i, np.minimum(-np.log(top), 0.0) - _LOG_TINY, ax,
                                   np.full(len(x), math.inf), np.full(len(x), math.nan),
                                   np.log(np.asarray(targets, dtype=float)), SCALE_LOG_TOL)
    return np.exp(s)


def _batch_sampler(phi: OrliczFunction, p: PlanarNorm, w: np.ndarray):
    """(k, ax) -> (I, F, g) per row at k, ax the rows' |values| on the finite
    atoms of weights w: the row sums of one phi.pair_array over the block."""
    kind, q = p.kind, p.q
    q1 = q - 1.0
    vecdot, log, maximum, inf = np.vecdot, np.log, np.maximum, math.inf

    def sample(k: np.ndarray, ax: np.ndarray):
        u = k[:, None] * ax
        if kind == "linf":
            i = vecdot(phi.evaluate_array(u), w)
            if not i.sum() < inf:  # a term overflowed: its log form
                i = phi.mend_sums(w, u, i)
            return i, log(i), maximum(i, 1.0) / k
        f, d = phi.pair_array(u)
        i = vecdot(f, w)
        j = vecdot(d, w) - i  # u Phi' >= Phi >= 0: J and I are finite where this is
        if not j.sum() < inf:
            i, j = phi.mend_sums(w, u, i, j)
        first = log(np.fmax(j, 0.0))  # log J, -inf where J <= 0
        if kind == "l1":
            g = (1.0 + i) / k
        elif q == 2.0:  # the Euclidean mean: p((1, I)) = hypot(1, I)
            first += log(i)
            g = np.hypot(1.0, i) / k
        else:
            first += q1 * log(i)
            big = maximum(i, 1.0)  # p((1, I)), scaled as the scalar evaluator scales it
            g = big * (1.0 + (np.minimum(i, 1.0) / big) ** q) ** (1.0 / q) / k
        return i, np.where(i < inf, first, inf), g

    return sample


def _lockstep(sample, ax: np.ndarray, capped: bool):
    """(value, k_star, attained, steps) for the nonzero rows ax (|values| on
    the finite atoms); ``capped``: the K_CAP * k_L cap applies."""
    m, inf, nan = len(ax), math.inf, math.nan
    where = np.where
    top = ax.max(axis=1)
    s_start = -np.log(top)  # the scalar span: k and k max|x| within [1e-300, 1e300]
    k_top = np.exp(np.minimum(s_start, 0.0) - _LOG_TINY)
    k_floor = np.exp(np.maximum(s_start, 0.0) + _LOG_TINY)

    # The bracket: from k = 1/max|x| upward while F <= 0, else downward,
    # the factor squaring at each step.
    k = np.minimum(1.0 / top, k_top)
    i, f, bv = sample(k, ax)
    steps = 1
    bk = where(bv < inf, k, nan)
    up = f <= 0.0
    lo_k, lo_f = where(up, k, nan), where(up, f, nan)
    hi_k, hi_f = where(up, nan, k), where(up, nan, f)
    attained = np.ones(m, dtype=bool)
    # per open row: its open end k with I there, the step factor, a lower
    # bound of k_L (I(kx)/k is nondecreasing), the end of its span (the top,
    # then the cap), and whether the cap is still to be solved for
    rows, fac, kl = np.arange(m), np.full(m, 2.0), where(i > 1.0, k / i, k)
    fresh = np.full(m, capped)
    k_end, sub = k_top, ax
    while True:
        nxt = where(up, k * fac, k / fac)
        at_cap = up & fresh & (nxt >= K_CAP * kl)
        if np.count_nonzero(at_cap):
            c = np.flatnonzero(at_cap)
            r = rows[c]
            s_l, bv[r], bk[r], n = _modular_root(sample, k[c], i[c], np.log(k_end[c]), sub[c],
                                                 bv[r], bk[r], np.zeros(len(c)))
            k_end[c] = np.minimum(K_CAP * np.exp(s_l), k_end[c])
            fresh[c] = False
            steps += n
        at_end = up & (k >= k_end)  # F <= 0 up to the top: not attained
        attained[rows[at_end]] = False
        nxt = where(up, np.minimum(nxt, k_end), np.maximum(nxt, k_floor))
        keep = ~(at_end | (~up & (k <= k_floor)))
        rows, nxt, up, fac, kl, fresh, k_end, k_floor, sub = (
            v[keep] for v in (rows, nxt, up, fac, kl, fresh, k_end, k_floor, sub))
        if not rows.size:
            break
        fac = fac * fac
        i, f, g = sample(nxt, sub)
        steps += 1
        better = g < bv[rows]
        bv[rows[better]], bk[rows[better]] = g[better], nxt[better]
        pos = f > 0.0
        hi_k[rows[pos]], hi_f[rows[pos]] = nxt[pos], f[pos]
        lo_k[rows[~pos]], lo_f[rows[~pos]] = nxt[~pos], f[~pos]
        kl = np.maximum(kl, where(i > 1.0, nxt / i, nxt))
        keep = pos != up  # up rows close at F > 0, down rows at F <= 0
        rows, k, i, up, fac, kl, fresh, k_end, k_floor, sub = (
            v[keep] for v in (rows, nxt, i, up, fac, kl, fresh, k_end, k_floor, sub))
        if not rows.size:
            break

    # every bracket with F < 0 < F+ at its ends: regula falsi on F
    rows = np.flatnonzero((lo_f < 0.0) & (hi_f > 0.0))
    if rows.size:
        _, bv[rows], bk[rows], n = _illinois(sample, None, np.log(lo_k[rows]), lo_f[rows],
                                             np.log(hi_k[rows]), hi_f[rows], ax[rows],
                                             bv[rows], bk[rows])
        steps += n
    return bv, bk, attained & (bv < inf), steps


def _modular_root(sample, k, i, s_top, ax, bv, bk, target, tol=LOG_TOL):
    """(s, bv, bk, steps) for rows with one sample (k, I): s is the lower end,
    log I(e^s x) <= target there, of a bracket of width tol of the root of
    log I(e^s x) = target, searched for in s = log k between the floor (k
    and k max|x| above 1e-300) and s_top; s_top where log I <= target up
    to there.  I(kx)/k is nondecreasing, so the root lies between log k and
    log k - (log I - target), and regula falsi on log I - target settles
    it.  bv, bk: each row's best g and its k, updated by every sample."""
    s, f = np.log(k), np.log(i) - target
    s_floor = np.maximum(-np.log(ax.max(axis=1)), 0.0) + _LOG_TINY
    s_b = np.minimum(np.maximum(s - f, s_floor), s_top)
    kb = np.exp(s_b)
    i_b, _, g = sample(kb, ax)
    better = g < bv
    bv, bk = np.where(better, g, bv), np.where(better, kb, bk)
    f_b = np.log(i_b) - target
    below = f <= 0.0  # the root lies above s
    lo, f_lo = np.where(below, s, s_b), np.where(below, f, f_b)
    hi, f_hi = np.where(below, s_b, s), np.where(below, f_b, f)
    s_l, steps = s_b, 1  # no sign change: the root is at s_b, to rounding or at an end
    rows = np.flatnonzero((f_lo <= 0.0) & (f_hi > 0.0))
    if rows.size:
        s_l = s_l.copy()
        s_l[rows], bv[rows], bk[rows], n = _illinois(sample, target[rows], lo[rows], f_lo[rows],
                                                     hi[rows], f_hi[rows], ax[rows],
                                                     bv[rows], bk[rows], tol)
        steps += n
    return s_l, bv, bk, steps


def _illinois(sample, target, lo, f_lo, hi, f_hi, ax, bv, bk, tol=LOG_TOL):
    """Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971) in s = log k on
    each row's bracket, F(lo) <= 0 < F(hi) for a nondecreasing F: log I -
    target (one log target per row), or the first-order F when target is
    None.  (s0, f0) is the retained end and (s1, f1) the latest sample; f0
    is halved each time it is retained again.  A step bisects while an end's
    F is infinite, and where the last three steps did not halve the bracket,
    so the bracket halves at least every fourth step; else it lands at least
    half the tolerance inside the bracket, so a root found to that width
    closes it.  A row stops once its bracket is as narrow as the scalar
    loop's, tol + 4 eps |s| at the latest sample s, and is sampled no more.  Returns each
    row's final lower end, its best g and that g's k (bv, bk updated), and
    the number of steps."""
    where = np.where
    s_out, v_out, k_out = lo.copy(), bv.copy(), bk.copy()
    at = np.arange(len(lo))
    s0, f0, s1, f1 = lo, f_lo, hi, f_hi
    p1 = np.ones(len(lo), dtype=bool)  # f1 > 0
    w1 = w2 = w3 = np.full(len(lo), math.inf)  # the bracket's width 1, 2 and 3 steps back
    t = 0
    while True:
        d = s0 - s1
        width = np.abs(d)
        h2 = tol + 4.0 * _EPS * np.abs(s1)  # twice the least step
        done = width <= h2
        if np.count_nonzero(done):
            s_out[at[done]] = where(p1, s0, s1)[done]
            v_out[at[done]], k_out[at[done]] = bv[done], bk[done]
            keep = ~done
            at, s0, f0, s1, f1, p1, h2, bv, bk, ax, d, width, w1, w2, w3 = (
                v[keep] for v in (at, s0, f0, s1, f1, p1, h2, bv, bk, ax, d, width, w1, w2, w3))
            if target is not None:
                target = target[keep]
            if not at.size:
                return s_out, v_out, k_out, t
        # the secant's fraction of the way from s1 to s0
        r = where(np.isfinite(f0 + f1), f1 / (f1 - f0), 0.5)
        hr = 0.5 * h2 / width
        r = where(width > 0.5 * w3, 0.5, np.minimum(np.maximum(r, hr), 1.0 - hr))
        w1, w2, w3 = width, w1, w2
        t += 1
        s = s1 + r * d
        k = np.exp(s)
        i, f, g = sample(k, ax)
        if target is not None:
            f = np.log(i) - target
        better = g < bv
        bv, bk = where(better, g, bv), where(better, k, bk)
        pos = f > 0.0
        flip = pos != p1  # F changed sign: the latest end is retained
        s0, f0 = where(flip, s1, s0), where(flip, f1, 0.5 * f0)
        s1, f1, p1 = s, f, pos


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
    equation: k comes from generated_norm's search under the sum norm, whose
    bracket has J <= 1 at its lower end and J > 1 at its upper end (both at
    the K_CAP * k_L cap when J <= 1 up to there).  y is taken on the chord
    between the ends' derivatives, where their J average to 1 (feasible, as
    Psi is convex): exact where a kink of Phi makes J jump across 1.  The
    certificate y is checked against the exact conjugate and, while its
    conjugate modular c exceeds 1, replaced by y / c (Psi is convex with
    Psi(0) = 0, so that is within rounding of the dual ball) and checked
    again, so the value is the pairing with a feasible y.
    """
    modular_at = modular_of(phi, x)
    if modular_at.top_inf > 0.0:
        raise PreconditionError("dual norm needs x supported on finite atoms")
    if modular_at.top == 0.0:
        return 0.0
    root = _first_order_root(phi, _SUM_NORM, modular_at, LOG_TOL)
    w, ax = modular_at.finite_atoms()
    (_, k_lo, _, _, m_lo), (_, k_hi, _, _, m_hi) = root[2:4]
    y_lo, y_hi = phi.derivative_array(k_lo * ax), phi.derivative_array(k_hi * ax)
    t = 1.0 if m_hi <= 1.0 else (1.0 - m_lo) / (m_hi - m_lo)
    y = y_lo + t * (y_hi - y_lo)

    exact = float(np.sum(w * young_conjugate_many(phi, y)))
    while exact > 1.0:  # +inf gives y = 0
        y = y / exact
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
