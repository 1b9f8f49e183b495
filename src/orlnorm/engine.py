"""The norm engine: Luxemburg norm, the lattice-norm-generated family, a
dual-norm lower bound, and the unit-ball bound check.

The generated norm of x is  inf_{k>0} g(k),  g(k) = (1/k) p((1, I(k x))).
f(t) = p((1, I(t x))) is convex and nondecreasing, so g is convex in 1/k
(a perspective).  p is 1-homogeneous, so p(1, I) = p_1 + I p_2 (Euler) and

    k^2 g'(k) = p_2(1, I) J(k) - p_1(1, I),  J(k) = sum w (u Phi'(u) - Phi(u)),

u = k|x|, Phi' the right derivative; by Young's equality J is the conjugate
modular of Phi'(k|x|), nondecreasing in k.  The minimiser is the sign change
of one function F of k (_first_order): log I under the max norm (the
Luxemburg point I(k_L x) = 1), log J under the sum norm (the Amemiya/Orlicz
equality J = 1; Hudzik and Maligranda, Indag. Math. 11, 2000), log J +
(q - 1) log I under the q-mean, and b J - a under a boundary ball, on its
facet a u + b v = 1 that holds (1, I).  Steps that double in log k from
k = 1/max|x| bracket it (luxemburg_root under the max norm), below the
finite/+inf jump, taken in closed form from the zero bound of Phi, and
below K_CAP k_L, so the search is homogeneous in x.  F jumps up at k =
b/|x_i| for a kink b of Phi, and at I(kx) = v/u for a corner (u, v) of a
boundary ball, a Luxemburg-type root: binary searches over those points
narrow the bracket, and a jump of F across 0 at one of them is the
minimiser; Brent's zeroin on log k settles a smooth piece.  A 6-atom call
takes 4-7 evaluations; the value reported is the best g(k) evaluated.

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
    if root is None or math.isinf(root.best_v):
        return NormResult(math.inf, None, False, None, 0 if root is None else root.evaluations)
    # near the minimiser g is flat to rounding, and the best sample may lie
    # outside the tightest bracket; every sample below lo has F <= 0
    k = root.best_k
    return NormResult(value=root.best_v, k_star=k, attained=root.attained,
                      bracket=(min(root.lo[0], k), max(root.hi[0], k)),
                      evaluations=root.evaluations)


def _first_order(p: PlanarNorm):
    """F(I, J) with the sign of p_2(1, I) J - p_1(1, I), the sign of g'(k+)."""
    if p.kind == "linf":
        return lambda i, j: math.log(i) if i > 0.0 else -math.inf
    q1 = p.q - 1.0 if p.kind == "lq" else 0.0  # the sum norm is the q = 1 mean

    def first_order(i: float, j: float) -> float:
        if not i + j < math.inf:
            return math.inf
        if p.kind == "boundary":  # b J - a on the facet a u + b v = 1 holding (1, I+)
            a, b = p.facets[bisect_right(p.corners, i)]
            return b * j - a
        if j <= 0.0 or i <= 0.0 < q1:  # the sign of I^(q-1) J - 1
            return -math.inf
        return math.log(j) + q1 * math.log(i) if q1 else math.log(j)
    return first_order


@dataclass
class _Root:
    """The search's record: the best g sampled and its k, and the bracket
    ends (k, F, I, J), F <= 0 at lo and F > 0 at hi."""
    best_v: float = math.inf
    best_k: float | None = None
    lo: tuple[float, float, float, float] | None = None
    hi: tuple[float, float, float, float] | None = None
    attained: bool = True
    evaluations: int = 0


def _first_order_root(phi: OrliczFunction, p: PlanarNorm, modular_at,
                      log_tol: float) -> _Root | None:
    """Find the minimiser of g as the sign change of F in k, recording g at
    every sample; None when I(kx) = +inf for all k > 0."""
    s_start, s_top = log_k_span(modular_at.top)
    top = _jump_top(phi, modular_at.top_inf, s_top)
    if top is None:
        return None
    k_top, s_top, open_top = top  # open_top: false while k_top is the jump
    p_abs, first_order = p._eval_abs, _first_order(p)
    # under the max norm F = log I needs no Phi'
    pair = (lambda k: (modular_at(k), 0.0)) if p.kind == "linf" else modular_at.with_conjugate
    root = _Root()
    kl_floor = 0.0  # k_L >= k / max(1, I(kx)) at every sample: I(kx)/k is nondecreasing
    exp, inf = math.exp, math.inf

    def k_of(s: float) -> float:
        if s >= s_top:
            return k_top
        k = exp(s)
        return k_top if k_top < k else k

    def sample(k: float) -> tuple[float, float, float]:
        """Record g at k and return (F, I, J) there."""
        nonlocal kl_floor
        i, j = pair(k)
        root.evaluations += 1
        val = p_abs(1.0, i) / k if i < inf and k > 0.0 else inf  # k underflows
        if val < root.best_v:
            root.best_v, root.best_k = val, k
        f = first_order(i, j)
        if f <= 0.0:
            if root.lo is None or k > root.lo[0]:
                root.lo = (k, f, i, j)
        elif root.hi is None or k < root.hi[0]:
            root.hi = (k, f, i, j)
        c = k / i if i > 1.0 else k
        if c > kl_floor:
            kl_floor = c
        return f, i, j

    factor = 2.0
    if p.kind == "linf":  # the Luxemburg point is the minimiser
        _, hi = luxemburg_root(lambda s: sample(k_of(s))[1], phi, modular_at.top_finite,
                               min(s_start, s_top), s_top, log_tol)
        if k_of(hi) not in {end[0] for end in (root.lo, root.hi) if end}:
            sample(k_of(hi))  # the top, where luxemburg_root stops unsampled
    elif sample(min(1.0 / modular_at.top, k_top))[0] <= 0.0:
        k_end, capped = k_top, False
        while root.hi is None and root.lo[0] < k_end:
            k = root.lo[0] * factor
            factor *= factor
            if not capped and k >= K_CAP * kl_floor:  # the cap K_CAP k_L may bind
                capped = True
                s_lo, i_lo = math.log(root.lo[0]), root.lo[2]  # sampled already
                s_l, _ = luxemburg_root(lambda s: i_lo if s == s_lo else sample(k_of(s))[1],
                                        phi, modular_at.top_finite, s_lo, s_top, log_tol)
                k_end = min(k_end, K_CAP * math.exp(s_l))
                continue
            sample(min(k, k_end))
    else:
        k_floor = math.exp(max(s_start, 0.0) + _LOG_TINY)  # k and k max|x| above 1e-300
        while root.lo is None and root.hi[0] > k_floor:
            sample(max(root.hi[0] / factor, k_floor))
            factor *= factor
    if root.lo and root.hi and root.lo[0] < root.hi[0] and p.kind != "linf":
        # Phi' jumps at the kinks: a binary search over them, each with F's left
        # limit from the drop of J; then zeroin on the smooth piece left, unless
        # F = 0 at lo or F jumps across 0 at hi (the minimiser is that end)
        k_hi, f_hi, i_hi, j_hi = root.hi  # f_hi: F's left limit at hi
        candidates = _kink_candidates(phi, modular_at, root.lo[0], k_hi)
        if candidates and candidates[-1][0] == k_hi:
            f_hi = first_order(i_hi, j_hi - candidates.pop()[1])
        while candidates:
            m = len(candidates) // 2
            k, drop = candidates[m]
            f, i, j = sample(k)
            if f <= 0.0:
                candidates = candidates[m + 1:]
            else:
                candidates, f_hi = candidates[:m], first_order(i, j - drop)
        # then over a boundary ball's corners c in the bracket, each solved as I(kx)/c
        # = 1: F's limits there are the facets' b J - a, and an end moves onto it
        if p.kind == "boundary":
            corners, facets = p.corners, p.facets
            lo_t, hi_t = bisect_right(corners, root.lo[2]), bisect_right(corners, root.hi[2])
            while lo_t < hi_t:
                t = (lo_t + hi_t) // 2
                c, hi = corners[t], root.hi
                s_lo, s_hi = math.log(root.lo[0]), math.log(hi[0])
                seen = {s_lo: root.lo, s_hi: hi}  # (k, F, I, J) at each s sampled
                ends = luxemburg_root(lambda s: (seen[s] if s in seen else seen.setdefault(
                    s, (k_of(s), *sample(k_of(s)))))[2] / c, phi, modular_at.top_finite,
                    s_lo, s_hi, log_tol)
                # on the corner to the solve's width: its lower end, if not a flat zone's
                k, _, i, j = seen.get(ends[0]) or seen[ends[1]]
                (a0, b0), (a1, b1) = facets[t], facets[t + 1]
                f_hi = f_hi if root.hi is hi else root.hi[1]  # a sample of the solve has F > 0
                if b1 * j - a1 <= 0.0:  # F <= 0 past the corner
                    lo_t, root.lo = t + 1, max(root.lo, (k, b1 * j - a1, i, j))
                elif k <= root.hi[0]:
                    hi_t, root.hi, f_hi = t, (k, b1 * j - a1, i, j), b0 * j - a0
                lo_t = max(lo_t, bisect_right(corners, root.lo[2]))
                hi_t = min(hi_t, bisect_right(corners, root.hi[2]))
        (k_lo, f_lo, _, _), k_hi = root.lo, root.hi[0]
        if f_lo < 0.0 < f_hi:
            _zeroin(lambda s: sample(k_of(s))[0], math.log(k_lo), f_lo, math.log(k_hi), f_hi,
                    log_tol)
    if root.lo is None:  # F > 0 down to the floor, or I > 1 at a root found to rounding
        root.lo = root.hi
    if root.hi is None:  # F <= 0 up to the top: attained only at the jump
        root.hi = root.lo
        root.attained = root.lo[0] == k_top and not open_top
        if p.kind == "linf" and root.lo[0] < k_top:  # luxemburg_root ended on I = 1
            root.attained = True
    return root


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
    itself is.  The bracket is the scalar engine's: the first sample at
    k = 1/max|x|, then steps that double in log k, k and k max|x| within
    [1e-300, 1e300], and k <= K_CAP * k_L off the max norm, k_L the
    Luxemburg point I(k_L x) = 1, solved for (on log I, by the same regula
    falsi) once the steps reach K_CAP times a lower bound of it.  Illinois
    regula falsi (Dowell and Jarratt, BIT 11, 1971) in s = log k then
    narrows each bracket to width LOG_TOL, bisecting where the last three
    steps did not halve the bracket and while an end's F is infinite (a
    flat zone below, an overflow above).  A row stops at that width and is
    sampled no more.  Its value is the least g sampled, an upper bound of
    the infimum, within 1e-11 relative of generated_norm's; ``attained`` is
    false exactly when F <= 0 all the way to the cap.  All-zero rows give
    0.0, nan and False.

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
    s_start = -np.log(top)  # log_k_span's span: k and k max|x| within [1e-300, 1e300]
    k_top = np.exp(np.minimum(s_start, 0.0) - _LOG_TINY)
    k_floor = np.exp(np.maximum(s_start, 0.0) + _LOG_TINY)

    # The bracket, as the scalar engine takes it: from k = 1/max|x| upward
    # while F <= 0, else downward, the factor squaring at each step.
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
    closes it.  A row stops once its bracket is as narrow as zeroin's, tol +
    4 eps |s| at the latest sample s, and is sampled no more.  Returns each
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


def _kink_candidates(phi: OrliczFunction, modular_at, lo: float,
                     hi: float) -> list[tuple[float, float]]:
    """The k in (lo, hi] where Phi' jumps on a finite atom, k |x_i| = b for
    a kink b of Phi, sorted, each with the drop of J from its right to its
    left limit there: the sum of w_i b (the jump of Phi' at b)."""
    if not phi.kinks:
        return []
    drops: dict[float, float] = {}
    ws, az = modular_at.finite_atoms()
    for w, a in zip(ws.tolist(), az.tolist()):
        for b, jump in phi.kinks if a > 0.0 else ():
            k = b / a
            while k * a < b:  # the modular takes u = k |x_i|: at k it must reach b
                k = math.nextafter(k, math.inf)
            if lo < k <= hi:
                drops[k] = drops.get(k, 0.0) + w * b * jump
    return sorted(drops.items())


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
    (k_lo, _, _, m_lo), (k_hi, _, _, m_hi) = root.lo, root.hi
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
