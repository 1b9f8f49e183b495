"""The norm engine: Luxemburg norm, the lattice-norm-generated family, a
dual-norm lower bound, and the unit-ball bound check.

The generated norm of x is  inf_{k>0} (1/k) p((1, I(k x)))  where I is the
convex modular.  No closed form exists in general, so the engine brackets
the infimum by doubling/halving from k = 1, scans a log grid (the map is
continuous but not provably quasi-convex, so the scan keeps the record
honest), polishes with golden-section search on log k, and finally refines
any finite/+inf jump boundary by bisection on the exact finiteness
predicate.  Every evaluation updates a best-seen record, and the reported
value is exactly the best g(k) the engine ever computed.
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
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    """Minimise g(k) = (1/k) p((1, modular(k x))) over k > 0."""
    if x.is_zero:
        return NormResult(0.0, None, False, None, 0)

    state = {"evals": 0, "best_k": None, "best_v": math.inf,
             "first_inf": None, "max_finite": None}

    def g(k: float) -> float:
        state["evals"] += 1
        m = modular(phi, x, scale=k)
        if m.is_infinite:
            fi = state["first_inf"]
            state["first_inf"] = k if fi is None else min(fi, k)
            return math.inf
        val = p.evaluate((1.0, m.value)) / k
        mf = state["max_finite"]
        state["max_finite"] = k if mf is None else max(mf, k)
        if val < state["best_v"]:
            state["best_v"], state["best_k"] = val, k
        return val

    # find a finite start; the modular only grows with k, so halve toward 0
    k0 = 1.0
    while math.isinf(g(k0)):
        k0 *= 0.5
        if k0 < 1e-300:
            return NormResult(math.inf, None, False, None, state["evals"])

    hit_cap = False
    k_hi = k0
    while k_hi < k_cap:
        k_next = min(2.0 * k_hi, k_cap)
        v = g(k_next)
        k_hi = k_next
        if math.isinf(v) or v > state["best_v"] * (1.0 + 1e-12):
            break
    if k_hi >= k_cap and not math.isinf(g(k_cap)) and state["best_k"] is not None \
            and state["best_k"] >= k_cap * 0.999:
        hit_cap = True

    k_lo = k0
    while k_lo > 1e-300:
        k_next = 0.5 * k_lo
        v = g(k_next)
        k_lo = k_next
        if v > state["best_v"] * (1.0 + 1e-12):
            break
    bracket = (k_lo, k_hi)

    # coarse log scan; spacing kept below sqrt(2) so the golden-section
    # bracket around the scan argmin always contains the scanned basin
    n_scan = max(65, 2 * int(math.log2(max(k_hi / k_lo, 2.0))) + 3)
    ks = np.geomspace(k_lo, k_hi, n_scan)
    vals = [g(float(k)) for k in ks]
    for hint in k_hints:
        if 0.0 < hint <= k_cap:
            g(float(hint))

    i_best = int(np.argmin(vals))
    a = math.log(ks[max(i_best - 1, 0)])
    b = math.log(ks[min(i_best + 1, n_scan - 1)])
    if b > a:
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        fc, fd = g(math.exp(c)), g(math.exp(d))
        while b - a > log_tol:
            if fc <= fd:
                b, d, fd = d, c, fc
                c = b - _GOLDEN * (b - a)
                fc = g(math.exp(c))
            else:
                a, c, fc = c, d, fd
                d = a + _GOLDEN * (b - a)
                fd = g(math.exp(d))

    # refine a finite/inf jump: the finiteness predicate is exact, so the
    # boundary can be located to machine precision
    if state["first_inf"] is not None and state["max_finite"] is not None:
        lo, hi = state["max_finite"], state["first_inf"]
        while hi - lo > 4e-16 * hi:
            mid = math.sqrt(lo * hi)
            if math.isinf(g(mid)):
                hi = mid
            else:
                lo = mid

    attained = not hit_cap
    return NormResult(value=state["best_v"], k_star=state["best_k"],
                      attained=attained, bracket=bracket, evaluations=state["evals"])


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
