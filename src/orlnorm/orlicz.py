"""Orlicz functions: catalog, zero set, growth analysis and Young conjugation.

An Orlicz function is an even convex Phi with Phi(0) = 0 that is not
identically zero.  The catalog kinds are

    power(q)                |u|^q                     (q >= 1)
    exp_minus()             e^|u| - |u| - 1
    flat_then_power(a, q)   max(0, |u| - a)^q         (a > 0, q >= 1)
    piecewise_linear(pts)   convex polyline through pts, extended linearly

Values beyond double range evaluate to +inf; the modular layer treats that
as an honest "too large to represent".  A weighted term w Phi(u) is +inf only
when it is itself past double range: where Phi(u) overflows on an atom of
tiny weight, the sums take the term in log form (log_pair_array).

Each kind carries its convex analysis in closed form (Rockafellar, Convex
Analysis, 1970, sections 12 and 26): ``zero_bound``, the largest u with
Phi(u) = 0; ``slope_limit``, the limit of Phi(u)/u; the right derivative;
the Young conjugate; the strict-convexity verdict; and the doubling
verdict in each regime, read from the ratio Phi(2u)/Phi(u) at its end.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import DomainError, reading_descriptor

DELTA2_FAIL_RATIO = 1e8  # exp_minus's doubling witness is the u where Phi(2u)/Phi(u) passes it
SERIES_CUT = 1e-5  # exp_minus takes Phi(u) from its series below this u: expm1(u) - u cancels there
_TERM_CAP = 2.0 ** 1000  # finite_bound keeps pair_terms below this, 2^24 under the largest double


@dataclass(frozen=True)
class OrliczFunction:
    kind: str  # "power" | "exp_minus" | "flat_then_power" | "pwl"
    q: float = math.nan
    a: float = math.nan
    xs: tuple[float, ...] = ()
    ys: tuple[float, ...] = ()
    zero_bound: float = 0.0     # largest u >= 0 with Phi(u) = 0

    @property
    def slope_limit(self) -> float:
        """lim Phi(u)/u as u -> inf: the tail slope of a polyline, 1 for the
        power kinds with q = 1, +inf otherwise (q is nan for exp_minus)."""
        if self.kind == "pwl":
            return float(self._slopes[-1])
        return 1.0 if self.q == 1.0 else math.inf

    def evaluate(self, u: float) -> float:
        au = abs(u)
        if not math.isfinite(au):
            raise DomainError(f"non-finite argument {u!r}")
        # the kernel on one unit atom: 0.0 + 1.0 * f is f for every f >= 0
        return self.pair_sum(((1.0, au),), 1.0)[0]

    __call__ = evaluate

    @cached_property
    def pair_sum(self) -> Callable:
        """This kind's summing kernel, the one scalar evaluator of Phi:
        pair_sum(atoms, s) = (sum w Phi(u), sum w (u Phi'(u) - Phi(u))) over
        (w, a) pairs, a >= 0 finite, u = s a with s >= 0 and s a finite, Phi'
        the right derivative.  It adds the atoms in order, so sum w Phi(u) is
        bit for bit that of an atom-by-atom loop over evaluate wherever that
        loop is finite.  Where a term overflows (Phi(u) or u Phi'(u) past
        double range, as on a steep atom of tiny weight), one check after
        the loop hands the call to mend_sums, which takes that term as
        exp(log w + its log form): +inf only when the term itself is."""
        return _KERNELS[self.kind](self)

    @cached_property
    def kinks(self) -> tuple[tuple[float, float], ...]:
        """(u, jump of Phi' at u) for each u > 0 where the derivative jumps:
        a polyline's inner breakpoints, and a for flat_then_power(a, 1)."""
        if self.kind == "pwl":
            jumps = np.diff(self._slopes)  # 0 at the last breakpoint
            return tuple((x, float(d)) for x, d in zip(self.xs[1:], jumps) if d > 0.0)
        return ((self.a, 1.0),) if self.kind == "flat_then_power" and self.q == 1.0 else ()

    @cached_property
    def _slopes(self) -> np.ndarray:
        """A polyline's slope on each piece [xs[m], xs[m+1]), the last piece
        [xs[-1], inf) taking the tail slope, the last segment's."""
        slopes = np.diff(self.ys) / np.diff(self.xs)
        return np.append(slopes, slopes[-1])

    @cached_property
    def _segment_psi(self) -> np.ndarray:
        """u Phi'(u) - Phi(u) on each piece of a polyline: the constant
        Psi(slope) = slope x - y at the piece's left end, 0 on a piece
        through the origin."""
        return self._slopes * np.array(self.xs) - np.array(self.ys)

    def _piece(self, au: np.ndarray) -> np.ndarray:
        """The index m of the polyline piece [xs[m], xs[m+1]) holding each au >= 0."""
        return np.searchsorted(self.xs, au, side="right") - 1

    def evaluate_array(self, u: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            return self._phi_array(np.abs(np.asarray(u, dtype=float)))

    def derivative_array(self, u: np.ndarray) -> np.ndarray:
        """The right derivative of Phi on [0, inf), taken at |u|."""
        au = np.abs(np.asarray(u, dtype=float))
        k = self.kind
        with np.errstate(over="ignore"):
            if k == "power":
                return self.q * au ** (self.q - 1.0)
            if k == "exp_minus":
                return np.expm1(au)
            if k == "flat_then_power":
                # 0 ** 0 is 1 in numpy: the flat zone is masked, not powered
                t = np.maximum(0.0, au - self.a)
                return np.where(au >= self.a, self.q * t ** (self.q - 1.0), 0.0)
        return self._slopes[self._piece(au)]

    def pair_array(self, au: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(Phi(au), au Phi'(au) - Phi(au)) for an array au >= 0, Phi' the
        right derivative: the terms of I and J, the second in closed form so
        that it does not cancel: the constant Psi(slope) on a linear piece of
        Phi, (q - 1) Phi(u) for a power.  A term past double range is +inf,
        silently: pair_terms under an error context."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.pair_terms(au)

    def pair_terms(self, au: np.ndarray,
                   series: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
        """pair_array's terms, bit for bit, without its error context: for a
        caller that holds one, or whose au all lie below finite_bound, where
        no term overflows.  ``series`` says whether some au is below
        SERIES_CUT, where exp_minus takes its series; None tests au."""
        k, q = self.kind, self.q
        if k == "flat_then_power":
            t = np.maximum(0.0, au - self.a)
            if q == 1.0:  # Psi(1) = a past the flat zone
                return t, np.where(au >= self.a, self.a, 0.0)
            # t^(q-1) ((q - 1) u + a), 0 on the flat zone as 0 ** (q - 1) = 0;
            # with a past _TERM_CAP, (q - 1) u + a may round to +inf there: 0 * inf
            jt = t ** (q - 1.0) * ((q - 1.0) * au + self.a)
            return t ** q, np.where(t > 0.0, jt, 0.0) if self.a > _TERM_CAP else jt
        f = self._phi_array(au, series)
        if k == "power":  # (q - 1) u^q
            return f, (q - 1.0) * f
        if k == "exp_minus":  # Phi'(u) = Phi(u) + u
            return f, au * (f + au) - f
        return f, self._segment_psi[self._piece(au)]

    @cached_property
    def finite_bound(self) -> float:
        """A u > 0 such that pair_terms raises no floating-point error on au
        below it: every term there is at most about _TERM_CAP = 2^1000.
        Float multiplication by s > 0 is monotone, so s max|x| below it puts
        every s |x_i| below it.  Per kind, with q u^q bounding both terms of
        power(q) and of flat_then_power(a, q) (there t = u - a <= u, and (q -
        1) u + a < q u where t > 0): 2^e with e = floor((1000 - log2 q) / q);
        686 for exp_minus, where u e^u, which bounds u (Phi(u) + u), is below
        2^1000; (2^1000 - max ys) / max(max |slope|, 1) for a polyline, whose
        Phi(u) is at most max ys plus its steepest slope times u; and 0 for
        flat_then_power with a past 2^1000, where (q - 1) u + a may itself
        overflow."""
        if self.kind == "exp_minus":
            return 686.0
        if self.kind == "pwl":
            return (_TERM_CAP - max(self.ys)) / max(float(np.abs(self._slopes).max()), 1.0)
        if self.kind == "flat_then_power" and self.a > _TERM_CAP:
            return 0.0
        return 2.0 ** math.floor((1000.0 - math.log2(self.q)) / self.q)

    def log_pair_array(self, au: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(log Phi(au), log(au Phi'(au) - Phi(au))) for an array au >= 0, -inf
        where the term is 0: in closed form for the steep kinds (power,
        exp_minus, flat_then_power with q > 1), finite wherever au is, past
        the point where Phi or u Phi' overflows; the logs of pair_array's
        terms for the others, whose Phi grows linearly in u and whose J term
        is constant."""
        k, q = self.kind, self.q
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if k == "power":  # u Phi' - Phi = (q - 1) u^q
                lf = q * np.log(au)
                return lf, np.log(q - 1.0) + lf
            if k == "flat_then_power" and q > 1.0:  # t^q and t^(q-1) ((q - 1) u + a), t = u - a
                lt = np.log(np.maximum(0.0, au - self.a))
                lj = (q - 1.0) * lt + np.log((q - 1.0) * au + self.a)
                # -inf + inf on the flat zone, as in pair_terms
                return q * lt, np.where(lt > -np.inf, lj, -np.inf) if self.a > _TERM_CAP else lj
            f, jt = self.pair_terms(au)
            lf, lj = np.log(f), np.log(np.maximum(jt, 0.0))
            if k != "exp_minus":
                return lf, lj
            # e^u (1 - (1 + u) e^-u) and e^u (u - 1 + e^-u), for u > 1
            big, e = au > 1.0, np.exp(-au)
            return (np.where(big, au + np.log1p(-(1.0 + au) * e), lf),
                    np.where(big, au + np.log(au - 1.0 + e), lj))

    def mend_sums(self, w: np.ndarray, au: np.ndarray, i: np.ndarray, j: np.ndarray):
        """I and J for the rows of the (N, n) array au and weights w > 0,
        from the plain sums i and j of each row's terms: where a row's I + J
        is not finite, a term overflowed, and the row is summed again with each term that pair_array makes non-finite
        taken as exp(log w + its log form); I keeps i wherever i is finite,
        so it stays bit for bit the plain sum there.  i and j are updated in
        place.  The summing kernels, modular_of and the batched engine call
        it once they see a sum that is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):  # i + j may overflow, as may the terms
            bad = np.flatnonzero(~(i + j < math.inf))
            f, jt = self.pair_terms(au[bad])
            lf, lj = self.log_pair_array(au[bad])
            ti, tj = w * f, w * jt
            lw = np.log(w)
            ti = np.where(np.isfinite(ti), ti, np.exp(lw + lf)).sum(axis=-1)
            i[bad] = np.where(i[bad] < math.inf, i[bad], ti)
            j[bad] = np.where(np.isfinite(tj), tj, np.exp(lw + lj)).sum(axis=-1)
        return i, j

    def _phi_array(self, au: np.ndarray, series: bool | None = None) -> np.ndarray:
        k = self.kind
        if k == "power":
            return au ** self.q
        if k == "exp_minus":
            out = np.expm1(au) - au
            if series is None:
                series = np.any(au < SERIES_CUT)
            if series:  # the series, as in the kernel
                out = np.where(au < SERIES_CUT, au * au * (0.5 + au * (1.0 / 6.0 + au / 24.0)), out)
            return out
        if k == "flat_then_power":
            t = np.maximum(0.0, au - self.a)
            return t ** self.q
        m = self._piece(au)
        return np.take(self.ys, m) + self._slopes[m] * (au - np.take(self.xs, m))

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


# ---------------------------------------------------------------------------
# Summing kernels: one loop per kind, the per-atom arithmetic of Phi and of
# u Phi'(u) inline.  These are the only scalar expressions of Phi; the numpy
# path (_phi_array, pair_array) writes the same expressions over arrays.


def _overflow_free(phi: OrliczFunction, atoms, s: float, i: float, j: float):
    """A kernel's (I, J) once its sum is not finite: phi.mend_sums on its atoms."""
    w, a = np.array(atoms, dtype=float).reshape(-1, 2).T
    i, j = phi.mend_sums(w, s * a[None, :], np.array([i]), np.array([j]))
    return float(i[0]), float(j[0])


def _power_sum(phi: OrliczFunction) -> Callable:
    q, q1, inf = phi.q, phi.q - 1.0, math.inf

    def pair_sum(atoms, s: float) -> tuple[float, float]:
        i = j = 0.0
        for w, a in atoms:
            try:
                f = (s * a) ** q
            except OverflowError:
                f = math.inf
            i += w * f
            j += w * (q1 * f)  # u Phi'(u) - Phi(u) = (q - 1) Phi(u)
        return (i, j) if i + j < inf else _overflow_free(phi, atoms, s, i, j)

    return pair_sum


def _exp_minus_sum(phi: OrliczFunction) -> Callable:
    expm1, inf, cut = math.expm1, math.inf, SERIES_CUT

    def pair_sum(atoms, s: float) -> tuple[float, float]:
        i = j = 0.0
        for w, a in atoms:
            u = s * a
            if u < cut:  # expm1(u) - u cancels there: the series
                f = u * u * (0.5 + u * (1.0 / 6.0 + u / 24.0))
            else:
                try:
                    f = expm1(u) - u
                except OverflowError:
                    f = inf
            i += w * f
            j += w * (u * (f + u) - f)  # Phi'(u) = e^u - 1 = Phi(u) + u
        return (i, j) if i + j < inf else _overflow_free(phi, atoms, s, i, j)

    return pair_sum


def _flat_then_power_sum(phi: OrliczFunction) -> Callable:
    # on the flat zone u < a both terms are 0 and the atom is skipped: adding
    # +0.0 to a sum of nonnegative terms leaves its bits as they are
    a0, q, inf = phi.a, phi.q, math.inf
    q1 = q - 1.0

    def pair_sum(atoms, s: float) -> tuple[float, float]:
        i = j = 0.0
        for w, a in atoms:
            u = s * a
            if u < a0:
                continue
            t = u - a0
            try:
                f = t ** q
            except OverflowError:
                f = inf
            try:  # u Phi'(u) - Phi(u) = t^(q-1) ((q - 1) u + a): a when q = 1 (0 ** 0 = 1)
                c = t ** q1 * (q1 * u + a0)
            except OverflowError:
                c = inf
            i += w * f
            j += w * c
        return (i, j) if i + j < inf else _overflow_free(phi, atoms, s, i, j)

    return pair_sum


def _pwl_sum(phi: OrliczFunction) -> Callable:
    # on piece m, [xs[m], xs[m+1]) or [xs[-1], inf), Phi(u) = ys[m] + slope (u -
    # xs[m]) and u Phi'(u) - Phi(u) is the piece's constant Psi(slope)
    xs, ys, inf = phi.xs, phi.ys, math.inf
    slopes, psi = phi._slopes.tolist(), phi._segment_psi.tolist()

    def pair_sum(atoms, s: float) -> tuple[float, float]:
        i = j = 0.0
        for w, a in atoms:
            u = s * a
            m = bisect_right(xs, u) - 1
            i += w * (ys[m] + slopes[m] * (u - xs[m]))
            j += w * psi[m]
        return (i, j) if i + j < inf else _overflow_free(phi, atoms, s, i, j)

    return pair_sum


_KERNELS = {"power": _power_sum, "exp_minus": _exp_minus_sum,
            "flat_then_power": _flat_then_power_sum, "pwl": _pwl_sum}


def power(q: float) -> OrliczFunction:
    q = float(q)
    if not math.isfinite(q) or q < 1.0:
        raise DomainError(f"power kind needs finite q >= 1, got {q!r}")
    return OrliczFunction("power", q=q)


def exp_minus() -> OrliczFunction:
    return OrliczFunction("exp_minus")


def flat_then_power(a: float, q: float) -> OrliczFunction:
    a, q = float(a), float(q)
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"flat_then_power needs a > 0, got {a!r}")
    if not math.isfinite(q) or q < 1.0:
        raise DomainError(f"flat_then_power needs q >= 1, got {q!r}")
    return OrliczFunction("flat_then_power", a=a, q=q, zero_bound=a)


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
    slopes = np.diff(ys) / np.diff(xs)
    if np.any(slopes[1:] < slopes[:-1] - 1e-12):
        raise DomainError("breakpoints must describe a convex function")
    if slopes[0] < -1e-12:
        raise DomainError("an even convex function cannot decrease on [0, inf)")
    if max(ys) == 0.0 and slopes[-1] <= 0.0:
        raise DomainError("the zero function is not an Orlicz function")
    # Phi vanishes exactly on [0, xs[i-1]] for the first i with ys[i] > 0
    first_positive = next(i for i, y in enumerate(ys) if y > 0.0)
    return OrliczFunction("pwl", xs=xs, ys=ys, zero_bound=xs[first_positive - 1])


def orlicz_from_descriptor(d: dict) -> OrliczFunction:
    with reading_descriptor("Orlicz", d):
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


def delta2_check(phi: OrliczFunction, regime: str) -> Delta2Report:
    """The doubling condition Phi(2u) <= K Phi(u) near zero, near infinity
    or for all u (Chen 1996; Rao and Ren 1991), per kind from the ratio
    Phi(2u)/Phi(u) at the regime's end.  At infinity it fails only for
    exp_minus, whose ratio grows like e^u (witness u = log DELTA2_FAIL_RATIO);
    at zero iff Phi has a flat zone, Phi(u) = 0 < Phi(2u) just below
    zero_bound (witness u = zero_bound, ratio +inf); globally iff either
    does.  ``constant`` is the ratio's limit at the regime's end (2^q, 4 for
    exp_minus, 2 on a polyline), and for the global regime its supremum: a
    polyline's ratio is monotone between its breakpoints and their halves.
    """
    if regime not in _REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    if phi.zero_bound > 0.0 and regime != REGIME_INFINITY:
        return Delta2Report(regime, False, None, phi.zero_bound, math.inf)
    if phi.kind == "exp_minus":
        if regime == REGIME_ZERO:  # Phi(u) ~ u^2 / 2
            return Delta2Report(regime, True, 4.0, None, None)
        u = math.log(DELTA2_FAIL_RATIO)
        return Delta2Report(regime, False, None, u, phi(2.0 * u) / phi(u))
    if phi.kind != "pwl":
        return Delta2Report(regime, True, 2.0 ** phi.q, None, None)
    k = 2.0
    if regime == REGIME_GLOBAL:
        us = np.array(phi.xs[1:])
        us = np.concatenate([us, 0.5 * us])
        k = max(k, float(np.max(phi.evaluate_array(2.0 * us) / phi.evaluate_array(us))))
    return Delta2Report(regime, True, k, None, None)


# ---------------------------------------------------------------------------
# Young conjugate


def young_conjugate_many(phi: OrliczFunction, vs) -> np.ndarray:
    """Psi(v) = sup_{u >= 0} (|v| u - Phi(u)) for an array of v, in closed
    form per kind; +inf where |v| exceeds the slope limit."""
    av = np.abs(np.asarray(vs, dtype=float))
    k = phi.kind
    with np.errstate(over="ignore"):
        if k == "exp_minus":
            out = (1.0 + av) * np.log1p(av) - av
        elif k == "pwl":
            # a convex polyline: the supremum sits at a breakpoint
            out = np.max(np.multiply.outer(av, phi.xs) - np.asarray(phi.ys), axis=-1)
        else:
            q = phi.q
            # |u|^q: the supremum is at u = (|v|/q)^(1/(q-1)); for q = 1 it is 0 up to |v| = 1
            out = np.zeros_like(av) if q == 1.0 else (q - 1.0) * (av / q) ** (q / (q - 1.0))
            if k == "flat_then_power":
                out = out + phi.a * av
    return np.where(av > phi.slope_limit, math.inf, out)


def young_conjugate(phi: OrliczFunction, v: float) -> float:
    """Young conjugate value at v, in [0, +inf]."""
    return float(young_conjugate_many(phi, [v])[0])


# ---------------------------------------------------------------------------
# Strict convexity


@dataclass(frozen=True)
class ConvexityProbe:
    strictly_convex: bool
    witness: tuple[float, float] | None
    gap: float | None = None


def strict_convexity_probe(phi: OrliczFunction) -> ConvexityProbe:
    """Strict convexity by kind: exp_minus and |u|^q with q > 1 are strictly
    convex.  Each generator is probed on a first piece, [0, zero_bound]
    when it has a flat zone, else the first polyline segment or [0, 1];
    gap is (Phi(u1)+Phi(u2))/2 - Phi((u1+u2)/2) at the piece's quarter
    points.  Every generator but the strictly convex ones is affine there,
    and the quarter points witness a midpoint equality; for the strictly
    convex ones gap is the margin of that midpoint (0.0625 for |u|^2, 6.5e-13
    for |u|^1.00000000001)."""
    hi = phi.zero_bound or (phi.xs[1] if phi.kind == "pwl" else 1.0)
    u1, u2 = 0.25 * hi, 0.75 * hi
    gap = 0.5 * (phi.evaluate(u1) + phi.evaluate(u2)) - phi.evaluate(0.5 * (u1 + u2))
    strict = phi.kind == "exp_minus" or (phi.kind == "power" and phi.q > 1.0)
    return ConvexityProbe(strict, None if strict else (u1, u2), gap)
