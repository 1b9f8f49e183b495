"""Atomic measure spaces, simple functions and the convex modular.

Spaces are finite lists of atoms carrying a positive weight or +inf;
non-atomic pieces of a measure space are approximated by many small
finite atoms, while infinite-measure atoms carry exact 0/+inf modular
semantics (an infinite atom contributes nothing when Phi vanishes at the
function value there, and +inf otherwise).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ContractError, DomainError, reading_descriptor
from .orlicz import SERIES_CUT

if TYPE_CHECKING:  # pragma: no cover
    from .orlicz import OrliczFunction

# modular_of sums with numpy from here: a norm call by numpy takes 0.68 times the
# scalar kernel's time at 64 atoms, 0.83 at 48 and 1.06 at 32
ARRAY_ATOMS = 64


@dataclass(frozen=True)
class MeasureSpace:
    weights: tuple[float, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @cached_property
    def finite_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if math.isfinite(w))

    @cached_property
    def infinite_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if math.isinf(w))

    @cached_property
    def atom_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(the finite atoms' weights, the mask of finite atoms): the space's
        array view, built on first use and read-only, which modular_of's
        wide path and the batch engines share."""
        ws = np.fromiter(self.weights, float, len(self.weights))
        finite = np.isfinite(ws)
        ws = ws[finite]
        ws.flags.writeable = finite.flags.writeable = False
        return ws, finite

    @property
    def has_infinite_atoms(self) -> bool:
        return bool(self.infinite_indices)

    @property
    def all_unit_weights(self) -> bool:
        return all(w == 1.0 for w in self.weights)

    def descriptor(self) -> dict:
        return {"atoms": [{"w": "inf" if math.isinf(w) else w} for w in self.weights]}


def measure_space(weights) -> MeasureSpace:
    ws = tuple(float(w) for w in weights)
    if not ws:
        raise DomainError("a measure space needs at least one atom")
    for w in ws:
        if math.isnan(w) or w <= 0.0:
            raise DomainError(f"atom weights must be positive (or +inf), got {w!r}")
    return MeasureSpace(weights=ws)


def unit_weights(n: int) -> MeasureSpace:
    """Counting-measure model: n atoms of weight 1."""
    if n < 1:
        raise DomainError("need at least one atom")
    return measure_space([1.0] * n)


def space_from_descriptor(d: dict) -> MeasureSpace:
    with reading_descriptor("measure space", d):
        atoms = d.get("atoms")
        if not isinstance(atoms, list) or not atoms:
            raise DomainError(f"bad measure space descriptor {d!r}")
        weights = []
        for a in atoms:
            w = a["w"] if isinstance(a, dict) else a
            weights.append(math.inf if w == "inf" else float(w))
        return measure_space(weights)


@dataclass(frozen=True)
class SimpleFunction:
    space: MeasureSpace
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        # Python floats whatever the input: numpy scalars slow the modular down
        values = tuple(map(float, self.values))
        object.__setattr__(self, "values", values)
        if len(values) != self.space.n_atoms:
            raise DomainError("values must align with the space's atoms")
        if not all(map(math.isfinite, values)):
            raise DomainError("simple functions take finite values")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v != 0.0)

    def scaled(self, c: float) -> "SimpleFunction":
        return SimpleFunction(self.space, tuple(c * v for v in self.values))

    def plus(self, other: "SimpleFunction") -> "SimpleFunction":
        _same_space(self, other)
        return SimpleFunction(self.space, tuple(a + b for a, b in zip(self.values, other.values)))


def _same_space(x: SimpleFunction, y: SimpleFunction) -> None:
    if x.space is not y.space and x.space != y.space:
        raise ContractError("operands live on different measure spaces")


def simple_function(space: MeasureSpace, values) -> SimpleFunction:
    return SimpleFunction(space, values)


# ---------------------------------------------------------------------------
# The convex modular


def modular(phi: "OrliczFunction", x: SimpleFunction, scale: float = 1.0) -> float:
    """Integral of Phi(scale * x) against the space's weights, in [0, +inf].

    Finite atoms contribute weight * Phi(value); infinite atoms contribute
    0 when Phi(|value|) = 0 and +inf otherwise.  DomainError when
    scale * value is not finite on some atom.
    """
    return modular_of(phi, x).with_conjugate(scale)[0]


class Modular:
    """modular_of's record of x under phi: ``top`` = max|x|, ``top_inf`` =
    max|x| on the infinite atoms, ``top_finite`` = max|x| on the finite
    ones, and ``kernel``: s -> (sum w Phi(u), sum w (u Phi'(u) - Phi(u)))
    over the finite atoms, u = s |x|, for s >= 0.

    ``kernel`` is unchecked: it neither tests s * top for finiteness nor
    looks at the infinite atoms, so it is the modular only where s * top
    is finite and Phi(s * top_inf) = 0.  The engine samples it directly,
    as every k of its span lies there (k max|x| <= 1e300, k at most the
    finite/+inf jump).  ``with_conjugate`` is the checked pass."""
    __slots__ = ("phi", "top", "top_inf", "top_finite", "kernel", "_atoms")

    def __init__(self, phi: "OrliczFunction", top_inf: float, top_finite: float,
                 kernel: Callable[[float], tuple[float, float]], atoms) -> None:
        self.phi, self.top_inf, self.top_finite, self.kernel = phi, top_inf, top_finite, kernel
        self.top = top_inf if top_inf > top_finite else top_finite
        self._atoms = atoms  # (weight, |value|) pairs, or their two arrays

    def with_conjugate(self, scale: float) -> tuple[float, float]:
        """(modular, J) at scale: one finiteness check of scale * max|x|
        covers every atom (DomainError), and (inf, inf) where an infinite
        atom has Phi(scale * top_inf) > 0, one call of phi.evaluate."""
        s, top, top_inf = abs(scale), self.top, self.top_inf
        if top > 0.0 and not s * top < math.inf:
            raise DomainError(f"non-finite argument {scale!r} * {top!r}")
        if top_inf > 0.0 and self.phi.evaluate(s * top_inf) != 0.0:
            return math.inf, math.inf
        return self.kernel(s)

    def finite_atoms(self) -> tuple[np.ndarray, np.ndarray]:
        """The finite atoms' weights and |values|, as arrays."""
        atoms = self._atoms
        if isinstance(atoms, list):
            return tuple(np.array(atoms, dtype=float).reshape(-1, 2).T)
        return atoms


def _array_sums(phi: "OrliczFunction", ws: np.ndarray, az: np.ndarray, top: float,
                least: float, s: float) -> tuple[float, float]:
    # top and least are max and min az: s top below phi.finite_bound puts every
    # term below overflow, so they need no error context, and exp_minus takes
    # its series iff s least < SERIES_CUT.  vdot, unlike dot, does not warn
    # on overflow: past double range it is +inf
    u = s * az
    f, jt = (phi.pair_terms(u, s * least < SERIES_CUT) if s * top < phi.finite_bound
             else phi.pair_array(u))
    i = float(np.vdot(ws, f))
    j = float(np.vdot(ws, jt)) if i < math.inf else math.inf
    if i + j < math.inf:
        return i, j
    i, j = phi.mend_sums(ws, u[None, :], np.array([i]), np.array([j]))
    return float(i[0]), float(j[0])


def modular_of(phi: "OrliczFunction", x: SimpleFunction) -> Modular:
    """The Modular record of x under phi, reading the support of x once.

    Phi is even and nondecreasing on [0, inf), so the infinite atoms need
    only their largest |value|.  On a space of fewer than ARRAY_ATOMS atoms
    the kernel is phi.pair_sum on the finite support, the kind's one scalar
    evaluator, which sums in atom order, so its I is bit for bit an
    atom-by-atom loop over Phi; from ARRAY_ATOMS on it is numpy dot
    products of the weights with phi.pair_array's terms, the first of which
    is phi.evaluate_array's, so I may differ from that loop by a few ulps;
    its weights are the space's atom_arrays, converted once per space.  The
    wide kernel reads the least and largest |x| on the finite atoms once
    per call, so a sample is only its arithmetic: below phi.finite_bound it
    takes the same terms by phi.pair_terms, with no error context and with
    exp_minus's series test one comparison.
    Either way a sum that comes out +inf (or J nan) is mended by
    phi.mend_sums, which takes an overflowing term in log form and keeps
    every finite I, so it is +inf only where the modular itself is past
    double range.
    """
    n = x.space.n_atoms
    if n >= ARRAY_ATOMS:
        ws, finite = x.space.atom_arrays
        az, top_inf = np.abs(np.fromiter(x.values, float, n)), 0.0
        if len(ws) < n:
            top_inf, az = float(np.maximum.reduce(az, where=~finite, initial=0.0)), az[finite]
        top = float(np.maximum.reduce(az, initial=0.0))
        least = float(np.minimum.reduce(az, initial=math.inf))
        return Modular(phi, top_inf, top, partial(_array_sums, phi, ws, az, top, least), (ws, az))
    finite: list[tuple[float, float]] = []  # (weight, |value|) of the finite support
    append, inf = finite.append, math.inf
    top_inf = top_finite = 0.0
    for w, v in zip(x.space.weights, x.values):
        if v != 0.0:
            a = v if v > 0.0 else -v
            if w == inf:  # weights are positive or +inf
                if a > top_inf:
                    top_inf = a
            else:
                append((w, a))
                if a > top_finite:
                    top_finite = a
    return Modular(phi, top_inf, top_finite, partial(phi.pair_sum, finite), finite)


def modular_on_grid(phi: "OrliczFunction", x: SimpleFunction, ks: np.ndarray) -> np.ndarray:
    """modular(phi, x, k) for every k in ks, vectorised; +inf entries where
    the modular diverges."""
    ks = np.asarray(ks, dtype=float)
    out = np.zeros(len(ks))
    fin = [(w, v) for w, v in zip(x.space.weights, x.values) if math.isfinite(w) and v != 0.0]
    if fin:
        wts = np.array([w for w, _ in fin])
        vals = np.array([v for _, v in fin])
        contrib = phi.evaluate_array(ks[:, None] * vals[None, :])
        out = contrib @ wts
    for i in x.space.infinite_indices:
        v = x.values[i]
        if v != 0.0:
            fv = phi.evaluate_array(ks * v)
            out = np.where(fv != 0.0, math.inf, out)
    return out


def dominated_pair_values(space: MeasureSpace,
                          rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The values (x, y) of a random pair 0 <= x <= y supported on the
    finite atoms."""
    n = space.n_atoms
    y_vals = np.zeros(n)
    fi = list(space.finite_indices)
    if not fi:
        raise DomainError("space has no finite atoms to support the pair")
    y_vals[fi] = rng.uniform(0.0, 1.0, len(fi))
    frac = rng.uniform(0.0, 1.0, n)
    return frac * y_vals, y_vals
