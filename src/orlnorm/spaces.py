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
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractError, DomainError

if TYPE_CHECKING:  # pragma: no cover
    from .orlicz import OrliczFunction


@dataclass(frozen=True)
class MeasureSpace:
    weights: tuple[float, ...]
    ids: tuple[str, ...]

    @property
    def n_atoms(self) -> int:
        return len(self.weights)

    @property
    def finite_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if math.isfinite(w))

    @property
    def infinite_indices(self) -> tuple[int, ...]:
        return tuple(i for i, w in enumerate(self.weights) if math.isinf(w))

    @property
    def has_infinite_atoms(self) -> bool:
        return any(math.isinf(w) for w in self.weights)

    @property
    def all_unit_weights(self) -> bool:
        return all(w == 1.0 for w in self.weights)

    def descriptor(self) -> dict:
        return {"atoms": [{"w": "inf" if math.isinf(w) else w} for w in self.weights]}


def measure_space(weights, ids=None) -> MeasureSpace:
    ws = tuple(float(w) for w in weights)
    if not ws:
        raise DomainError("a measure space needs at least one atom")
    for w in ws:
        if math.isnan(w) or w <= 0.0:
            raise DomainError(f"atom weights must be positive (or +inf), got {w!r}")
    if ids is None:
        ids = tuple(str(i) for i in range(len(ws)))
    else:
        ids = tuple(str(i) for i in ids)
        if len(ids) != len(ws):
            raise DomainError("ids and weights must align")
        if len(set(ids)) != len(ids):
            raise DomainError("atom ids must be unique")
    return MeasureSpace(weights=ws, ids=ids)


def unit_weights(n: int) -> MeasureSpace:
    """Counting-measure model: n atoms of weight 1."""
    if n < 1:
        raise DomainError("need at least one atom")
    return measure_space([1.0] * n)


def space_from_descriptor(d: dict) -> MeasureSpace:
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
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", values)
        if len(values) != self.space.n_atoms:
            raise DomainError("values must align with the space's atoms")
        if any(not math.isfinite(v) for v in values):
            raise DomainError("simple functions take finite values")

    @property
    def is_zero(self) -> bool:
        return all(v == 0.0 for v in self.values)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v != 0.0)

    def scaled(self, c: float) -> "SimpleFunction":
        return SimpleFunction(self.space, tuple(c * v for v in self.values))

    def plus(self, other: "SimpleFunction") -> "SimpleFunction":
        _same_space(self, other)
        return SimpleFunction(self.space, tuple(a + b for a, b in zip(self.values, other.values)))

    def leq(self, other: "SimpleFunction") -> bool:
        _same_space(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def sup(self, other: "SimpleFunction") -> "SimpleFunction":
        _same_space(self, other)
        return SimpleFunction(self.space, tuple(max(a, b) for a, b in zip(self.values, other.values)))

    def minus_dominated(self, other: "SimpleFunction") -> "SimpleFunction":
        """self - other for 0 <= other <= self; anything else is a contract error."""
        _same_space(self, other)
        if any(b < 0.0 or b > a for a, b in zip(self.values, other.values)):
            raise ContractError("difference requested for a non-dominated pair")
        return SimpleFunction(self.space, tuple(a - b for a, b in zip(self.values, other.values)))

    def descriptor(self) -> dict:
        return {"values": list(self.values)}


def _same_space(x: SimpleFunction, y: SimpleFunction) -> None:
    if x.space is not y.space and x.space != y.space:
        raise ContractError("operands live on different measure spaces")


def simple_function(space: MeasureSpace, values) -> SimpleFunction:
    return SimpleFunction(space, values)


def function_from_descriptor(space: MeasureSpace, d: dict) -> SimpleFunction:
    return simple_function(space, d["values"])


@dataclass(frozen=True)
class OrderOps:
    leq: bool
    sup: SimpleFunction
    diff_if_dominated: SimpleFunction | None


def order_ops(x: SimpleFunction, y: SimpleFunction) -> OrderOps:
    """Componentwise order data for the pair: x <= y?, sup, and y' = y - x
    when 0 <= x <= y (None otherwise)."""
    dominated = x.leq(y) and all(v >= 0.0 for v in x.values)
    diff = y.minus_dominated(x) if dominated else None
    return OrderOps(leq=x.leq(y), sup=x.sup(y), diff_if_dominated=diff)


# ---------------------------------------------------------------------------
# The convex modular


def modular(phi: "OrliczFunction", x: SimpleFunction, scale: float = 1.0) -> float:
    """Integral of Phi(scale * x) against the space's weights, in [0, +inf].

    Finite atoms contribute weight * Phi(value); infinite atoms contribute
    0 when Phi(|value|) = 0 and +inf otherwise.
    """
    total = 0.0
    for w, v in zip(x.space.weights, x.values):
        if v == 0.0:
            continue
        fv = phi.evaluate(scale * v)
        if math.isinf(w):
            if fv != 0.0:
                return math.inf
        else:
            total += w * fv
            if math.isinf(total):
                return math.inf
    return total


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


def dominated_pair_sample(space: MeasureSpace, rng: np.random.Generator,
                          scale: float = 1.0) -> tuple[SimpleFunction, SimpleFunction]:
    """A random pair 0 <= x <= y supported on the finite atoms."""
    n = space.n_atoms
    y_vals = np.zeros(n)
    fi = list(space.finite_indices)
    if not fi:
        raise DomainError("space has no finite atoms to support the pair")
    y_vals[fi] = rng.uniform(0.0, scale, len(fi))
    frac = rng.uniform(0.0, 1.0, n)
    x_vals = frac * y_vals
    return (SimpleFunction(space, tuple(x_vals)), SimpleFunction(space, tuple(y_vals)))
