"""Executable geometric checks for the generated-norm family.

Each suite probes one statement about the space (L^Phi, ||.||_{Phi,p}) at
desk scale: sampled positive directions are checked for violations, and
negative directions are backed by explicit constructions whose claimed
numbers are re-measured.  A suite returns a TheoremReport whose id is a
stable registry key (T1..T9, L1..L2, R2..R3):

    T1  planar sandwich bounds and ordering of the norm family
    T2  norm axioms of the generated norm
    L1  attainment of the defining infimum under fast growth
    L2  unit-ball bounds for elements pinned to the ball boundary
    T3  order almost-isometric embedding of the sup-norm sequence space
    T4  order isometric embedding on infinite atoms
    T5  strict convexity scan
    T6  strict monotonicity scan and flat-pair construction
    T7  norm-difference bound through the planar monotonicity modulus
    T8  lower local uniform monotonicity estimate
    T9  uniform monotonicity probe / failure construction
    R2  order continuity probe
    R3  modular-to-norm convergence equivalence probe

Hypothesis gates that fail mark the report "hypothesis-not-met" instead of
failing.  Every violation kind has one entry in CHECKS: the measurement
its suite takes and the predicate, tolerance included, that flags it.
Suites record violations through that entry, and each record carries
phi, p, space and every input of the measurement, so replay_violation
replays any record as emitted: it decodes phi, p and space, re-takes the
measurement from the stored inputs and applies the suite's own predicate.
run_suites builds at most one modulus table per call, on first use by
T7, T8 or T9 once their gates have passed.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .engine import K_CAP, generated_norm, lemma_bounds_check
from .errors import DomainError
from .orlicz import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, OrliczFunction,
                     delta2_check, orlicz_from_descriptor, strict_convexity_probe)
from .planar import (MonotonicityModulusTable, PlanarNorm, build_modulus_table,
                     is_strictly_increasing_on_ray, l1, linf, planar_from_descriptor,
                     sandwich_violated, strictly_monotone_probe, verify_sandwich)
from .spaces import (MeasureSpace, SimpleFunction, dominated_pair_sample, measure_space,
                     modular, simple_function, space_from_descriptor)

STATUS_PASSED = "passed"
STATUS_FAILED = "failed"
STATUS_HNM = "hypothesis-not-met"
STATUS_EMPTY = "empty-feasible"

SUITE_IDS = ("T1", "T2", "L1", "L2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "R2", "R3")

MODULUS_RESOLUTION = 2e-3  # grid of the modulus tables T7, T8 and T9 build
PLANAR_SAMPLES = 10_000  # T1's sandwich samples of p
UM_EPSILONS = (0.25, 0.5, 0.75)  # T9's norm levels of the dominated piece
CONV_TOL = 1e-3  # R3, convergent branch: the last norm must fall below this
NORM_FLOOR = 0.9  # R3, counterexample branch: every steep norm must reach this


@dataclass
class TheoremReport:
    theorem_id: str
    status: str
    passed: bool
    trials: int
    violations: list[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"theorem_id": self.theorem_id, "status": self.status,
                "passed": self.passed, "trials": self.trials,
                "violations": self.violations, "details": self.details}


def _passed(tid: str, trials: int, violations: list[dict], details: dict) -> TheoremReport:
    status = STATUS_PASSED if not violations else STATUS_FAILED
    return TheoremReport(tid, status, not violations, trials, violations, details)


def _hnm(tid: str, reason: str, **details) -> TheoremReport:
    return TheoremReport(tid, STATUS_HNM, True, 0, [], {"reason": reason, **details})


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _norm_value(phi, p, x) -> float:
    return generated_norm(phi, p, x).value


def _random_function(space: MeasureSpace, rng: np.random.Generator, scale: float = 1.0,
                     signed: bool = False) -> SimpleFunction:
    vals = np.zeros(space.n_atoms)
    fi = list(space.finite_indices)
    vals[fi] = rng.uniform(0.05, scale, len(fi))
    if signed:
        vals[fi] *= rng.choice([-1.0, 1.0], len(fi))
    return SimpleFunction(space, tuple(vals))


def suitable_delta2_regime(space: MeasureSpace) -> str:
    """Doubling regime matching the shape of the measure space: counting
    model (all weights 1) probes at zero, finite-weight spaces at infinity,
    anything with infinite atoms globally."""
    if space.has_infinite_atoms:
        return REGIME_GLOBAL
    if space.all_unit_weights:
        return REGIME_ZERO
    return REGIME_INFINITY


def _finite_phi_top(phi: OrliczFunction) -> float:
    """Largest argument at which Phi still evaluates to a finite double."""
    lo = 1.0
    hi = None
    v = lo
    for _ in range(140):
        v *= 2.0
        if math.isinf(phi.evaluate(v)):
            hi = v
            break
        lo = v
    if hi is None:
        return lo
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if math.isinf(phi.evaluate(mid)):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * lo:
            break
    return lo


# ---------------------------------------------------------------------------
# Violation kinds: one measurement and one predicate each


@dataclass(frozen=True)
class Check:
    """One violation kind.  ``measure(phi, p, space, rec)`` takes the
    measurement from the inputs stored in ``rec`` and returns the measured
    fields; ``violated(rec)`` decides on a record holding both."""
    measure: Callable[[OrliczFunction, PlanarNorm, MeasureSpace, dict], dict]
    violated: Callable[[dict], bool]


def _pack(phi: OrliczFunction, p: PlanarNorm, space: MeasureSpace) -> dict:
    return {"phi": phi.descriptor(), "p": p.descriptor(), "space": space.descriptor()}


def _flag(violations: list[dict], kind: str, phi, p, space, rec: dict) -> None:
    """Record `rec` (inputs and measured fields) when `kind`'s predicate holds."""
    if CHECKS[kind].violated(rec):
        violations.append({"kind": kind, **_pack(phi, p, space), **rec})


def _check(violations: list[dict], kind: str, phi, p, space, **inputs) -> dict:
    """Take `kind`'s measurement on `inputs` and flag it; returns the record."""
    rec = {**inputs, **CHECKS[kind].measure(phi, p, space, inputs)}
    _flag(violations, kind, phi, p, space, rec)
    return rec


def _decode(rec: dict) -> tuple[OrliczFunction, PlanarNorm, MeasureSpace]:
    return (orlicz_from_descriptor(rec["phi"]), planar_from_descriptor(rec["p"]),
            space_from_descriptor(rec["space"]))


# ---------------------------------------------------------------------------
# T1: sandwich bounds and ordering of the family


def suite_sandwich_ordering(phi, p, space, *, seed: int = 0, budget: int = 200) -> TheoremReport:
    violations = []
    for rec in verify_sandwich(p, PLANAR_SAMPLES, seed).violations:
        _flag(violations, "sandwich", phi, p, space, rec)
    rng = _rng(seed + 1)
    for _ in range(budget):
        x = _random_function(space, rng, signed=True)
        _check(violations, "ordering", phi, p, space, values=list(x.values))
    return _passed("T1", PLANAR_SAMPLES + budget, violations,
                   {"planar_samples": PLANAR_SAMPLES, "functions": budget})


def _measure_sandwich(phi, p, space, rec):
    return {"value": p.evaluate(tuple(rec["point"]))}


def _measure_ordering(phi, p, space, rec):
    x = simple_function(space, rec["values"])
    return {"middle": _norm_value(phi, p, x), "smallest": _norm_value(phi, linf(), x),
            "biggest": _norm_value(phi, l1(), x)}


# ---------------------------------------------------------------------------
# T2: norm axioms


def suite_norm_axioms(phi, p, space, *, seed: int = 0, budget: int = 200) -> TheoremReport:
    rng = _rng(seed)
    violations = []
    _check(violations, "norm_zero", phi, p, space, values=[0.0] * space.n_atoms)
    for _ in range(budget):
        x = _random_function(space, rng, signed=True)
        y = _random_function(space, rng, signed=True)
        lam = float(rng.uniform(0.05, 4.0) * rng.choice([-1.0, 1.0]))
        rec = _check(violations, "norm_triangle", phi, p, space,
                     x=list(x.values), y=list(y.values), lam=lam)
        _flag(violations, "norm_homogeneity", phi, p, space, rec)
        _flag(violations, "norm_zero", phi, p, space,
              {"values": rec["x"], "value": rec["norm_x"]})
    return _passed("T2", budget, violations, {"triples": budget})


def _measure_axioms(phi, p, space, rec):
    """||x||, ||y||, ||x + y|| and ||lam x||, in that order."""
    x, y = simple_function(space, rec["x"]), simple_function(space, rec["y"])
    return {"norm_x": _norm_value(phi, p, x), "norm_y": _norm_value(phi, p, y),
            "norm_sum": _norm_value(phi, p, x.plus(y)),
            "norm_scaled": _norm_value(phi, p, x.scaled(rec["lam"]))}


def _measure_norm(phi, p, space, rec):
    return {"value": _norm_value(phi, p, simple_function(space, rec["values"]))}


def _norm_zero_violated(r: dict) -> bool:
    if all(v == 0.0 for v in r["values"]):
        return r["value"] != 0.0
    return r["value"] <= 0.0


# ---------------------------------------------------------------------------
# L1: attainment of the infimum


def suite_attainment(phi, p, space, *, seed: int = 0, budget: int = 50) -> TheoremReport:
    if math.isfinite(phi.slope_limit):
        return _hnm("L1", "needs an asymptotic slope diverging to infinity",
                    slope_limit=phi.slope_limit)
    rng = _rng(seed)
    violations = []
    for _ in range(budget):
        x = _random_function(space, rng, signed=True)
        _check(violations, "attainment", phi, p, space, values=list(x.values))
    return _passed("L1", budget, violations, {"samples": budget})


def _measure_attainment(phi, p, space, rec):
    r = generated_norm(phi, p, simple_function(space, rec["values"]))
    return {"attained": r.attained, "k_star": r.k_star,
            "bracket": list(r.bracket) if r.bracket else None}


def _attainment_violated(r: dict) -> bool:
    capped = r["bracket"] is not None and r["bracket"][1] >= K_CAP
    return not r["attained"] or r["k_star"] is None or capped


# ---------------------------------------------------------------------------
# L2: unit-ball bounds


def suite_unit_ball_bounds(phi, p, space=None, *, seed: int = 0, budget: int = 0) -> TheoremReport:
    a = phi.zero_bound
    if a <= 0.0:
        return _hnm("L2", "needs a flat zone: largest zero of the generator must be positive")
    cases = []
    sp1 = measure_space([math.inf])
    cases.append(simple_function(sp1, [a]))
    sp2 = measure_space([math.inf, 1.0, 1.0])
    cases.append(simple_function(sp2, [a, 1.5 * a, 2.0 * a]))
    violations = []
    for x in cases:
        _check(violations, "unit_ball_bounds", phi, p, x.space, values=list(x.values))
    return _passed("L2", len(cases), violations, {"cases": len(cases)})


def _measure_unit_ball(phi, p, space, rec):
    lb = lemma_bounds_check(phi, p, simple_function(space, rec["values"]))
    return {"norm": lb.norm, "modular": lb.modular_value,
            "lower_ok": lb.lower_ok, "upper_ok": lb.upper_ok}


# ---------------------------------------------------------------------------
# T3 / T4: embeddings of the bounded-sequence space


@dataclass(frozen=True)
class LinfEmbeddingWitness:
    n: int
    basis: tuple[SimpleFunction, ...]
    epsilon: float
    eta: float | None
    exact: bool
    threshold_achieved: float | None

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for b in self.basis:
            sup = set(b.support)
            if sup & seen:
                raise DomainError("witness basis must have pairwise disjoint supports")
            seen |= sup
            if any(v < 0.0 for v in b.values):
                raise DomainError("witness basis must be nonnegative")
        if self.exact and not self.basis[0].space.has_infinite_atoms:
            raise DomainError("exact witness requires infinite atoms")


def _z_batch(n: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    zs = [np.zeros(n), np.ones(n)]
    alt = np.ones(n)
    alt[1::2] = -1.0
    zs.append(alt)
    while len(zs) < count + 3:
        z = rng.uniform(-1.0, 1.0, n)
        if np.max(np.abs(z)) >= 0.05:
            zs.append(z)
    return zs


def build_linf_witness(phi, p, n: int, mode: str, *, epsilon: float = 0.1,
                       eta: float = 0.01, threshold: float = 1e9,
                       z_samples: int = 100, seed: int = 0):
    """Construct a positive embedding of the bounded-sequence space and
    measure its distortion.  Returns (witness, report); the witness is None
    when a hypothesis gate fails."""
    if mode == "exact":
        return _exact_witness(phi, p, n, z_samples=z_samples, seed=seed)
    if mode == "approximate":
        return _approximate_witness(phi, p, n, epsilon=epsilon, eta=eta,
                                    threshold=threshold, z_samples=z_samples, seed=seed)
    raise DomainError(f"unknown witness mode {mode!r}")


def _embedded_norm(phi, p, space, levels, z) -> tuple[float, float]:
    """Norm of the element with values levels * z, and max|z|."""
    z = np.asarray(z)
    return _norm_value(phi, p, simple_function(space, levels * z)), float(np.max(np.abs(z)))


def _exact_witness(phi, p, n, *, z_samples, seed):
    a = phi.zero_bound
    if a <= 0.0:
        return None, _hnm("T4", "exact embedding needs a positive flat zone")
    space = measure_space([math.inf] * n)
    basis = tuple(simple_function(space, [a if j == i else 0.0 for j in range(n)])
                  for i in range(n))
    witness = LinfEmbeddingWitness(n, basis, epsilon=0.0, eta=None, exact=True,
                                   threshold_achieved=None)
    rng = _rng(seed)
    violations = []
    zs = _z_batch(n, z_samples, rng)
    for z in zs:
        _check(violations, "embedding_exact", phi, p, space, z=[float(t) for t in z])
    return witness, _passed("T4", len(zs), violations, {"n": n, "level": a})


def _measure_embedding_exact(phi, p, space, rec):
    got, nz = _embedded_norm(phi, p, space, phi.zero_bound, rec["z"])
    return {"norm": got, "expected": nz}


def _approximate_witness(phi, p, n, *, epsilon, eta, threshold, z_samples, seed):
    gate = delta2_check(phi, REGIME_INFINITY)
    if gate.holds:
        return None, _hnm("T3", "generator satisfies the doubling condition at infinity",
                          constant=gate.constant)
    v_top = _finite_phi_top(phi)
    hi_v = v_top / (1.0 + eta) * (1.0 - 1e-12)
    lo_v = max(phi.zero_bound * 1.01, 1e-6)
    if hi_v <= lo_v:
        return None, _hnm("T3", "no representable level range for the construction")

    levels, weights, achieved = [], [], []
    grid = np.geomspace(lo_v, hi_v, 400)
    fv = phi.evaluate_array(grid)
    f2v = phi.evaluate_array((1.0 + eta) * grid)
    for j in range(1, n + 1):
        target = epsilon / 2.0 ** j
        with np.errstate(invalid="ignore", divide="ignore"):
            ach = np.where(fv > 0.0, target * (f2v / np.where(fv > 0.0, fv, 1.0)), -math.inf)
        ok = np.isfinite(ach) & (ach >= threshold)
        if np.any(ok):
            i = int(np.argmax(ok))
            v_j, a_j = float(grid[i]), float(ach[i])
        else:
            i = int(np.nanargmax(np.where(np.isfinite(ach), ach, -math.inf)))
            v_j, a_j = float(grid[i]), float(ach[i])
        if not math.isfinite(a_j) or a_j < 2.0:
            return None, _hnm("T3", "double precision cannot hold the required modular jump",
                              best_achievable=a_j, level=v_j)
        w_j = target / phi.evaluate(v_j) * (1.0 - 1e-12)
        while w_j == 0.0 and i > 0:  # weight underflowed; step the level down
            i -= 1
            v_j, a_j = float(grid[i]), float(ach[i])
            w_j = target / phi.evaluate(v_j) * (1.0 - 1e-12)
        levels.append(v_j)
        weights.append(w_j)
        achieved.append(a_j)

    space = measure_space(weights)
    basis = tuple(simple_function(space, [levels[j] if j == i else 0.0 for j in range(n)])
                  for i in range(n))
    # re-measure the construction's own constants
    for j, b in enumerate(basis):
        mj = modular(phi, b)
        up = modular(phi, b, scale=1.0 + eta)
        if mj > epsilon / 2.0 ** (j + 1) + 1e-15:
            return None, _hnm("T3", "constructed basis misses its modular budget",
                              index=j, modular=mj)
        if up < 2.0:
            return None, _hnm("T3", "constructed basis does not jump above the floor",
                              index=j, scaled_modular=up)
    witness = LinfEmbeddingWitness(n, basis, epsilon=epsilon, eta=eta, exact=False,
                                   threshold_achieved=min(achieved))

    rng = _rng(seed)
    violations = []
    zs = _z_batch(n, z_samples, rng)
    for z in zs:
        _check(violations, "embedding_bounds", phi, p, space, levels=levels,
               z=[float(t) for t in z], epsilon=epsilon, eta=eta)
    details = {"n": n, "levels": levels, "weights": weights,
               "threshold_requested": threshold, "threshold_achieved": min(achieved)}
    return witness, _passed("T3", len(zs), violations, details)


def _measure_embedding_bounds(phi, p, space, rec):
    got, nz = _embedded_norm(phi, p, space, np.asarray(rec["levels"]), rec["z"])
    return {"norm": got, "lower": nz / (1.0 + rec["eta"]) - 1e-6,
            "upper": (1.0 + rec["epsilon"]) * nz + 1e-6}


# ---------------------------------------------------------------------------
# T5: strict convexity


def suite_strict_convexity(phi, p, space, *, seed: int = 0, budget: int = 200) -> TheoremReport:
    probe = strict_convexity_probe(phi, 512, seed)
    if not probe.strictly_convex:
        return _hnm("T5", "generator is not strictly convex", witness=list(probe.witness))
    if not is_strictly_increasing_on_ray(p):
        return _hnm("T5", "planar norm is flat on the vertical ray through (1, 0)")
    rng = _rng(seed)
    violations = []
    min_gap = math.inf
    trials = 0
    attempts = 0
    while trials < budget and attempts < 8 * budget:
        attempts += 1
        x = _random_function(space, rng, signed=True)
        y = _random_function(space, rng, signed=True)
        rx = generated_norm(phi, p, x)
        ry = generated_norm(phi, p, y)
        if not (rx.attained and ry.attained):
            return _hnm("T5", "attainment unavailable for a sample")
        xh = x.scaled(1.0 / rx.value)
        yh = y.scaled(1.0 / ry.value)
        if max(abs(a - b) for a, b in zip(xh.values, yh.values)) < 0.05:
            continue
        trials += 1
        rec = _check(violations, "midpoint", phi, p, space,
                     x=list(xh.values), y=list(yh.values))
        min_gap = min(min_gap, 1.0 - rec["midpoint_norm"])
    return _passed("T5", trials, violations,
                   {"pairs": trials, "min_midpoint_gap": None if trials == 0 else min_gap})


def _measure_midpoint(phi, p, space, rec):
    x, y = simple_function(space, rec["x"]), simple_function(space, rec["y"])
    return {"midpoint_norm": _norm_value(phi, p, x.plus(y).scaled(0.5))}


# ---------------------------------------------------------------------------
# T6: strict monotonicity


def suite_strict_monotonicity(phi, p, space, *, seed: int = 0, budget: int = 500) -> TheoremReport:
    a = phi.zero_bound
    rng = _rng(seed)
    if a == 0.0:
        violations = []
        skipped = 0
        for _ in range(budget):
            y = _random_function(space, rng)
            if rng.random() < 0.5:
                frac = rng.uniform(0.0, 0.95, space.n_atoms)
                x = SimpleFunction(space, tuple(f * v for f, v in zip(frac, y.values)))
            else:
                vals = list(y.values)
                j = int(rng.integers(0, space.n_atoms))
                vals[j] *= float(rng.uniform(0.0, 0.9))
                x = SimpleFunction(space, tuple(vals))
            ry = generated_norm(phi, p, y)
            if not ry.attained:
                skipped += 1
                continue
            _flag(violations, "strict_monotonicity", phi, p, space,
                  {"x": list(x.values), "y": list(y.values),
                   "norm_x": _norm_value(phi, p, x), "norm_y": ry.value})
        if skipped == budget:
            return _hnm("T6", "attainment unavailable for every sample")
        return _passed("T6", budget - skipped, violations,
                       {"pairs": budget - skipped, "skipped": skipped})

    # flat generator: build the explicit norm-preserving enlargement
    fi = list(space.finite_indices)
    if len(fi) < 2:
        # no atom can be left free; fall back to a random flat-pair search
        found = None
        for _ in range(budget):
            x, y = dominated_pair_sample(space, rng)
            if y.is_zero or x.values == y.values:
                continue
            if abs(_norm_value(phi, p, x) - _norm_value(phi, p, y)) <= 1e-9:
                found = {"x": list(x.values), "y": list(y.values)}
                break
        if found is not None:
            return _passed("T6", budget, [], {"fallback": "random-search",
                                              "flat_pair": found})
        return _hnm("T6", "no free finite atom and random search found no flat pair")
    free = fi[-1]
    vals = np.zeros(space.n_atoms)
    vals[fi[:-1]] = rng.uniform(0.5, 1.5, len(fi) - 1)
    y = SimpleFunction(space, tuple(vals))
    ry = generated_norm(phi, p, y)
    y = y.scaled(1.0 / ry.value)
    ry = generated_norm(phi, p, y)
    if not ry.attained or ry.k_star is None:
        return _hnm("T6", "attainment unavailable for the constructed element")
    k = ry.k_star
    zvals = list(y.values)
    zvals[free] = a / k
    z = SimpleFunction(space, tuple(zvals))
    rec = {"y": list(y.values), "z": list(z.values), "k": k, "norm_y": ry.value,
           "norm_z": _norm_value(phi, p, z)}
    violations = []
    _flag(violations, "flat_pair_mismatch", phi, p, space, rec)
    return _passed("T6", 1, violations,
                   {"constructed_flat_pair": {"kind": "flat_pair", **_pack(phi, p, space),
                                              **rec}})


def _measure_pair(phi, p, space, rec):
    return {"norm_x": _norm_value(phi, p, simple_function(space, rec["x"])),
            "norm_y": _norm_value(phi, p, simple_function(space, rec["y"]))}


def _measure_flat_pair(phi, p, space, rec):
    z = simple_function(space, rec["z"])
    return {"norm_y": _norm_value(phi, p, simple_function(space, rec["y"])),
            "norm_z": _norm_value(phi, p, z)}


# ---------------------------------------------------------------------------
# T7: the norm-difference bound through the planar modulus


class _TableOnFirstUse:
    """Stands in for the modulus table of p at MODULUS_RESOLUTION and builds
    it on first use, so a run whose suites all stop at their gates builds
    none and a run sharing one stand-in builds at most one."""

    def __init__(self, p: PlanarNorm) -> None:
        self._p = p
        self._table: MonotonicityModulusTable | None = None

    def __getattr__(self, name: str):
        if self._table is None:
            self._table = build_modulus_table(self._p, resolution=MODULUS_RESOLUTION)
        return getattr(self._table, name)


def _measure_difference(phi, p, space, rec):
    """lhs = ||y - x|| for a dominated pair x <= y."""
    x, y = simple_function(space, rec["x"]), simple_function(space, rec["y"])
    return {"lhs": _norm_value(phi, p, y.minus_dominated(x))}


def suite_decomposition_estimate(phi, p, space, *, seed: int = 0, budget: int = 500,
                                 table: MonotonicityModulusTable | None = None) -> TheoremReport:
    ok, wit = strictly_monotone_probe(p, 256, seed)
    if not ok:
        return _hnm("T7", "planar norm is not strictly monotone", witness=wit)
    table = table if table is not None else _TableOnFirstUse(p)
    rng = _rng(seed)
    violations = []
    checked = 0
    attempts = 0
    while checked < budget and attempts < 8 * budget:
        attempts += 1
        x, y = dominated_pair_sample(space, rng)
        if y.is_zero:
            continue
        ry = generated_norm(phi, p, y)
        if not math.isfinite(ry.value) or ry.value <= 0.0:
            continue
        s = 1.0 / ry.value
        xs, ys = x.scaled(s), y.scaled(s)
        eps = modular(phi, xs)
        if not (1e-6 < eps < 1.0 - 1e-6):
            continue
        checked += 1
        _check(violations, "decomposition", phi, p, space, x=list(xs.values),
               y=list(ys.values), modular_x=eps,
               delta_floor=table.floor_value(eps), slack=table.slack)
    return _passed("T7", checked, violations,
                   {"checked": checked, "table_slack": table.slack,
                    "table_resolution": table.resolution})


# ---------------------------------------------------------------------------
# T8: lower local uniform monotonicity


def lower_local_um_estimate(phi, p, y: SimpleFunction, epsilon: float, *,
                            samples: int = 200, seed: int = 0,
                            table: MonotonicityModulusTable | None = None):
    """Estimate the smallest modular of dominated pieces of y with norm >=
    epsilon, and check the norm-difference bound on the same samples.
    Returns (delta_hat, report)."""
    if phi.zero_bound != 0.0:
        return 0.0, _hnm("T8", "needs a generator vanishing only at zero")
    if any(v < 0.0 for v in y.values):
        raise DomainError("y must be nonnegative")
    ry = generated_norm(phi, p, y)
    y = y.scaled(1.0 / ry.value)
    if epsilon > 1.0:
        return 0.0, TheoremReport("T8", STATUS_EMPTY, True, 0, [],
                                  {"reason": "no dominated piece can reach the norm level",
                                   "epsilon": epsilon})
    table = table if table is not None else _TableOnFirstUse(p)
    rng = _rng(seed)
    kept: list[SimpleFunction] = []
    attempts = 0
    while len(kept) < samples and attempts < 8 * samples:
        attempts += 1
        base = float(rng.uniform(max(0.0, epsilon - 0.2), 1.0))
        frac = np.minimum(1.0, base + rng.uniform(0.0, 0.3, y.space.n_atoms))
        x = SimpleFunction(y.space, tuple(f * v for f, v in zip(frac, y.values)))
        if _norm_value(phi, p, x) >= epsilon:
            kept.append(x)
    if not kept:
        return 0.0, TheoremReport("T8", STATUS_EMPTY, True, 0, [],
                                  {"reason": "no sampled dominated piece reached the level",
                                   "epsilon": epsilon})
    delta_hat = min(modular(phi, x) for x in kept)
    dfloor, slack = table.floor_value(delta_hat), table.slack
    violations = []
    for x in kept:
        _check(violations, "lower_local_um", phi, p, y.space, x=list(x.values),
               y=list(y.values), delta_floor=dfloor, slack=slack)
    _check(violations, "delta_hat_nonpositive", phi, p, y.space, y=list(y.values),
           epsilon=epsilon, delta_hat=delta_hat)
    report = _passed("T8", len(kept), violations,
                     {"epsilon": epsilon, "delta_hat": delta_hat, "samples": len(kept)})
    return delta_hat, report


def suite_lower_local_um(phi, p, space, *, seed: int = 0, budget: int = 60,
                         table: MonotonicityModulusTable | None = None) -> TheoremReport:
    if phi.zero_bound != 0.0:
        return _hnm("T8", "needs a generator vanishing only at zero")
    ok, wit = strictly_monotone_probe(p, 256, seed)
    if not ok:
        return _hnm("T8", "planar norm is not strictly monotone", witness=wit)
    table = table if table is not None else _TableOnFirstUse(p)
    rng = _rng(seed)
    violations = []
    trials = 0
    deltas = {}
    for i, eps in enumerate((0.3, 0.5, 0.8)):
        y = _random_function(space, rng)
        d, rep = lower_local_um_estimate(phi, p, y, eps, samples=budget,
                                         seed=seed + 101 * i, table=table)
        trials += rep.trials
        violations += rep.violations
        deltas[str(eps)] = d
    return _passed("T8", trials, violations, {"delta_hat": deltas})


# ---------------------------------------------------------------------------
# T9: uniform monotonicity


def suite_uniform_monotonicity(phi, p, space, *, seed: int = 0, budget: int = 120,
                               table: MonotonicityModulusTable | None = None,
                               n_max: int = 10) -> TheoremReport:
    ok, wit = strictly_monotone_probe(p, 256, seed)
    if not ok:
        return _hnm("T9", "planar norm is not strictly monotone", witness=wit)
    if phi.zero_bound > 0.0:
        return _hnm("T9", "generator has a flat zone; uniform monotonicity is out of reach")
    regime = suitable_delta2_regime(space)
    d2 = delta2_check(phi, regime)
    if d2.holds:
        return _um_positive(phi, p, space, seed=seed, budget=budget,
                            table=table if table is not None else _TableOnFirstUse(p),
                            regime=regime)
    return _um_failure_construction(phi, p, seed=seed, n_max=n_max, regime=regime)


def _um_positive(phi, p, space, *, seed, budget, table, regime):
    rng = _rng(seed)
    violations = []
    trials = 0
    empirical = {}
    for eps in UM_EPSILONS:
        pairs = []
        attempts = 0
        while len(pairs) < budget and attempts < 8 * budget:
            attempts += 1
            x, y = dominated_pair_sample(space, rng)
            if y.is_zero:
                continue
            ry = generated_norm(phi, p, y)
            if not math.isfinite(ry.value) or ry.value <= 0.0:
                continue
            s = 1.0 / ry.value
            xs, ys = x.scaled(s), y.scaled(s)
            if _norm_value(phi, p, xs) >= eps:
                pairs.append((xs, ys))
                if len(pairs) % 16 == 1:
                    # the scaled witness x = eps*y pins the modulus at <= eps
                    pairs.append((ys.scaled(eps), ys))
        if not pairs:
            continue
        delta_hat = min(modular(phi, xs) for xs, _ in pairs)
        dfloor, slack = table.floor_value(delta_hat), table.slack
        worst = 0.0
        for xs, ys in pairs:
            rec = _check(violations, "uniform_monotonicity", phi, p, space, x=list(xs.values),
                         y=list(ys.values), delta_floor=dfloor, slack=slack)
            worst = max(worst, rec["lhs"])
            trials += 1
        empirical[f"{eps:g}"] = {"delta_hat_modular": delta_hat,
                                 "empirical_modulus": 1.0 - worst, "pairs": len(pairs)}
    return _passed("T9", trials, violations,
                   {"branch": "positive", "regime": regime, "per_epsilon": empirical})


def _um_failure_construction(phi, p, *, seed, n_max, regime):
    """Doubling fails: exhibit additive perturbations with norms bounded away
    from zero that barely move the unit vector they are added to."""
    rng = _rng(seed)
    v_star = 0.98 * _finite_phi_top(phi)
    block = 3
    weights = [1.0] * block
    levels = []
    for n_ in range(1, n_max + 1):
        fv = phi.evaluate(v_star)
        if not math.isfinite(fv) or fv <= 0.0:
            return _hnm("T9", "no steep representable level available")
        w = (2.0 ** -n_) / fv * (1.0 - 1e-9)
        if w <= 0.0:
            return _hnm("T9", "steep-atom weight underflowed")
        weights.append(w)
        levels.append(v_star)
    space = measure_space(weights)

    xvals = np.zeros(space.n_atoms)
    xvals[:block] = rng.uniform(0.5, 1.5, block)
    x = SimpleFunction(space, tuple(xvals))
    rx = generated_norm(phi, p, x)
    x = x.scaled(1.0 / rx.value)
    rx = generated_norm(phi, p, x)
    if not rx.attained or rx.k_star is None:
        return _hnm("T9", "attainment unavailable for the constructed unit vector")
    k = rx.k_star
    if k <= 1.0 - 1e-9:
        return _hnm("T9", "constructed unit vector has its minimiser at or below 1")

    violations = []
    measured = []
    for i, n_ in enumerate(range(1, n_max + 1)):
        yvals = np.zeros(space.n_atoms)
        yvals[block + i] = levels[i] / k
        rec = _check(violations, "um_failure_construction", phi, p, space,
                     x=list(x.values), x_n=list(yvals), k=k, n=n_)
        measured.append({key: rec[key] for key in ("n", "norm_x_n", "norm_sum", "modular_at_k")})
    return _passed("T9", n_max, violations,
                   {"branch": "failure-construction", "regime": regime, "k": k,
                    "level": v_star, "measured": measured})


def _measure_um_failure(phi, p, space, rec):
    x, xn = simple_function(space, rec["x"]), simple_function(space, rec["x_n"])
    k, n_ = rec["k"], rec["n"]
    return {"modular_at_k": modular(phi, xn, scale=k),
            "norm_x_n": _norm_value(phi, p, xn),
            "norm_sum": _norm_value(phi, p, x.plus(xn)),
            "floor": 2.0 / (3.0 * k), "cap": 1.0 + 2.0 ** -n_}


def _um_failure_violated(r: dict) -> bool:
    return not (math.isfinite(r["modular_at_k"])
                and r["modular_at_k"] <= 2.0 ** -r["n"] + 1e-12
                and r["norm_x_n"] >= r["floor"] - 1e-9
                and r["norm_sum"] <= r["cap"] + 1e-9)


# ---------------------------------------------------------------------------
# R2 / R3: order continuity and modular-to-norm convergence


def _steep_tail_element(phi, n_levels: int, v_level: float | None = None):
    """Shrinking-weight atoms with per-atom modular 2^-j; the steep level is
    shared so tails keep a large norm exactly when doubling fails.  Returns
    (space, levels)."""
    if v_level is None:
        v_level = 0.98 * _finite_phi_top(phi)
        if phi.kind == "power":  # growth is tame; growing levels keep weights sane
            v_level = None
    levels, weights = [], []
    for j in range(1, n_levels + 1):
        v = v_level if v_level is not None else 2.0 ** j
        fv = phi.evaluate(v)
        if not math.isfinite(fv) or fv <= 0.0:
            raise DomainError("no usable level for the tail construction")
        levels.append(v)
        weights.append((2.0 ** -j) / fv * (1.0 - 1e-9))
    return measure_space(weights), levels


def _tail(levels, start: int) -> list[float]:
    return [v if j >= start else 0.0 for j, v in enumerate(levels)]


def suite_order_continuity(phi, p, space, *, seed: int = 0, budget: int = 0,
                           n_max: int = 28) -> TheoremReport:
    regime = suitable_delta2_regime(space)
    continuous = delta2_check(phi, REGIME_INFINITY).holds
    sp, levels = _steep_tail_element(phi, n_max)
    violations = []
    # dominated tails on a shrinking-weight space must lose their norm exactly
    # when doubling holds at infinity, and keep it otherwise
    rec = _check(violations, "order_continuity" if continuous else "order_continuity_failure",
                 phi, p, sp, levels=levels)
    norms = rec["tail_norms"]
    if continuous:
        return _passed("R2", n_max, violations,
                       {"branch": "order-continuous", "tail_norms": norms, "regime": regime})
    mod_tail = modular(phi, simple_function(sp, _tail(levels, n_max - 1)))
    return _passed("R2", n_max, violations,
                   {"branch": "not-order-continuous", "tail_norms": norms,
                    "last_tail_modular": mod_tail, "regime": regime})


def _measure_tails(phi, p, space, rec):
    levels = rec["levels"]
    return {"tail_norms": [_norm_value(phi, p, simple_function(space, _tail(levels, i)))
                           for i in range(len(levels))]}


def suite_modular_norm_equivalence(phi, p, space, *, seed: int = 0, budget: int = 0,
                                   n_max: int = 40) -> TheoremReport:
    a = phi.zero_bound
    violations = []
    if a > 0.0:
        rec = _check(violations, "flat_sequence", phi, p, measure_space([math.inf]), values=[a])
        return _passed("R3", 1, violations,
                       {"branch": "flat-witness", "modular": rec["modular"], "norm": rec["norm"]})

    regime = suitable_delta2_regime(space)
    d2 = delta2_check(phi, regime)
    if d2.holds:
        rng = _rng(seed)
        base = _random_function(space, rng)
        rec = _check(violations, "modular_norm_convergence", phi, p, space,
                     base=list(base.values), n_max=n_max, conv_tol=CONV_TOL)
        return _passed("R3", n_max, violations,
                       {"branch": "convergent", "regime": regime, "norms": rec["norms"]})

    sp, levels = _steep_tail_element(phi, min(n_max, 20))
    norms, mods = [], []
    for j, level in enumerate(levels):
        rec = _check(violations, "steep_sequence", phi, p, sp, n=j + 1, level=level,
                     norm_floor=NORM_FLOOR)
        mods.append(rec["modular"])
        norms.append(rec["norm"])
    return _passed("R3", len(levels), violations,
                   {"branch": "counterexample", "regime": regime,
                    "modulars": mods, "norms": norms})


def _scale_to_modular(phi, x, target: float) -> float:
    """c with modular(c x) = target, by bisection (modulars grow with c)."""
    lo, hi = 0.0, 1.0
    while modular(phi, x, scale=hi) < target:
        hi *= 2.0
        if hi > 1e18:
            raise DomainError("cannot reach the requested modular level")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if modular(phi, x, scale=mid) < target:
            lo = mid
        else:
            hi = mid
    return lo


def _measure_convergence(phi, p, space, rec):
    """Norms of base scaled to modular 2^-n, n = 1..n_max."""
    base = simple_function(space, rec["base"])
    return {"norms": [_norm_value(phi, p, base.scaled(_scale_to_modular(phi, base, 2.0 ** -n)))
                      for n in range(1, rec["n_max"] + 1)]}


def _measure_modular_and_norm(phi, p, space, rec):
    x = simple_function(space, rec["values"])
    return {"modular": modular(phi, x), "norm": _norm_value(phi, p, x)}


def _measure_steep(phi, p, space, rec):
    """Modular and norm of the single steep atom n carrying its level."""
    xn = simple_function(space, [rec["level"] if i == rec["n"] - 1 else 0.0
                                 for i in range(space.n_atoms)])
    return {"modular": modular(phi, xn), "norm": _norm_value(phi, p, xn)}


# ---------------------------------------------------------------------------
# Registry, runner, replay


def _no_measurement(phi, p, space, rec):
    return {}


_DIFFERENCE = Check(_measure_difference,
                    lambda r: r["lhs"] > 1.0 - r["delta_floor"] + r["slack"] + 1e-6)

CHECKS: dict[str, Check] = {
    "sandwich": Check(_measure_sandwich,
                      lambda r: bool(sandwich_violated(*r["point"], r["value"]))),
    "ordering": Check(_measure_ordering,
                      lambda r: not (r["smallest"] <= r["middle"] + 1e-9
                                     and r["middle"] <= r["biggest"] + 1e-9)),
    "norm_triangle": Check(_measure_axioms,
                           lambda r: r["norm_sum"] > r["norm_x"] + r["norm_y"] + 1e-9),
    "norm_homogeneity": Check(_measure_axioms,
                              lambda r: abs(r["norm_scaled"] - abs(r["lam"]) * r["norm_x"])
                              > 1e-9 * max(r["norm_x"], 1e-12)),
    "norm_zero": Check(_measure_norm, _norm_zero_violated),
    "attainment": Check(_measure_attainment, _attainment_violated),
    "unit_ball_bounds": Check(_measure_unit_ball,
                              lambda r: not (r["lower_ok"] and r["upper_ok"])),
    "embedding_exact": Check(_measure_embedding_exact,
                             lambda r: abs(r["norm"] - r["expected"]) > 1e-12),
    "embedding_bounds": Check(_measure_embedding_bounds,
                              lambda r: not (r["lower"] <= r["norm"] <= r["upper"])),
    "midpoint": Check(_measure_midpoint, lambda r: r["midpoint_norm"] >= 1.0 - 1e-12),
    "strict_monotonicity": Check(_measure_pair,
                                 lambda r: r["norm_x"] >= r["norm_y"] - 1e-9),
    "flat_pair_mismatch": Check(_measure_flat_pair,
                                lambda r: abs(r["norm_z"] - r["norm_y"]) > 1e-9),
    "decomposition": _DIFFERENCE,
    "lower_local_um": _DIFFERENCE,
    "uniform_monotonicity": _DIFFERENCE,
    "delta_hat_nonpositive": Check(_no_measurement, lambda r: r["delta_hat"] <= 0.0),
    "um_failure_construction": Check(_measure_um_failure, _um_failure_violated),
    "order_continuity": Check(_measure_tails, lambda r: r["tail_norms"][-1] > 1e-2),
    "order_continuity_failure": Check(_measure_tails, lambda r: min(r["tail_norms"]) < 0.9),
    "modular_norm_convergence": Check(_measure_convergence,
                                      lambda r: r["norms"][-1] > r["conv_tol"]),
    "flat_sequence": Check(_measure_modular_and_norm,
                           lambda r: not (r["modular"] == 0.0
                                          and abs(r["norm"] - 1.0) <= 1e-9)),
    "steep_sequence": Check(_measure_steep,
                            lambda r: not (r["modular"] <= 2.0 ** -r["n"] + 1e-15
                                           and r["norm"] >= r["norm_floor"])),
}


_SUITES = {
    "T1": suite_sandwich_ordering,
    "T2": suite_norm_axioms,
    "L1": suite_attainment,
    "L2": suite_unit_ball_bounds,
    "T5": suite_strict_convexity,
    "T6": suite_strict_monotonicity,
    "T7": suite_decomposition_estimate,
    "T8": suite_lower_local_um,
    "T9": suite_uniform_monotonicity,
    "R2": suite_order_continuity,
    "R3": suite_modular_norm_equivalence,
}
_TABLE_SUITES = ("T7", "T8", "T9")


def run_suites(ids, phi, p, space, *, seed: int = 0, budget: int = 200) -> list[TheoremReport]:
    """Run the selected suites in registry order with shared inputs; T7, T8
    and T9 share one modulus table, built when the first of them needs it."""
    unknown = [i for i in ids if i not in SUITE_IDS]
    if unknown:
        raise DomainError(f"unknown suite ids {unknown}")
    table = _TableOnFirstUse(p)
    reports = []
    for tid in SUITE_IDS:
        if tid not in ids:
            continue
        if tid in ("T3", "T4"):
            mode = "approximate" if tid == "T3" else "exact"
            _, rep = build_linf_witness(phi, p, 4, mode, z_samples=min(budget, 100), seed=seed)
        else:
            shared = {"table": table} if tid in _TABLE_SUITES else {}
            rep = _SUITES[tid](phi, p, space, seed=seed, budget=budget, **shared)
        reports.append(rep)
    return reports


def replay_violation(record: dict) -> bool:
    """Re-take a violation record's measurement from its stored inputs and
    apply its kind's predicate.  Returns True when the record still
    describes a violation."""
    check = CHECKS.get(record.get("kind"))
    if check is None:
        raise DomainError(f"no replayer for record kind {record.get('kind')!r}")
    measured = check.measure(*_decode(record), record)
    return bool(check.violated({**record, **measured}))
