"""Executable geometric checks for the generated-norm family.

Each suite probes one statement about the space (L^Phi, ||.||_{Phi,p}) at
desk scale: sampled positive directions are checked for violations, and
negative directions are backed by explicit constructions whose claimed
numbers are re-measured.  A suite returns a TheoremReport whose id is a
stable registry key (T1..T9, L1..L2, R2..R3):

    T1  planar sandwich bounds (exact, at the sphere's vertices) and family ordering
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
failing.  Every violation kind has one entry in CHECKS: its measurement
and the predicate, tolerance included, that flags it.  Suites and
measurements are generators: for the generated norms of a family of rows
they yield a request, _Norms(phi, p, space, rows), or _Scales(phi, space,
rows, targets) for R3's scales to modular levels, receive the answer of
generated_norm_batch (scale_to_modular_batch) and go on; a suite reaches
its measurements through yield from.  _drive runs the selected suites
together in passes.  Each pass advances every live suite to its next
request, groups the requests by (kind, phi, p, space) in registry order
and answers each group with one engine call on its stacked rows.  A
batch's rows are independent, bit for bit, and each suite owns its rng,
so no report depends on what ran beside it.  _SUITES registers the
generator functions (_suite_*), and run_suites alone checks and defaults a
run: each public suite is run_suites on its one id.  The
elements built one at a time (L2, T6's flat pair, T8's y, T9's failure
branch, R3's flat witness) keep the scalar generated_norm.  Each violation
record carries phi, p, space and every input of its measurement, so
replay_violation re-takes the measurement as a batch of one and
reproduces the emitted fields bit for bit.  Every suite in the registry
is called as suite(phi, p, space, seed=..., budget=...).  T7, T8 and T9
read one modulus table per planar norm per process (_modulus_table),
built when the first of them gets past its gates.
"""
from __future__ import annotations

import functools
import inspect
import math
from collections import deque, namedtuple
from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

from .engine import (generated_norm, generated_norm_batch, lemma_bounds_check,
                     scale_to_modular_batch)
from .errors import ContractError, DomainError
from .orlicz import (REGIME_GLOBAL, REGIME_INFINITY, REGIME_ZERO, OrliczFunction,
                     delta2_check, orlicz_from_descriptor, strict_convexity_probe)
from .planar import (MonotonicityModulusTable, PlanarNorm, build_modulus_table,
                     is_strictly_increasing_on_ray, l1, linf, planar_from_descriptor,
                     sandwich_violated, strictly_monotone_probe, verify_sandwich)
from .spaces import (MeasureSpace, SimpleFunction, dominated_pair_values, measure_space,
                     modular, simple_function, space_from_descriptor)

STATUS_PASSED = "passed"
STATUS_FAILED = "failed"
STATUS_HNM = "hypothesis-not-met"
STATUS_EMPTY = "empty-feasible"

UM_EPSILONS = (0.25, 0.5, 0.75)  # T9's norm levels of the dominated piece
UM_FAILURE_LEVELS = 10  # T9, failure branch: the perturbations x_n, n = 1..UM_FAILURE_LEVELS
TAIL_LEVELS = 28  # R2: atoms of the steep-tail space
CONV_LEVELS = 40  # R3, convergent branch: modular levels 2^-n, n = 1..CONV_LEVELS
STEEP_LEVELS = 20  # R3, counterexample branch: atoms of the steep-tail space
WITNESS_LEVELS = 4  # T3 and T4: basis elements of the embedding
CONV_TOL = 1e-3  # R3, convergent branch: the last norm must fall below this
NORM_FLOOR = 0.9  # R3, counterexample branch: every steep norm must reach this
MIDPOINT_TOL = 1e-12  # T5: a midpoint norm of at least 1 - MIDPOINT_TOL is a violation
WITNESS_THRESHOLD = 1e9  # T3: modular jump each approximate-embedding level aims for
PHI_TOP_CAP = 2.0 ** 140  # the steep level of generators still finite there
NO_FINITE_ATOM = "needs a finite atom"  # the samples live on the finite atoms
_SIGNS = np.array([-1.0, 1.0])  # rng.choice over these draws the index rng.integers(0, 2)
_LINF, _L1 = linf(), l1()  # the ends of T1's ordering


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


# ---------------------------------------------------------------------------
# Requests and _drive, which answers them


# The requests suites yield: the generated norms of the value rows on space
# (a NormBatch answers it) and scale_to_modular_batch's scales (an array).
_Norms = namedtuple("_Norms", "phi p space rows")
_Scales = namedtuple("_Scales", "phi space rows targets")


def _drive(gens: list) -> list:
    """Run the generators together; returns what each returns.  A pass
    advances every live generator to its next request and groups the
    requests by (kind, phi, p, space), in generator order; each group gets
    one engine call on its stacked rows, and each request its slice of the
    answer.  An exception closes every generator and propagates."""
    out, pending = [None] * len(gens), dict.fromkeys(range(len(gens)))
    try:
        while pending:
            groups: dict = {}
            for i, reply in sorted(pending.items()):
                try:
                    req = gens[i].send(reply)
                except StopIteration as stop:
                    out[i] = stop.value
                    continue
                key = (type(req), req.phi, getattr(req, "p", None), req.space)
                groups.setdefault(key, []).append((i, req))
            pending = {}
            for group in groups.values():
                head, reqs = group[0][1], [req for _, req in group]
                rows = np.concatenate([_rows(head.space, req.rows) for req in reqs])
                if isinstance(head, _Scales):
                    got = scale_to_modular_batch(head.phi, head.space, rows,
                                                 np.concatenate([req.targets for req in reqs]))
                else:
                    got = generated_norm_batch(head.phi, head.p, head.space, rows)
                ends = np.cumsum([len(req.rows) for req in reqs]).tolist()
                pending.update((i, got[end - len(req.rows):end])
                               for (i, req), end in zip(group, ends))
    finally:
        for gen in gens:
            gen.close()
    return out


def _named(fn, gen_fn, signature: inspect.Signature):
    """fn under gen_fn's public name (no leading underscore), docstring and ``signature``."""
    fn.__name__ = fn.__qualname__ = gen_fn.__name__.lstrip("_")
    fn.__doc__, fn.__signature__ = gen_fn.__doc__, signature
    return fn


def _driven(gen_fn):
    """gen_fn run alone through _drive, under its public name, docstring and signature."""
    return _named(lambda *args, **kwargs: _drive([gen_fn(*args, **kwargs)])[0], gen_fn,
                  inspect.signature(gen_fn))


def _now(value):
    """A generator that requests nothing and returns value."""
    yield from ()
    return value


def _rows(space: MeasureSpace, rows) -> np.ndarray:
    return np.array(rows, dtype=float).reshape(len(rows), space.n_atoms)


def _norms(phi, p, space, rows):
    """The generated norms of the value rows, in one batch."""
    return (yield _Norms(phi, p, space, rows)).value.tolist()


def _block(need: int, accepted: int, attempts: int, left: int) -> int:
    """How many candidates a rejection loop draws next: enough for `need`
    more acceptances at the rate seen so far (half, before any attempt),
    within the `left` attempts it has."""
    return min(left, math.ceil(need * (attempts + 2) / (accepted + 1)))


def _random_values(space: MeasureSpace, rng: np.random.Generator,
                   signed: bool = False) -> np.ndarray:
    fi = space.finite_indices
    draw = rng.uniform(0.05, 1.0, len(fi))
    if signed:
        draw *= _SIGNS[rng.integers(0, 2, len(fi))]
    if len(fi) == space.n_atoms:
        return draw
    vals = np.zeros(space.n_atoms)
    vals[list(fi)] = draw
    return vals


def _random_function(space: MeasureSpace, rng: np.random.Generator,
                     signed: bool = False) -> SimpleFunction:
    return SimpleFunction(space, tuple(_random_values(space, rng, signed)))


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
    """The largest float at which Phi is finite, capped at PHI_TOP_CAP: the
    overflow point in closed form per kind (log DBL_MAX, zero_bound +
    DBL_MAX^(1/q), a polyline's affine tail), its rounding fixed by nextafter."""
    big = float(np.finfo(float).max)
    if phi.kind == "exp_minus":
        v = math.log(big)
    elif phi.kind == "pwl":
        v = phi.xs[-1] + (big - phi.ys[-1]) / phi.slope_limit
    else:
        v = phi.zero_bound + big ** (1.0 / phi.q)
    v = min(v, PHI_TOP_CAP)
    while math.isinf(phi.evaluate(v)):
        v = math.nextafter(v, 0.0)
    while v < PHI_TOP_CAP and math.isfinite(phi.evaluate(math.nextafter(v, math.inf))):
        v = math.nextafter(v, math.inf)
    return v


# ---------------------------------------------------------------------------
# Violation kinds: one measurement and one predicate each


@dataclass(frozen=True)
class Check:
    """One violation kind.  ``measure(phi, p, space, recs)`` is a generator
    that takes the measurement from the inputs stored in each record of
    ``recs`` and returns the measured fields, one dict per record;
    ``violated(rec)`` decides on a record holding both."""
    measure: Callable[[OrliczFunction, PlanarNorm, MeasureSpace, list[dict]], Generator]
    violated: Callable[[dict], bool]


def _each(measure_one):
    """A measurement taken record by record (the scalar engine's)."""
    return lambda phi, p, space, recs: _now([measure_one(phi, p, space, rec) for rec in recs])


def _pack(phi: OrliczFunction, p: PlanarNorm, space: MeasureSpace) -> dict:
    return {"phi": phi.descriptor(), "p": p.descriptor(), "space": space.descriptor()}


def _flag(violations: list[dict], kind: str, phi, p, space, rec: dict) -> None:
    """Record `rec` (inputs and measured fields) when `kind`'s predicate holds."""
    if CHECKS[kind].violated(rec):
        violations.append({"kind": kind, **_pack(phi, p, space), **rec})


def _measured(kind: str, phi, p, space, inputs: list[dict]):
    """`kind`'s measurement on each input record: the records, fields added."""
    if not inputs:
        return []
    got = yield from CHECKS[kind].measure(phi, p, space, inputs)
    return [{**inp, **fields} for inp, fields in zip(inputs, got)]


def _check(violations: list[dict], kind: str, phi, p, space, inputs: list[dict]):
    """Take `kind`'s measurement on `inputs` and flag each; returns the records."""
    recs = yield from _measured(kind, phi, p, space, inputs)
    for rec in recs:
        _flag(violations, kind, phi, p, space, rec)
    return recs


def _decode(rec: dict) -> tuple[OrliczFunction, PlanarNorm, MeasureSpace]:
    return (orlicz_from_descriptor(rec["phi"]), planar_from_descriptor(rec["p"]),
            space_from_descriptor(rec["space"]))


# ---------------------------------------------------------------------------
# T1: sandwich bounds and ordering of the family


def _suite_sandwich_ordering(phi, p, space, *, seed: int, budget: int):
    violations = []
    for rec in verify_sandwich(p).violations:
        _flag(violations, "sandwich", phi, p, space, rec)
    rng = _rng(seed + 1)
    rows = [_random_values(space, rng, signed=True).tolist() for _ in range(budget)]
    yield from _check(violations, "ordering", phi, p, space, [{"values": v} for v in rows])
    return _passed("T1", len(p.vertices) + budget, violations,
                   {"planar_vertices": len(p.vertices), "functions": budget})


def _measure_sandwich(phi, p, space, recs):
    """p at each record's point, by p.evaluate_many as verify_sandwich takes it."""
    u, v = np.array([rec["point"] for rec in recs], dtype=float).T
    return _now([{"value": val} for val in p.evaluate_many(u, v).tolist()])


def _measure_ordering(phi, p, space, recs):
    """||x|| under p, the max norm and the sum norm: one batch per distinct planar norm."""
    rows = [rec["values"] for rec in recs]
    keys = [repr(q.descriptor()) for q in (p, _LINF, _L1)]
    norms = {}  # repr of a planar norm's descriptor -> the rows' norms under it
    for key, q in dict(zip(keys, (p, _LINF, _L1))).items():
        norms[key] = yield from _norms(phi, q, space, rows)
    return [{"middle": a, "smallest": b, "biggest": c} for a, b, c in zip(*map(norms.get, keys))]


# ---------------------------------------------------------------------------
# T2: norm axioms


def _suite_norm_axioms(phi, p, space, *, seed: int, budget: int):
    if not space.finite_indices:
        return _hnm("T2", NO_FINITE_ATOM)
    rng = _rng(seed)
    violations = []
    # the zero row takes no step of the batch's search
    yield from _check(violations, "norm_zero", phi, p, space,
                      [{"values": [0.0] * space.n_atoms}])
    triples = []
    for _ in range(budget):
        x = _random_values(space, rng, signed=True)
        y = _random_values(space, rng, signed=True)
        lam = float(rng.uniform(0.05, 4.0) * rng.choice([-1.0, 1.0]))
        triples.append({"x": x.tolist(), "y": y.tolist(), "lam": lam})
    for rec in (yield from _measured("norm_triangle", phi, p, space, triples)):
        _flag(violations, "norm_triangle", phi, p, space, rec)
        _flag(violations, "norm_homogeneity", phi, p, space, rec)
        _flag(violations, "norm_zero", phi, p, space,
              {"values": rec["x"], "value": rec["norm_x"]})
    return _passed("T2", budget, violations, {"triples": budget})


def _measure_axioms(phi, p, space, recs):
    """||x||, ||y||, ||x + y|| and ||lam x|| of every record, in one batch."""
    x, y = _rows(space, [r["x"] for r in recs]), _rows(space, [r["y"] for r in recs])
    lam = np.array([r["lam"] for r in recs])
    m = len(recs)
    norms = yield from _norms(phi, p, space, np.concatenate([x, y, x + y, lam[:, None] * x]))
    return [{"norm_x": norms[j], "norm_y": norms[m + j], "norm_sum": norms[2 * m + j],
             "norm_scaled": norms[3 * m + j]} for j in range(m)]


def _measure_norm(phi, p, space, recs):
    norms = yield from _norms(phi, p, space, [rec["values"] for rec in recs])
    return [{"value": v} for v in norms]


def _norm_zero_violated(r: dict) -> bool:
    if all(v == 0.0 for v in r["values"]):
        return r["value"] != 0.0
    return r["value"] <= 0.0


# ---------------------------------------------------------------------------
# L1: attainment of the infimum


def _suite_attainment(phi, p, space, *, seed: int, budget: int):
    if math.isfinite(phi.slope_limit):
        return _hnm("L1", "needs an asymptotic slope diverging to infinity",
                    slope_limit=phi.slope_limit)
    if not space.finite_indices:
        return _hnm("L1", NO_FINITE_ATOM)
    rng = _rng(seed)
    violations = []
    rows = [_random_values(space, rng, signed=True).tolist() for _ in range(budget)]
    yield from _check(violations, "attainment", phi, p, space, [{"values": v} for v in rows])
    return _passed("L1", budget, violations, {"samples": budget})


def _measure_attainment(phi, p, space, recs):
    r = yield _Norms(phi, p, space, [rec["values"] for rec in recs])
    return [{"attained": a, "k_star": None if math.isnan(k) else k}
            for a, k in zip(r.attained.tolist(), r.k_star.tolist())]


# ---------------------------------------------------------------------------
# L2: unit-ball bounds


def _suite_unit_ball_bounds(phi, p, space, *, seed: int, budget: int):
    a = phi.zero_bound
    if a <= 0.0:
        return _hnm("L2", "needs a flat zone: largest zero of the generator must be positive")
    cases = []
    sp1 = measure_space([math.inf])
    cases.append(simple_function(sp1, [a]))
    sp2 = measure_space([math.inf, 1.0, 1.0])
    cases.append(simple_function(sp2, [a, 1.5 * a, 2.0 * a]))
    for x in cases:  # Phi(1.5 a) = (a / 2)^q overflows on a wide flat zone
        if math.isinf(modular(phi, x)):
            return _hnm("L2", "modular of x must be finite", values=list(x.values))
    violations = []
    for x in cases:
        yield from _check(violations, "unit_ball_bounds", phi, p, x.space,
                          [{"values": list(x.values)}])
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


def _build_linf_witness(phi, p, n: int, mode: str, *, epsilon: float = 0.1,
                        eta: float = 0.01, z_samples: int = 100, seed: int = 0):
    """Construct a positive embedding of the bounded-sequence space and
    measure its distortion.  Returns (witness, report); the witness is None
    when a hypothesis gate fails."""
    if mode == "exact":
        return (yield from _exact_witness(phi, p, n, z_samples=z_samples, seed=seed))
    if mode == "approximate":
        return (yield from _approximate_witness(phi, p, n, epsilon=epsilon, eta=eta,
                                                z_samples=z_samples, seed=seed))
    raise DomainError(f"unknown witness mode {mode!r}")


def _witness_suite(mode: str):
    """T3 (approximate) or T4 (exact) on WITNESS_LEVELS basis elements; the
    construction builds its own space, so `space` goes unused."""
    def suite(phi, p, space, *, seed: int, budget: int):
        return (yield from _build_linf_witness(
            phi, p, WITNESS_LEVELS, mode, z_samples=min(budget, 100), seed=seed))[1]
    return suite


def _measure_embedded(phi, p, space, recs, levels):
    """(||levels(rec) * z||, max|z|) for each record's z, the norms in one batch."""
    zs = [np.asarray(rec["z"]) for rec in recs]
    norms = yield from _norms(phi, p, space, [levels(rec) * z for rec, z in zip(recs, zs)])
    return [(v, float(np.max(np.abs(z)))) for v, z in zip(norms, zs)]


def _exact_witness(phi, p, n, *, z_samples, seed):
    a = phi.zero_bound
    if a <= 0.0:
        return None, _hnm("T4", "exact embedding needs a positive flat zone")
    space = measure_space([math.inf] * n)
    basis = tuple(simple_function(space, [a if j == i else 0.0 for j in range(n)])
                  for i in range(n))
    witness = LinfEmbeddingWitness(n, basis, epsilon=0.0, eta=None, exact=True,
                                   threshold_achieved=None)
    violations = []
    rng = _rng(seed)
    zs = _z_batch(n, z_samples, rng)
    yield from _check(violations, "embedding_exact", phi, p, space,
                      [{"z": z.tolist()} for z in zs])
    return witness, _passed("T4", len(zs), violations, {"n": n, "level": a})


def _measure_embedding_exact(phi, p, space, recs):
    got = yield from _measure_embedded(phi, p, space, recs, lambda rec: phi.zero_bound)
    return [{"norm": v, "expected": nz} for v, nz in got]


def _approximate_witness(phi, p, n, *, epsilon, eta, z_samples, seed):
    gate = delta2_check(phi, REGIME_INFINITY)
    if gate.holds:
        return None, _hnm("T3", "generator satisfies the doubling condition at infinity",
                          constant=gate.constant)
    v_top = _finite_phi_top(phi)
    hi_v = v_top / (1.0 + eta) * (1.0 - 1e-12)
    lo_v = max(phi.zero_bound * 1.01, 1e-6)

    levels, weights, achieved = [], [], []
    grid = np.geomspace(lo_v, hi_v, 400)
    # Phi(v) > 0 above the zero bound, and Phi((1 + eta) v) is finite up to hi_v
    ratio = phi.evaluate_array((1.0 + eta) * grid) / phi.evaluate_array(grid)
    for j in range(1, n + 1):
        target = epsilon / 2.0 ** j
        ach = target * ratio
        ok = ach >= WITNESS_THRESHOLD
        i = int(np.argmax(ok)) if np.any(ok) else int(np.argmax(ach))
        v_j, a_j = float(grid[i]), float(ach[i])
        if a_j < 2.0:
            return None, _hnm("T3", "double precision cannot hold the required modular jump",
                              best_achievable=a_j, level=v_j)
        # a_j >= 2 puts w_j above 2 / Phi((1 + eta) v_j) >= 2 / DBL_MAX: it cannot underflow
        w_j = target / phi.evaluate(v_j) * (1.0 - 1e-12)
        levels.append(v_j)
        weights.append(w_j)
        achieved.append(a_j)

    space = measure_space(weights)
    basis = tuple(simple_function(space, [levels[j] if j == i else 0.0 for j in range(n)])
                  for i in range(n))
    # re-measure the jump; the budget holds as computed: modular(phi, b) is
    # w_j Phi(v_j) = target (1 - 1e-12) up to three roundings
    for j, b in enumerate(basis):
        up = modular(phi, b, scale=1.0 + eta)
        if up < 2.0:
            return None, _hnm("T3", "constructed basis does not jump above the floor",
                              index=j, scaled_modular=up)
    witness = LinfEmbeddingWitness(n, basis, epsilon=epsilon, eta=eta, exact=False,
                                   threshold_achieved=min(achieved))

    violations = []
    rng = _rng(seed)
    zs = _z_batch(n, z_samples, rng)
    yield from _check(violations, "embedding_bounds", phi, p, space,
                      [{"levels": levels, "z": z.tolist(), "epsilon": epsilon, "eta": eta}
                       for z in zs])
    details = {"n": n, "levels": levels, "weights": weights,
               "threshold_requested": WITNESS_THRESHOLD, "threshold_achieved": min(achieved)}
    return witness, _passed("T3", len(zs), violations, details)


def _measure_embedding_bounds(phi, p, space, recs):
    got = yield from _measure_embedded(phi, p, space, recs,
                                       lambda rec: np.asarray(rec["levels"]))
    return [{"norm": v, "lower": nz / (1.0 + rec["eta"]) - 1e-6,
             "upper": (1.0 + rec["epsilon"]) * nz + 1e-6} for rec, (v, nz) in zip(recs, got)]


# ---------------------------------------------------------------------------
# T5: strict convexity


def _suite_strict_convexity(phi, p, space, *, seed: int, budget: int):
    probe = strict_convexity_probe(phi)
    if not probe.strictly_convex:
        return _hnm("T5", "generator is not strictly convex", witness=list(probe.witness))
    if probe.gap < MIDPOINT_TOL:
        return _hnm("T5", "generator's midpoint gap is below the midpoint tolerance",
                    gap=probe.gap, tolerance=MIDPOINT_TOL)
    if not is_strictly_increasing_on_ray(p):
        return _hnm("T5", "planar norm is flat on the vertical ray through (1, 0)")
    rng = _rng(seed)
    pairs = []
    attempts = 0
    while len(pairs) < budget and attempts < 8 * budget:
        count = _block(budget - len(pairs), len(pairs), attempts, 8 * budget - attempts)
        block = [_random_values(space, rng, signed=True) for _ in range(2 * count)]
        r = yield _Norms(phi, p, space, block)
        for j in range(0, 2 * count, 2):
            attempts += 1
            if not (r.attained[j] and r.attained[j + 1]):
                return _hnm("T5", "attainment unavailable for a sample")
            xh, yh = (1.0 / r.value[j]) * block[j], (1.0 / r.value[j + 1]) * block[j + 1]
            if np.max(np.abs(xh - yh)) < 0.05:
                continue
            pairs.append({"x": xh.tolist(), "y": yh.tolist()})
            if len(pairs) == budget:
                break
    violations = []
    recs = yield from _check(violations, "midpoint", phi, p, space, pairs)
    min_gap = min((1.0 - rec["midpoint_norm"] for rec in recs), default=None)
    return _passed("T5", len(recs), violations, {"pairs": len(recs), "min_midpoint_gap": min_gap})


def _measure_midpoint(phi, p, space, recs):
    x, y = _rows(space, [r["x"] for r in recs]), _rows(space, [r["y"] for r in recs])
    return [{"midpoint_norm": v} for v in (yield from _norms(phi, p, space, 0.5 * (x + y)))]


# ---------------------------------------------------------------------------
# T6: strict monotonicity


def _suite_strict_monotonicity(phi, p, space, *, seed: int, budget: int):
    a = phi.zero_bound
    rng = _rng(seed)
    if a == 0.0:
        fi = space.finite_indices  # y vanishes on the infinite atoms: x shrinks a finite one
        if not fi:
            return _hnm("T6", NO_FINITE_ATOM)
        pairs = []
        for _ in range(budget):
            y = _random_values(space, rng)
            if rng.random() < 0.5:
                x = rng.uniform(0.0, 0.95, space.n_atoms) * y
            else:
                x = y.copy()
                j = fi[int(rng.integers(0, len(fi)))]
                x[j] *= float(rng.uniform(0.0, 0.9))
            pairs.append({"x": x.tolist(), "y": y.tolist()})
        violations = []
        recs = yield from _check(violations, "strict_monotonicity", phi, p, space, pairs)
        checked = sum(rec["attained_y"] for rec in recs)
        if not checked:
            return _hnm("T6", "attainment unavailable for every sample")
        return _passed("T6", checked, violations, {"pairs": checked, "skipped": budget - checked})

    # flat generator: z enlarges y by a / k* on the free last atom, where
    # Phi(k* a / k*) = Phi(a) = 0 adds nothing to I(k* y), finite atom or not
    if space.n_atoms < 2:
        return _hnm("T6", "a one-atom space holds no flat pair: the norm is homogeneous")
    free = space.n_atoms - 1
    vals = np.zeros(space.n_atoms)
    vals[:free] = rng.uniform(0.5, 1.5, free)
    y = SimpleFunction(space, tuple(vals))
    ry = generated_norm(phi, p, y)
    y = y.scaled(1.0 / ry.value)
    ry = generated_norm(phi, p, y)
    if not ry.attained:
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


def _measure_pair(phi, p, space, recs):
    """||x||, ||y|| and whether ||y|| is attained, for every record in one batch."""
    m = len(recs)
    r = yield _Norms(phi, p, space, [r["x"] for r in recs] + [r["y"] for r in recs])
    norms, attained = r.value.tolist(), r.attained.tolist()
    return [{"norm_x": norms[j], "norm_y": norms[m + j], "attained_y": attained[m + j]}
            for j in range(m)]


def _measure_flat_pair(phi, p, space, rec):
    z = simple_function(space, rec["z"])
    return {"norm_y": _norm_value(phi, p, simple_function(space, rec["y"])),
            "norm_z": _norm_value(phi, p, z)}


# ---------------------------------------------------------------------------
# T7: the norm-difference bound through the planar modulus


@functools.cache
def _modulus_table(p: PlanarNorm) -> MonotonicityModulusTable:
    """The modulus table of p, built once per planar norm per process; T7,
    T8 and T9 ask for it only once their gates pass."""
    return build_modulus_table(p)


def _measure_difference(phi, p, space, recs):
    """lhs = ||y - x|| for dominated pairs 0 <= x <= y, in one batch."""
    x, y = _rows(space, [r["x"] for r in recs]), _rows(space, [r["y"] for r in recs])
    if np.any((x < 0.0) | (x > y)):
        raise ContractError("difference requested for a non-dominated pair")
    return [{"lhs": v} for v in (yield from _norms(phi, p, space, y - x))]


def _unit_scaled(phi, p, space, pairs: list):
    """The dominated pairs (x, y) scaled by 1/||y||, in one batch; None for a
    pair whose y is zero or has no finite positive norm."""
    nonzero = [y for _, y in pairs if y.any()]
    norms = iter((yield from _norms(phi, p, space, nonzero)))
    out = []
    for x, y in pairs:
        v = next(norms) if y.any() else 0.0
        out.append((x * (1.0 / v), y * (1.0 / v)) if math.isfinite(v) and v > 0.0 else None)
    return out


def _suite_decomposition_estimate(phi, p, space, *, seed: int, budget: int):
    ok, wit = strictly_monotone_probe(p)
    if not ok:
        return _hnm("T7", "planar norm is not strictly monotone", witness=wit)
    if not space.finite_indices:
        return _hnm("T7", NO_FINITE_ATOM)
    table = _modulus_table(p)
    rng = _rng(seed)
    pairs = []
    attempts = 0
    while len(pairs) < budget and attempts < 8 * budget:
        count = _block(budget - len(pairs), len(pairs), attempts, 8 * budget - attempts)
        block = [dominated_pair_values(space, rng) for _ in range(count)]
        for scaled in (yield from _unit_scaled(phi, p, space, block)):
            attempts += 1
            if scaled is None:
                continue
            xs, ys = scaled
            eps = modular(phi, SimpleFunction(space, xs))
            if not (1e-6 < eps < 1.0 - 1e-6):
                continue
            pairs.append({"x": xs.tolist(), "y": ys.tolist(), "modular_x": eps,
                          "delta_floor": table.floor_value(eps)})
            if len(pairs) == budget:
                break
    if not pairs:  # a pass with no pair checked would be vacuous
        return _hnm("T7", "no sampled pair has a modular of x inside (1e-6, 1 - 1e-6)")
    violations = []
    checked = len((yield from _check(violations, "decomposition", phi, p, space, pairs)))
    return _passed("T7", checked, violations, {"checked": checked})


# ---------------------------------------------------------------------------
# T8: lower local uniform monotonicity


def _lower_local_um_estimate(phi, p, y: SimpleFunction, epsilon: float, *,
                             samples: int = 200, seed: int = 0):
    """Estimate the smallest modular of dominated pieces of y with norm >=
    epsilon, and check the norm-difference bound on the same samples.
    Returns (delta_hat, report).  DomainError for a y that is negative
    somewhere, zero, or of infinite norm (it cannot be scaled to the unit
    sphere)."""
    if phi.zero_bound != 0.0:
        return 0.0, _hnm("T8", "needs a generator vanishing only at zero")
    if any(v < 0.0 for v in y.values):
        raise DomainError("y must be nonnegative")
    ry = generated_norm(phi, p, y)
    if not 0.0 < ry.value < math.inf:
        raise DomainError(f"y must have a finite positive norm, got {ry.value!r}")
    y = y.scaled(1.0 / ry.value)
    if epsilon > 1.0:
        return 0.0, TheoremReport("T8", STATUS_EMPTY, True, 0, [],
                                  {"reason": "no dominated piece can reach the norm level",
                                   "epsilon": epsilon})
    rng = _rng(seed)
    space, yv = y.space, np.array(y.values)
    kept: list[np.ndarray] = []
    attempts = 0
    while len(kept) < samples and attempts < 8 * samples:
        block = []
        for _ in range(_block(samples - len(kept), len(kept), attempts, 8 * samples - attempts)):
            base = float(rng.uniform(max(0.0, epsilon - 0.2), 1.0))
            block.append(np.minimum(1.0, base + rng.uniform(0.0, 0.3, space.n_atoms)) * yv)
        for x, v in zip(block, (yield from _norms(phi, p, space, block))):
            attempts += 1
            if v >= epsilon:
                kept.append(x)
                if len(kept) == samples:
                    break
    if not kept:
        return 0.0, TheoremReport("T8", STATUS_EMPTY, True, 0, [],
                                  {"reason": "no sampled dominated piece reached the level",
                                   "epsilon": epsilon})
    delta_hat = min(modular(phi, SimpleFunction(space, x)) for x in kept)
    dfloor = _modulus_table(p).floor_value(delta_hat)
    violations = []
    yield from _check(violations, "lower_local_um", phi, p, space,
                      [{"x": x.tolist(), "y": list(y.values), "delta_floor": dfloor}
                       for x in kept])
    yield from _check(violations, "delta_hat_nonpositive", phi, p, space,
                      [{"y": list(y.values), "epsilon": epsilon, "delta_hat": delta_hat}])
    report = _passed("T8", len(kept), violations,
                     {"epsilon": epsilon, "delta_hat": delta_hat, "samples": len(kept)})
    return delta_hat, report


def _suite_lower_local_um(phi, p, space, *, seed: int, budget: int):
    if phi.zero_bound != 0.0:
        return _hnm("T8", "needs a generator vanishing only at zero")
    ok, wit = strictly_monotone_probe(p)
    if not ok:
        return _hnm("T8", "planar norm is not strictly monotone", witness=wit)
    if not space.finite_indices:
        return _hnm("T8", NO_FINITE_ATOM)
    rng = _rng(seed)
    violations = []
    trials = 0
    deltas = {}
    for i, eps in enumerate((0.3, 0.5, 0.8)):
        y = _random_function(space, rng)
        d, rep = yield from _lower_local_um_estimate(phi, p, y, eps, samples=budget,
                                                                seed=seed + 101 * i)
        trials += rep.trials
        violations += rep.violations
        deltas[str(eps)] = d
    return _passed("T8", trials, violations, {"delta_hat": deltas})


# ---------------------------------------------------------------------------
# T9: uniform monotonicity


def _suite_uniform_monotonicity(phi, p, space, *, seed: int, budget: int):
    ok, wit = strictly_monotone_probe(p)
    if not ok:
        return _hnm("T9", "planar norm is not strictly monotone", witness=wit)
    if phi.zero_bound > 0.0:
        return _hnm("T9", "generator has a flat zone; uniform monotonicity is out of reach")
    regime = suitable_delta2_regime(space)
    d2 = delta2_check(phi, regime)
    if d2.holds:
        if not space.finite_indices:
            return _hnm("T9", NO_FINITE_ATOM)
        return (yield from _um_positive(phi, p, space, seed=seed, budget=budget, regime=regime))
    return (yield from _um_failure_construction(phi, p, seed=seed, regime=regime))


def _um_candidates(phi, p, space, rng, count: int):
    """count dominated pairs drawn in order and scaled to ||y|| = 1, each as
    (x, y, ||x||), or None where y is zero or has no finite positive norm."""
    scaled = yield from _unit_scaled(phi, p, space, [dominated_pair_values(space, rng)
                                                     for _ in range(count)])
    norms = iter((yield from _norms(phi, p, space, [c[0] for c in scaled if c is not None])))
    return [None if c is None else (*c, next(norms)) for c in scaled]


def _um_positive(phi, p, space, *, seed, budget, regime):
    table = _modulus_table(p)
    rng = _rng(seed)
    queue: deque = deque()  # candidates drawn and not yet examined, in rng order
    levels, inputs = [], []
    for eps in UM_EPSILONS:
        pairs = []
        attempts = 0
        while len(pairs) < budget and attempts < 8 * budget:
            if not queue:  # what a level leaves carries into the next: draw its whole allowance
                queue.extend((yield from _um_candidates(phi, p, space, rng,
                                                        8 * budget - attempts)))
            attempts += 1
            cand = queue.popleft()
            if cand is not None and cand[2] >= eps:
                xs, ys, _ = cand
                pairs.append((xs, ys))
                if len(pairs) % 16 == 1:
                    # the scaled witness x = eps*y pins the modulus at <= eps
                    pairs.append((eps * ys, ys))
        if not pairs:
            continue
        delta_hat = min(modular(phi, SimpleFunction(space, xs)) for xs, _ in pairs)
        dfloor = table.floor_value(delta_hat)
        levels.append((eps, delta_hat, len(pairs)))
        inputs += [{"x": xs.tolist(), "y": ys.tolist(), "delta_floor": dfloor}
                   for xs, ys in pairs]
    # one batch measures every level's pairs; the predicate applies level by level
    recs = iter((yield from _measured("uniform_monotonicity", phi, p, space, inputs)))
    violations = []
    empirical = {}
    for eps, delta_hat, count in levels:
        worst = 0.0
        for _ in range(count):
            rec = next(recs)
            _flag(violations, "uniform_monotonicity", phi, p, space, rec)
            worst = max(worst, rec["lhs"])
        empirical[f"{eps:g}"] = {"delta_hat_modular": delta_hat,
                                 "empirical_modulus": 1.0 - worst, "pairs": count}
    return _passed("T9", len(inputs), violations,
                   {"branch": "positive", "regime": regime, "per_epsilon": empirical})


def _um_failure_construction(phi, p, *, seed, regime):
    """Doubling fails: exhibit additive perturbations with norms bounded away
    from zero that barely move the unit vector they are added to."""
    rng = _rng(seed)
    block = 3
    steep, levels = _steep_tail_element(phi, UM_FAILURE_LEVELS)
    space = measure_space((1.0,) * block + steep.weights)

    xvals = np.zeros(space.n_atoms)
    xvals[:block] = rng.uniform(0.5, 1.5, block)
    x = SimpleFunction(space, tuple(xvals))
    x = x.scaled(1.0 / generated_norm(phi, p, x).value)
    # Phi has no flat zone and fails doubling, so it is exp_minus (delta2_check),
    # whose slope limit is infinite: ||x|| is attained, at k = p((1, I))/||x|| >= 1
    # as p is monotone with p((1, 0)) = 1
    k = generated_norm(phi, p, x).k_star

    inputs = []
    for i, n_ in enumerate(range(1, UM_FAILURE_LEVELS + 1)):
        yvals = np.zeros(space.n_atoms)
        yvals[block + i] = levels[i] / k
        inputs.append({"x": list(x.values), "x_n": yvals.tolist(), "k": k, "n": n_})
    violations = []
    recs = yield from _check(violations, "um_failure_construction", phi, p, space, inputs)
    measured = [{key: rec[key] for key in ("n", "norm_x_n", "norm_sum", "modular_at_k")}
                for rec in recs]
    return _passed("T9", UM_FAILURE_LEVELS, violations,
                   {"branch": "failure-construction", "regime": regime, "k": k,
                    "level": levels[0], "measured": measured})


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


def _steep_tail_element(phi, n_levels: int):
    """Shrinking-weight atoms with per-atom modular 2^-j; the steep level is
    shared so tails keep a large norm exactly when doubling fails.  Returns
    (space, levels)."""
    # levels 2^j keep a power's weights sane where Phi is finite up to
    # 2^n_levels; else one steep level past any flat zone
    a = phi.zero_bound
    v_level = (None if phi.kind == "power" and math.isfinite(phi.evaluate(2.0 ** n_levels))
               else a + 0.98 * (_finite_phi_top(phi) - a))
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


def _suite_order_continuity(phi, p, space, *, seed: int, budget: int):
    regime = suitable_delta2_regime(space)
    doubling = delta2_check(phi, REGIME_INFINITY)
    sp, levels = _steep_tail_element(phi, TAIL_LEVELS)
    violations, rec = [], {"levels": levels}
    if doubling.holds:
        # with Phi(2u) <= K Phi(u) from the least level on, the last tail, of
        # modular m = 2^-TAIL_LEVELS, has Luxemburg norm at most (K m)^(1 /
        # log2 K); the generated norm is at most the Amemiya norm, at most
        # twice that: 2^(2 - TAIL_LEVELS / log2 K), below 4 for every K
        log_phi = phi.log_pair_array(np.array([min(levels), 2.0 * min(levels)]))[0]
        with np.errstate(over="ignore"):  # Phi(2v) may overflow where Phi(v) does not
            k = max(doubling.constant, float(np.exp(log_phi[1] - log_phi[0])))
        rec["bound"] = 2.0 ** (2.0 - TAIL_LEVELS / math.log2(k))
        if rec["bound"] >= 1.0:
            return _hnm("R2", "doubling constant leaves the last tail a norm bound of 1 or more",
                        doubling_constant=k, bound=rec["bound"])
    # dominated tails on a shrinking-weight space must lose their norm exactly
    # when doubling holds at infinity, and keep it otherwise
    rec, = yield from _check(violations, "order_continuity" if doubling.holds
                             else "order_continuity_failure", phi, p, sp, [rec])
    norms = rec["tail_norms"]
    if doubling.holds:
        return _passed("R2", TAIL_LEVELS, violations,
                       {"branch": "order-continuous", "tail_norms": norms, "regime": regime})
    mod_tail = modular(phi, simple_function(sp, _tail(levels, TAIL_LEVELS - 1)))
    return _passed("R2", TAIL_LEVELS, violations,
                   {"branch": "not-order-continuous", "tail_norms": norms,
                    "last_tail_modular": mod_tail, "regime": regime})


def _measure_tails(phi, p, space, recs):
    """The norms of every tail of each record's levels, one batch per record."""
    out = []
    for rec in recs:
        tails = [_tail(rec["levels"], i) for i in range(len(rec["levels"]))]
        out.append({"tail_norms": (yield from _norms(phi, p, space, tails))})
    return out


def _suite_modular_norm_equivalence(phi, p, space, *, seed: int, budget: int):
    a = phi.zero_bound
    violations = []
    if a > 0.0:
        rec, = yield from _check(violations, "flat_sequence", phi, p,
                                 measure_space([math.inf]), [{"values": [a]}])
        return _passed("R3", 1, violations,
                       {"branch": "flat-witness", "modular": rec["modular"], "norm": rec["norm"]})

    regime = suitable_delta2_regime(space)
    d2 = delta2_check(phi, regime)
    if d2.holds:
        if not space.finite_indices:
            return _hnm("R3", NO_FINITE_ATOM)
        rng = _rng(seed)
        base = _random_function(space, rng)
        rec, = yield from _check(violations, "modular_norm_convergence", phi, p, space,
                                 [{"base": list(base.values), "n_max": CONV_LEVELS,
                                   "conv_tol": CONV_TOL}])
        return _passed("R3", CONV_LEVELS, violations,
                       {"branch": "convergent", "regime": regime, "norms": rec["norms"]})

    sp, levels = _steep_tail_element(phi, STEEP_LEVELS)
    recs = yield from _check(violations, "steep_sequence", phi, p, sp,
                             [{"n": j + 1, "level": level, "norm_floor": NORM_FLOOR}
                              for j, level in enumerate(levels)])
    mods, norms = [rec["modular"] for rec in recs], [rec["norm"] for rec in recs]
    return _passed("R3", len(levels), violations,
                   {"branch": "counterexample", "regime": regime,
                    "modulars": mods, "norms": norms})


def _measure_convergence(phi, p, space, recs):
    """Norms of base scaled to modular 2^-n, n = 1..n_max: per record, the
    n_max scales c <= the root of modular(c base) = 2^-n in one batch and
    the scaled elements' norms in another."""
    out = []
    for rec in recs:
        base = np.asarray(rec["base"], dtype=float)
        rows = np.tile(base, (rec["n_max"], 1))
        targets = 2.0 ** -np.arange(1.0, rec["n_max"] + 1.0)
        c = yield _Scales(phi, space, rows, targets)
        out.append({"norms": (yield from _norms(phi, p, space, c[:, None] * rows))})
    return out


def _measure_modular_and_norm(phi, p, space, rec):
    x = simple_function(space, rec["values"])
    return {"modular": modular(phi, x), "norm": _norm_value(phi, p, x)}


def _measure_steep(phi, p, space, recs):
    """Modular and norm of each record's single steep atom n carrying its
    level, the norms in one batch."""
    rows = np.zeros((len(recs), space.n_atoms))
    for row, rec in zip(rows, recs):
        row[rec["n"] - 1] = rec["level"]
    return [{"modular": modular(phi, SimpleFunction(space, tuple(row))), "norm": v}
            for row, v in zip(rows, (yield from _norms(phi, p, space, rows)))]


# ---------------------------------------------------------------------------
# Registry, runner, replay


_DIFFERENCE = Check(_measure_difference,
                    lambda r: r["lhs"] > 1.0 - r["delta_floor"] + 1e-6)

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
    "attainment": Check(_measure_attainment, lambda r: not r["attained"]),
    "unit_ball_bounds": Check(_each(_measure_unit_ball),
                              lambda r: not (r["lower_ok"] and r["upper_ok"])),
    "embedding_exact": Check(_measure_embedding_exact,
                             lambda r: abs(r["norm"] - r["expected"]) > 1e-12),
    "embedding_bounds": Check(_measure_embedding_bounds,
                              lambda r: not (r["lower"] <= r["norm"] <= r["upper"])),
    "midpoint": Check(_measure_midpoint, lambda r: r["midpoint_norm"] >= 1.0 - MIDPOINT_TOL),
    "strict_monotonicity": Check(_measure_pair,
                                 lambda r: r["attained_y"] and r["norm_x"] >= r["norm_y"] - 1e-9),
    "flat_pair_mismatch": Check(_each(_measure_flat_pair),
                                lambda r: abs(r["norm_z"] - r["norm_y"]) > 1e-9),
    "decomposition": _DIFFERENCE,
    "lower_local_um": _DIFFERENCE,
    "uniform_monotonicity": _DIFFERENCE,
    "delta_hat_nonpositive": Check(_each(lambda *_: {}), lambda r: r["delta_hat"] <= 0.0),
    "um_failure_construction": Check(_each(_measure_um_failure), _um_failure_violated),
    "order_continuity": Check(_measure_tails, lambda r: r["tail_norms"][-1] > r["bound"]),
    "order_continuity_failure": Check(_measure_tails, lambda r: min(r["tail_norms"]) < 0.9),
    "modular_norm_convergence": Check(_measure_convergence,
                                      lambda r: r["norms"][-1] > r["conv_tol"]),
    "flat_sequence": Check(_each(_measure_modular_and_norm),
                           lambda r: not (r["modular"] == 0.0
                                          and abs(r["norm"] - 1.0) <= 1e-9)),
    "steep_sequence": Check(_measure_steep,
                            lambda r: not (r["modular"] <= 2.0 ** -r["n"] + 1e-15
                                           and r["norm"] >= r["norm_floor"])),
}


# the public constructions: each generator run alone through _drive
build_linf_witness = _driven(_build_linf_witness)
lower_local_um_estimate = _driven(_lower_local_um_estimate)


_SUITES = {  # suite id -> generator function, in registry order
    "T1": _suite_sandwich_ordering,
    "T2": _suite_norm_axioms,
    "L1": _suite_attainment,
    "L2": _suite_unit_ball_bounds,
    "T3": _witness_suite("approximate"),
    "T4": _witness_suite("exact"),
    "T5": _suite_strict_convexity,
    "T6": _suite_strict_monotonicity,
    "T7": _suite_decomposition_estimate,
    "T8": _suite_lower_local_um,
    "T9": _suite_uniform_monotonicity,
    "R2": _suite_order_continuity,
    "R3": _suite_modular_norm_equivalence,
}
SUITE_IDS = tuple(_SUITES)


def run_suites(ids, phi, p, space, *, seed: int = 0, budget: int = 200) -> list[TheoremReport]:
    """Run the selected suites together through _drive, their reports in
    registry order."""
    unknown = [i for i in ids if i not in SUITE_IDS]
    if unknown:
        raise DomainError(f"unknown suite ids {unknown}; choose among {','.join(SUITE_IDS)}")
    if budget < 1:  # a suite that runs no trial passes vacuously
        raise DomainError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    return _drive([_SUITES[tid](phi, p, space, seed=seed, budget=budget)
                   for tid in SUITE_IDS if tid in ids])


def _public(tid: str):
    """run_suites([tid], ...)[0] under its generator's public name, with run_suites' parameters."""
    sig = inspect.signature(run_suites)
    return _named(lambda phi, p, space, **kwargs: run_suites([tid], phi, p, space, **kwargs)[0],
                  _SUITES[tid], sig.replace(parameters=list(sig.parameters.values())[1:],
                                            return_annotation="TheoremReport"))


suite_sandwich_ordering = _public("T1")
suite_norm_axioms = _public("T2")
suite_attainment = _public("L1")
suite_unit_ball_bounds = _public("L2")
suite_strict_convexity = _public("T5")
suite_strict_monotonicity = _public("T6")
suite_decomposition_estimate = _public("T7")
suite_lower_local_um = _public("T8")
suite_uniform_monotonicity = _public("T9")
suite_order_continuity = _public("R2")
suite_modular_norm_equivalence = _public("R3")


def replay_violation(record: dict) -> bool:
    """Re-take a violation record's measurement from its stored inputs, as a
    batch of one, and apply its kind's predicate.  Returns True when the
    record still describes a violation."""
    check = CHECKS.get(record.get("kind"))
    if check is None:
        raise DomainError(f"no replayer for record kind {record.get('kind')!r}")
    measured, = _drive([check.measure(*_decode(record), [record])])[0]
    return bool(check.violated({**record, **measured}))
