import collections
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orlnorm import engine, verify
from orlnorm import (DomainError, OrliczFunction, PreconditionError,
                     boundary_sampled, exp_minus,
                     flat_then_power, generated_norm, generated_norm_batch,
                     generated_norm_on_grid, l1, lemma_bounds_check,
                     linf, lq, luxemburg_norm, measure_space, modular, modular_on_grid,
                     orlicz_dual_norm, orlicz_from_descriptor, piecewise_linear,
                     planar_from_descriptor, power, simple_function, unit_weights)
from orlnorm.spaces import ARRAY_ATOMS, modular_of

from mp_oracle import oracle_norm


def _rand_function(space, rng, scale=2.0, signed=True):
    vals = rng.uniform(0.05, scale, space.n_atoms)
    if signed:
        vals *= rng.choice([-1.0, 1.0], space.n_atoms)
    return simple_function(space, vals)


# --------------------------------------------------------------------------
# Luxemburg norm


def test_luxemburg_closed_form_square():
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    assert luxemburg_norm(power(2), x) == pytest.approx(5.0, abs=1e-8)


def test_luxemburg_weighted_closed_form():
    sp = measure_space([0.25, 4.0])
    x = simple_function(sp, [2.0, 1.5])
    expected = math.sqrt(0.25 * 4.0 + 4.0 * 2.25)
    assert luxemburg_norm(power(2), x) == pytest.approx(expected, rel=1e-9)


def test_luxemburg_zero():
    assert luxemburg_norm(power(2), simple_function(unit_weights(2), [0, 0])) == 0.0


def test_luxemburg_flat_generator_on_infinite_atom():
    sp = measure_space([math.inf])
    x = simple_function(sp, [1.0])
    phi = flat_then_power(1, 2)
    got = luxemburg_norm(phi, x)
    assert got == pytest.approx(1.0, abs=1e-9)
    # brute lambda-grid oracle: the modular is 0 iff lam >= 1 and inf below
    lams = np.linspace(0.2, 3.0, 281)
    feas = [modular(phi, x, scale=1.0 / lam) <= 1.0 for lam in lams]
    first = lams[feas.index(True)]
    assert first == pytest.approx(1.0, abs=1.5e-2)


def test_luxemburg_outside_space_flagged_infinite():
    sp = measure_space([math.inf])
    x = simple_function(sp, [1.0])
    assert math.isinf(luxemburg_norm(power(2), x))


def test_luxemburg_overflow_is_infinite():
    # the norms are 2e308 and 1e310 (power:1), past the largest float
    assert luxemburg_norm(power(1), simple_function(measure_space([2.0]), [1e308])) == math.inf
    assert luxemburg_norm(power(1), simple_function(measure_space([1e300]), [1e10])) == math.inf
    # norm 1e400: k_L = 1e-400 underflows to 0
    assert luxemburg_norm(power(1), simple_function(measure_space([1e300]), [1e100])) == math.inf


def test_luxemburg_equals_max_type_norm_in_few_evaluations(orlicz_catalog):
    rng = np.random.default_rng(11)
    spaces = (unit_weights(6), measure_space([0.5, 2.0, 1.0, 3.0, 0.1, math.inf]))
    for phi in orlicz_catalog.values():
        for sp in spaces:
            for _ in range(25):
                x = _rand_function(sp, rng)
                r = generated_norm(phi, linf(), x)
                assert luxemburg_norm(phi, x) == r.value
                assert r.evaluations <= 20, (phi.label, x.values)
                got = r.value
                # the definition: x / got lies in the modular ball, x / (got (1 - 1e-9)) not
                if math.isinf(got):  # x is nonzero on an infinite atom, Phi vanishes only at 0
                    assert phi.zero_bound == 0.0, (phi.label, x.values)
                    continue
                assert modular(phi, x, scale=1.0 / got) <= 1.0 + 1e-12, (phi.label, x.values)
                assert modular(phi, x, scale=1.0 / (got * (1.0 - 1e-9))) > 1.0, (
                    phi.label, x.values)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [1.0, 2.0])
def test_luxemburg_flat_generator_on_infinite_atoms_only(a, q):
    # I(x / lam) is 0 for lam >= max|x| / a and +inf below
    sp = measure_space([1.0, math.inf, 2.0, math.inf])
    x = simple_function(sp, [0.0, -1.5, 0.0, 0.7])
    assert luxemburg_norm(flat_then_power(a, q), x) == pytest.approx(1.5 / a, rel=1e-15, abs=0.0)


# --------------------------------------------------------------------------
# generated norm: closed forms for the square generator


def test_generated_norm_sum_type_closed_form():
    # minimise (1 + 25 k^2)/k: minimum 10 at k = 1/5
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    r = generated_norm(power(2), l1(), x)
    assert r.value == pytest.approx(10.0, rel=1e-9)
    assert r.k_star == pytest.approx(0.2, rel=1e-6)
    assert r.attained


def test_generated_norm_quadratic_mean_closed_form():
    # minimise sqrt(1 + 625 k^4)/k: minimum 5 sqrt(2) at k = 1/5
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    r = generated_norm(power(2), lq(2), x)
    assert r.value == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-9)
    assert r.k_star == pytest.approx(0.2, rel=1e-6)


def test_generated_norm_max_type_equals_luxemburg():
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    r = generated_norm(power(2), linf(), x)
    assert r.value == pytest.approx(luxemburg_norm(power(2), x), abs=1e-8)
    assert r.value == pytest.approx(5.0, abs=1e-8)


def test_generated_norm_zero_element():
    r = generated_norm(power(2), l1(), simple_function(unit_weights(3), [0, 0, 0]))
    assert r.value == 0.0 and r.k_star is None and not r.attained


def test_generated_norm_positive_for_nonzero():
    sp = unit_weights(3)
    r = generated_norm(power(2), l1(), simple_function(sp, [1e-9, 0, 0]))
    assert r.value > 0.0


def test_record_beats_dense_grid(orlicz_catalog, planar_catalog):
    rng = np.random.default_rng(42)
    sp = unit_weights(4)
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            x = _rand_function(sp, rng)
            r = generated_norm(phi, p, x)
            grid = generated_norm_on_grid(phi, p, x)
            assert r.value <= grid + 1e-8, (phi.label, p.label)


def test_norm_family_ordering():
    rng = np.random.default_rng(7)
    sp = unit_weights(5)
    for phi in (power(2), exp_minus(), flat_then_power(1, 2)):
        for _ in range(20):
            x = _rand_function(sp, rng)
            lo = generated_norm(phi, linf(), x).value
            hi = generated_norm(phi, l1(), x).value
            for p in (lq(1.5), lq(2), lq(3)):
                mid = generated_norm(phi, p, x).value
                assert lo <= mid + 1e-9 and mid <= hi + 1e-9


def test_lattice_property_of_generated_norm():
    rng = np.random.default_rng(11)
    sp = unit_weights(5)
    phi, p = power(2), lq(2)
    for _ in range(30):
        y = _rand_function(sp, rng, signed=False)
        frac = rng.uniform(0, 1, sp.n_atoms)
        x = simple_function(sp, [f * v for f, v in zip(frac, y.values)])
        assert generated_norm(phi, p, x).value <= generated_norm(phi, p, y).value + 1e-9


def test_attainment_under_fast_growth():
    rng = np.random.default_rng(3)
    sp = unit_weights(4)
    for phi in (power(2), power(3), exp_minus()):
        for _ in range(10):
            x = _rand_function(sp, rng)
            r = generated_norm(phi, l1(), x)
            assert r.attained


def test_exact_luxemburg_root_is_attained():
    # I(k x) = 0.5 k and (0.5 k - 1)^2: the root of log I = 0 is found exactly
    # or to the tolerance, and the max norm's minimiser is that point
    for phi, x in ((power(1), [0.5]), (flat_then_power(1, 2), [0.5, -0.25])):
        r = generated_norm(phi, linf(), simple_function(unit_weights(len(x)), x))
        assert r.attained and r.value == pytest.approx(0.5 if phi.q == 1.0 else 0.25, rel=1e-12)


def test_non_attainment_reported_at_the_limit():
    # linear growth: (1 + k S)/k decreases to S, the infimum is not attained;
    # J = 0 for every k decides that before any search, and S is exact
    sp = unit_weights(2)
    x = simple_function(sp, [1.0, 2.0])
    r = generated_norm(power(1), l1(), x)
    assert not r.attained and r.value == 3.0
    assert r.k_star is None and r.bracket is None and r.evaluations == 0
    # |u|^(1 + 1e-13): J = 1e-13 I reaches 1 near k = 3.3e12 = 1e13 k_L, where
    # the minimum 3 + 9.1e-12 is attained; a search capped at 1e12 k_L
    # reported 3 + 1.1e-11 there, unattained
    r = generated_norm(power(1.0000000000001), l1(), x)
    assert r.attained and r.k_star == pytest.approx(3.335e12, rel=1e-3)
    assert 3.0 < r.value < 3.000000000011092
    want = oracle_norm(power(1.0000000000001), l1(), [1.0, 1.0], [1.0, 2.0])
    assert r.value == pytest.approx(want, rel=1e-14, abs=0.0)


def _search_elements(orlicz_catalog, planar_catalog, per_pair=8):
    """Seeded signed 6-atom elements over two decades either side of 1 for
    the 20 catalog pairs.  For a flat generator every other element puts
    its last two atoms on infinite atoms, and every fourth is supported
    only there (the finite/+inf jump decides the norm)."""
    rng = np.random.default_rng(2018)
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            for j in range(per_pair):
                weights = [1.0] * 6
                vals = (rng.uniform(0.05, 1.0, 6) * rng.choice([-1.0, 1.0], 6)
                        * 10.0 ** rng.uniform(-2.0, 2.0))
                if phi.zero_bound > 0.0 and j % 2 == 1:
                    weights[-2:] = [math.inf, math.inf]
                    if j % 4 == 3:
                        vals[:-2] = 0.0
                yield phi, p, simple_function(measure_space(weights), vals)


def test_objective_is_convex_in_reciprocal_k(orlicz_catalog, planar_catalog):
    # with u = 1/k, g(1/u) = u p((1, I(x/u))) is the perspective of the
    # convex nondecreasing t -> p((1, I(t x))): no chord passes below it,
    # so g is unimodal in log k, which is all the search relies on
    ks = np.geomspace(1e-4, 1e4, 400)
    for phi, p, x in _search_elements(orlicz_catalog, planar_catalog):
        with np.errstate(over="ignore", invalid="ignore"):
            mods = modular_on_grid(phi, x, ks)
        fin = np.isfinite(mods)
        u = 1.0 / ks[fin][::-1]
        h = (p.evaluate_many(np.ones(int(fin.sum())), mods[fin]) / ks[fin])[::-1]
        lam = (u[2:] - u[1:-1]) / (u[2:] - u[:-2])
        chord = lam * h[:-2] + (1.0 - lam) * h[2:]
        assert np.all(h[1:-1] <= chord + 1e-9 * (h[:-2] + h[2:])), (phi.label, p.label)


def test_search_stays_under_grid_oracle_and_jump(orlicz_catalog, planar_catalog):
    evaluations = {}
    for phi, p, x in _search_elements(orlicz_catalog, planar_catalog):
        r = generated_norm(phi, p, x)
        evaluations.setdefault(p.label, []).append(r.evaluations)
        with np.errstate(over="ignore", invalid="ignore"):
            grid = generated_norm_on_grid(phi, p, x)
        assert r.value <= grid * (1.0 + 1e-9), (phi.label, p.label, x.values)
        m = max((abs(x.values[i]) for i in x.space.infinite_indices), default=0.0)
        if m > 0.0:
            assert phi.evaluate(r.k_star * m) == 0.0  # at most the jump
            assert math.isfinite(modular(phi, x, scale=r.k_star))
    # Newton steps on the first-order equation (measured: means 3.9 under
    # the max norm, 4.2-4.6 elsewhere, at most 10)
    for p_label, counts in evaluations.items():
        assert np.mean(counts) <= (4.0 if p_label == "linf" else 4.7), p_label
        assert max(counts) <= 10, p_label


def _loop_counts(phi, p, space, row):
    """The evaluations of the scalar search loop (_first_order_root) and the
    steps of the lockstep loop (_lockstep) on one nonzero row supported on
    finite atoms, called directly, as a power generator's rows skip both."""
    x = simple_function(space, row)
    evaluations = engine._first_order_root(phi, p, modular_of(phi, x), engine.LOG_TOL)[4]
    weights, finite = space.atom_arrays
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        steps = engine._lockstep(engine._batch_sampler(phi, p, weights),
                                 np.abs(np.asarray(row, dtype=float)[None, finite]), np.zeros(1),
                                 engine.LOG_TOL, p.q if p.kind == "lq" else 1.0, phi.zero_bound)[2]
    return evaluations, steps


@pytest.mark.parametrize("n", [6, 256])
def test_power_rows_take_one_evaluation_and_no_batch_step(n):
    # |u|^q is answered in closed form, C(p, q) I(x)^(1/q): one kernel sum,
    # and no lockstep pass in the batch.  The search loops still solve such
    # rows exactly: log I, log J and log J + (q' - 1) log I are linear in
    # log k with slope q'(1 + J/I) = q' q, so one Newton step lands on the
    # root, and two samples 0.45 tol either side of it close the bracket
    rng = np.random.default_rng(53)
    for q in (1.5, 2.0, 3.0, 6.0):
        phi = power(q)
        for p in (linf(), l1(), lq(1.5), lq(2), lq(3)):
            c, t = p.power_constant(q)
            for _ in range(4):
                sp = measure_space(10.0 ** rng.uniform(-1.0, 1.0, n))
                x = simple_function(sp, rng.uniform(-1.0, 1.0, n))
                r = generated_norm(phi, p, x)
                assert r.evaluations == 1 and r.attained and r.bracket == (r.k_star, r.k_star)
                batch = generated_norm_batch(phi, p, sp, np.array([x.values]))
                assert batch.steps == 0 and batch.attained[0], (q, p.label)
                assert batch.value[0] == pytest.approx(r.value, rel=1e-15, abs=0.0), (q, p.label)
                assert batch.k_star[0] == pytest.approx(r.k_star, rel=1e-15, abs=0.0), (q, p.label)
                # k* puts the modular at t*, and the search loop's minimum is the same
                assert modular(phi, x, scale=r.k_star) == pytest.approx(t, rel=1e-14, abs=0.0)
                evaluations, steps = _loop_counts(phi, p, sp, np.array(x.values))
                assert evaluations == 3 and steps <= 3, (q, p.label)
                searched = engine._first_order_root(phi, p, modular_of(phi, x), engine.LOG_TOL)[0]
                assert searched == pytest.approx(r.value, rel=1e-11, abs=0.0), (q, p.label)
                m = math.fsum(w * abs(v) ** q for w, v in zip(sp.weights, x.values))
                want = {"linf": m ** (1.0 / q), "l1": q / (q - 1.0) * ((q - 1.0) * m) ** (1.0 / q)}
                if p.kind in want:
                    assert r.value == pytest.approx(want[p.kind], rel=1e-14, abs=0.0), (q, p.label)
                assert r.value == pytest.approx(c * m ** (1.0 / q), rel=1e-14, abs=0.0)


@settings(max_examples=150)
@given(st.sampled_from((1.5, 2.0, 3.0, 7.5)), st.sampled_from((linf(), l1(), lq(1.5), lq(2), lq(3))),
       st.lists(st.tuples(st.floats(-700.0, 700.0), st.floats(-3.0, 3.0), st.booleans()),
                min_size=1, max_size=11))
def test_power_closed_form_holds_the_mp_oracle(q, p, atoms):
    # weights e^U(-700, 700) and |values| 10^U(-3, 3): the closed form within
    # 1e-14 of the 40-digit oracle (the search loop held 1e-11); the batch
    # within 1e-15 of it (its sums and powers are numpy's, which round
    # apart from the scalar kernel's by an ulp), each batch row bit for bit
    # its batch of one; and the Luxemburg norm is the max norm's closed form
    weights = [math.exp(e) for e, _, _ in atoms]
    values = [(-1.0 if neg else 1.0) * 10.0 ** d for _, d, neg in atoms]
    phi, space = power(q), measure_space(weights)
    x = simple_function(space, values)
    r = generated_norm(phi, p, x)
    assert r.evaluations == 1 and r.attained
    assert r.value == pytest.approx(oracle_norm(phi, p, weights, values), rel=1e-14, abs=0.0)
    if p.kind == "linf":
        assert luxemburg_norm(phi, x) == r.value
    rows = np.array([values, values[::-1]])
    batch = generated_norm_batch(phi, p, space, rows)
    assert batch.steps == 0 and batch.attained.all()
    assert batch.value[0] == pytest.approx(r.value, rel=1e-15, abs=0.0)
    assert batch.k_star[0] == pytest.approx(r.k_star, rel=1e-15, abs=0.0)
    for j in range(2):
        one = generated_norm_batch(phi, p, space, rows[j:j + 1])
        assert one.value[0] == batch.value[j] and one.k_star[0] == batch.k_star[j]


@pytest.mark.parametrize("weights, values", [([1.5e308] * 3, [0.9, -0.7, 0.5]),
                                             ([1e-310, 1e-312, 1e-314], [0.9, -0.7, 0.5]),
                                             ([5e-324], [0.9]), ([1.0, 2.0], [3e-309, -1e-310])])
def test_power_closed_form_sums_in_logs_past_double_range(weights, values):
    # I(u) over- or underflows on weights near the ends of double range, or
    # 2^-e is past it (max|x| below 2^-1024): its log sum holds the oracle
    # within 1e-13 in both engines, the scales too
    space = measure_space(weights)
    x = simple_function(space, values)
    for q in (1.5, 2.0, 7.5):
        phi = power(q)
        for p in (linf(), l1(), lq(2)):
            want = oracle_norm(phi, p, weights, values)
            r = generated_norm(phi, p, x)
            batch = generated_norm_batch(phi, p, space, np.array([values]))
            assert r.evaluations == 1 and batch.steps == 0, (q, p.label)
            for got in (r.value, batch.value[0]):
                assert got == pytest.approx(want, rel=1e-13, abs=0.0), (q, p.label)
        # the Luxemburg norm is 1/k where I(kx) = 1: the scale to modular level
        # 1, +inf where it is past double range (max|x| of 3e-309)
        c = engine.scale_to_modular_batch(phi, space, np.array([values]), [1.0])[0]
        lux = luxemburg_norm(phi, x)
        if c < math.inf:
            assert c * lux == pytest.approx(1.0, rel=1e-13, abs=0.0), q
        else:
            assert lux * sys.float_info.max < 1.0, q


def test_power_scales_to_a_modular_level_in_closed_form():
    # I(cx) = c^q I(x): c = (t / I(x))^(1/q), to rounding
    rng = np.random.default_rng(97)
    space = measure_space(np.exp(rng.uniform(-3.0, 3.0, 7)))
    rows = rng.uniform(-2.0, 2.0, (6, 7))
    targets = 2.0 ** -np.arange(1.0, 7.0)
    for q in (1.5, 2.0, 3.0, 7.5):
        phi = power(q)
        c = engine.scale_to_modular_batch(phi, space, rows, targets)
        for row, t, scale in zip(rows, targets, c):
            got = modular(phi, simple_function(space, row), scale=scale)
            assert got == pytest.approx(t, rel=1e-14, abs=0.0), q


@pytest.mark.parametrize("phi, p, weights, values, want, evaluations", [
    # k = 1/max|x| lies in the flat zone: the search starts at twice its edge
    # k = 2, then Newton in log(k - 2), exact for (u - 2)^2: the Luxemburg
    # point k = 3
    (flat_then_power(2, 2), linf(), [1.0], [1.0], 1.0 / 3.0, 3),
    # I overflows at k = 1/max|x|: the closed form sums at u = |x|/2, in one
    # evaluation (the loop halved k, then took one Newton step: 4)
    (power(2), linf(), [1.5e308, 1.5e308], [1.0, 1.0], math.sqrt(1.5e308) * math.sqrt(2.0), 4),
    # J = 0 for every k: the limit S = 3 as k -> inf, in closed form
    (power(1), l1(), [1.0, 1.0], [1.0, 2.0], 3.0, 0),
    # supported on an infinite atom: the finite/+inf jump k = a / 1.5 is the top
    (flat_then_power(1, 2), l1(), [math.inf], [1.5], 1.5, 1),
    # Newton in log k from w Phi(u) = 7e-301 overshoots into overflow: then
    # Newton in k from below, where log Phi is about linear in k
    (exp_minus(), linf(), [1e-300], [700.0], 1.0133537911075876, 5),
    # the power(2) row's shape for the loop: I overflows at k = 1/max|x|, k
    # halves, then Newton steps on log I, about linear in log k where Phi(u)
    # is about u^2 / 2
    (exp_minus(), linf(), [1.5e308, 1.5e308], [1.0, 1.0], math.sqrt(1.5e308), 6),
])
def test_search_paths(phi, p, weights, values, want, evaluations):
    x = simple_function(measure_space(weights), values)
    r = generated_norm(phi, p, x)
    assert r.value == pytest.approx(want, rel=1e-11, abs=0.0)
    assert r.evaluations <= evaluations
    assert r.attained == (phi.q != 1.0)  # power(1) under the sum norm: not attained
    assert r.bracket is None if phi.q == 1.0 else r.bracket[0] <= r.k_star <= r.bracket[1]


@pytest.mark.parametrize("p", [linf(), l1(), lq(1.5), lq(2), lq(3)])
def test_rows_near_overflow_take_few_evaluations(p):
    # one steep atom: from k = 1/max|x| Newton in log k overshoots about 290
    # into overflow, and Newton in k from the lower end, where log Phi is
    # about linear in k, lands at or below the root
    steep = simple_function(measure_space([1e-300]), [700.0])
    # the root lies within one float of the flat edge k = 1 (I = 3e308 (k -
    # 1)^2): from k = 2, where I overflows, k halves to the edge, where I =
    # 0, and the first float past it closes the bracket; 1/k <= g(k), and
    # g(k) > 1 past k = 1 + 1e-150, so the norm is 1 to rounding
    heavy = simple_function(measure_space([1e308] * 3), [1.0, -1.0, 1.0])
    want = oracle_norm(exp_minus(), p, steep.space.weights, steep.values)
    for phi, x, bound, value in ((exp_minus(), steep, 8, want),
                                 (flat_then_power(1, 2), heavy, 3, 1.0)):
        r = generated_norm(phi, p, x)
        batch = generated_norm_batch(phi, p, x.space, np.array([x.values]))
        assert r.evaluations <= bound and batch.steps == r.evaluations, (phi.label, r.evaluations)
        for got in (r.value, batch.value[0]):
            assert got == pytest.approx(value, rel=1e-11, abs=0.0), phi.label


_HARD_ROWS = json.loads((Path(__file__).parent / "data" / "hard_rows.json").read_text())["rows"]


@pytest.mark.parametrize("row", _HARD_ROWS, ids=[row["name"] for row in _HARD_ROWS])
def test_hard_rows_hold_their_reference_within_their_evaluations(row):
    """The rows the search has found hard (tests/data/hard_rows.json, from the
    FOUND lines of CHANGES.md): each engine takes at most the recorded
    evaluations (batch steps where lockstep takes the row), so a change that
    lowers a count lowers its ceiling, and each value holds its reference:
    the mpmath oracle within 1e-11; on a ball that is not monotone, which
    the oracle does not take, generated_norm_on_grid bounds it; with Phi
    flat up to the largest double, the span ends first, at k max|x| =
    1e300, so the value is 1/k there (the oracle, with no span, reads
    5.6e-309): the span reaches twice a flat edge past that only where
    twice it is a double."""
    phi, p = orlicz_from_descriptor(row["phi"]), planar_from_descriptor(row["p"])
    space = measure_space(row["weights"])
    x = simple_function(space, row["values"])
    r = generated_norm(phi, p, x)
    assert r.evaluations <= row["evaluations"]
    got = [r.value]
    if "batch_steps" in row:
        batch = generated_norm_batch(phi, p, space, np.array([row["values"]]))
        assert batch.steps <= row["batch_steps"]
        got.append(float(batch.value[0]))
    if row["reference"] == "grid":
        assert max(got) <= generated_norm_on_grid(phi, p, x)
        return
    want = (oracle_norm(phi, p, row["weights"], row["values"]) if row["reference"] == "oracle"
            else max(map(abs, row["values"])) / 1e300)
    for value in got:
        assert value == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("p", [linf(), l1(), lq(2)])
def test_flat_zone_up_to_the_largest_double(p):
    # with a within 2^-52 of DBL_MAX, (q - 1) u + a rounds to +inf on the flat
    # zone, and J's term there is 0, not 0 * inf: the scalar kernel on 3
    # atoms, the wide kernel on 64 and the lockstep sampler agree, the whole
    # span flat, in one evaluation
    phi = flat_then_power(math.nextafter(math.inf, 0.0), 1.0001)
    assert phi.finite_bound == 0.0  # a is past _TERM_CAP
    values = []
    for n in (3, ARRAY_ATOMS):
        space = unit_weights(n)
        r = generated_norm(phi, p, simple_function(space, np.linspace(0.5, 1.0, n)))
        batch = generated_norm_batch(phi, p, space, np.linspace(0.5, 1.0, n)[None, :])
        assert r.evaluations == batch.steps == 1, n
        values += [r.value, float(batch.value[0])]
    assert len(set(values)) == 1 and values[0] == pytest.approx(1e-300, rel=1e-11)
    f, jt = phi.pair_array(np.array([0.5, 1.0]))
    lf, lj = phi.log_pair_array(np.array([0.5, 1.0]))
    assert not (f.any() or jt.any()) and np.all(lf == -np.inf) and np.all(lj == -np.inf)


@pytest.mark.parametrize("values, evaluations", [([1.0, 0.0], (4, 6, 6)),
                                                  ([1.0, 1e-3], (13, 22, 22))])
def test_underflow_past_the_flat_edge_doubles_k(values, evaluations):
    # at k = 1/max|x| = 1, past the flat edge 0.999999, I = 1e-300 (k -
    # 0.999999)^10 underflows to 0: F = -inf at every sample, so k doubles
    # from there, in both engines
    phi, space = flat_then_power(0.999999, 10), measure_space([1e-300, 1.0])
    for p, count in zip((linf(), l1(), lq(2)), evaluations):
        r = generated_norm(phi, p, simple_function(space, values))
        batch = generated_norm_batch(phi, p, space, np.array([values]))
        assert r.evaluations == batch.steps == count and batch.value[0] == r.value, p.label
        want = oracle_norm(phi, p, space.weights, values)
        assert r.value == pytest.approx(want, rel=1e-11, abs=0.0), p.label


def test_corner_step_past_a_flat_edge():
    # I = 25k - 20 on (0.8, 2), past the flat edge k = 0.8 of the atom of
    # value 2.5; the ball's corner I = tan(0.05) is the minimiser, as g
    # falls on the facet before it and rises on the one after: the step
    # toward it in log(k - 0.8) lands there at once (15 evaluations in log k)
    p = boundary_sampled([(0.0, 1.0), (0.05, 1.0), (math.pi / 2, 1.0)])
    phi, x = flat_then_power(2, 1), simple_function(measure_space([1.0, 10.0]), [1.0, 2.5])
    r = generated_norm(phi, p, x)
    want = 25.0 / ((20.0 + math.tan(0.05)) * math.cos(0.05))
    assert r.evaluations <= 4 and r.attained
    assert r.value == pytest.approx(want, rel=1e-11, abs=0.0)
    assert r.value <= generated_norm_on_grid(phi, p, x)


def _convex_polyline(rng):
    """A convex polyline through 2-4 random breakpoints, flat on its first piece half the time."""
    m = int(rng.integers(2, 5))
    xs = np.concatenate([[0.0], np.cumsum(rng.uniform(0.2, 1.0, m))])
    slopes = np.sort(rng.uniform(0.0, 3.0, m))
    if rng.uniform() < 0.5:
        slopes[0] = 0.0
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return piecewise_linear(list(zip(xs, ys)))


def _convex_ball(rng):
    """A boundary ball whose radius slope never increases at a sample: a
    concave radius in angle, 1 at both ends, so its samples are in convex
    position (a chord's radius is convex in angle)."""
    m = int(rng.integers(1, 4))
    angles = np.concatenate([[0.0], np.sort(rng.uniform(0.1, math.pi / 2 - 0.1, m)), [math.pi / 2]])
    slopes = np.sort(rng.uniform(-0.6, 0.6, m + 1))[::-1]
    radii = np.concatenate([[0.0], np.cumsum(slopes * np.diff(angles))])
    radii = 1.0 + radii - radii[-1] * angles / angles[-1]  # a linear tilt keeps the slopes' order
    return boundary_sampled(list(zip(angles, radii)))


def test_kinked_generators_and_boundary_balls_stay_under_grid():
    # where Phi' jumps, F jumps at k = b/|x_i|: the binary search over those
    # points settles the sum norm in a few evaluations
    rng = np.random.default_rng(2000)
    phis = [power(1), *(flat_then_power(a, 1) for a in rng.uniform(0.05, 1.0, 3)),
            *(_convex_polyline(rng) for _ in range(4))]
    norms = [l1(), lq(1.5), lq(2), lq(3), *(_convex_ball(rng) for _ in range(3))]
    evaluations = {}
    for phi in phis:
        for p in norms:
            for _ in range(6):
                x = simple_function(measure_space(np.exp(rng.uniform(-2.0, 2.0, 6))),
                                    rng.uniform(-2.0, 2.0, 6))
                r = generated_norm(phi, p, x)
                with np.errstate(over="ignore", invalid="ignore"):
                    grid = generated_norm_on_grid(phi, p, x)
                assert r.value <= grid * (1.0 + 1e-9), (phi.label, p.label, x.values)
                if r.k_star is None:  # the infimum at k -> inf, in closed form
                    assert not r.attained and r.bracket is None and r.evaluations == 0
                else:
                    assert r.bracket[0] <= r.k_star <= r.bracket[1], (phi.label, p.label,
                                                                      x.values)
                if p.kind == "boundary":
                    kind = "kinked boundary" if phi.kinks else "boundary"
                else:
                    kind = "kinked l1" if p.kind == "l1" and phi.kinks and r.attained else "mean"
                evaluations.setdefault(kind, []).append(r.evaluations)
    # measured: at most 6, 11, 4 and 13; the search over the kinks goes first,
    # and a corner (u, v) of the boundary ball, where F jumps, is reached by
    # Newton on log I - log(v/u)
    for kind, bound in (("kinked l1", 6), ("mean", 11), ("boundary", 4),
                        ("kinked boundary", 13)):
        assert max(evaluations[kind]) <= bound, kind


def test_power_closed_form_on_boundary_balls_holds_the_grid_and_the_search():
    # a boundary ball's C(p, q) is the least h(t) = p((1, t)) t^(-1/q) over its
    # corners and its facets' stationary points: below a dense record of h,
    # and the norm it gives lies under generated_norm_on_grid and on the
    # search loop's minimum, in both engines
    rng = np.random.default_rng(2032)
    ts = np.geomspace(1e-4, 1e4, 20001)
    for _ in range(20):
        p, q = _convex_ball(rng), float(rng.choice([1.5, 2.0, 3.0, 7.5]))
        phi, (c, t) = power(q), p.power_constant(q)
        assert p.power_constant(q) is p.power_constant(q)  # cached per q
        h = p.evaluate_many(1.0, ts) * ts ** (-1.0 / q)
        assert c <= h.min() * (1.0 + 1e-15) and c == pytest.approx(h.min(), rel=1e-3)
        space = measure_space(np.exp(rng.uniform(-2.0, 2.0, 6)))
        rows = rng.uniform(-2.0, 2.0, (5, 6))
        batch = generated_norm_batch(phi, p, space, rows)
        assert batch.steps == 0
        for row, value in zip(rows, batch.value):
            x = simple_function(space, row)
            r = generated_norm(phi, p, x)
            assert r.evaluations == 1 and value == pytest.approx(r.value, rel=1e-15, abs=0.0)
            grid = generated_norm_on_grid(phi, p, x)
            assert grid * (1.0 - 1e-2) <= r.value <= grid * (1.0 + 1e-12), (p.descriptor(), q)
            searched = engine._first_order_root(phi, p, modular_of(phi, x), engine.LOG_TOL)[0]
            assert r.value == pytest.approx(searched, rel=1e-11, abs=0.0), (p.descriptor(), q)


def test_polygons_through_catalog_vertices_give_the_catalog_norms(orlicz_catalog):
    # boundary balls sampled at the vertices of the sum and max norms'
    # spheres: the max norm's minimiser is the ball's corner, I(kx) = 1
    l1_polygon = boundary_sampled([(0.0, 1.0), (math.pi / 2, 1.0)])
    linf_polygon = boundary_sampled([(0.0, 1.0), (math.pi / 4, math.sqrt(2.0)), (math.pi / 2, 1.0)])
    rng = np.random.default_rng(43)
    for ball, p in ((l1_polygon, l1()), (linf_polygon, linf())):
        evaluations = []
        for phi in (*orlicz_catalog.values(), power(1), flat_then_power(0.5, 1)):
            for _ in range(10):
                x = simple_function(measure_space(np.exp(rng.uniform(-2.0, 2.0, 6))),
                                    rng.uniform(-2.0, 2.0, 6))
                got = generated_norm(phi, ball, x)
                want = generated_norm(phi, p, x).value
                assert got.value == pytest.approx(want, rel=1e-11, abs=0.0), (phi.label, p.label)
                evaluations.append(got.evaluations)
        # measured: 0 and 4.3e-12 at worst, at most 10 and 9 evaluations
        assert max(evaluations) <= 10, p.label


def test_a_sample_at_a_kink_takes_the_left_limit():
    # k = 1/max|x| = 1 is the top atom's kink: F > 0 there and F = -inf just
    # below (J = 0 on the polyline's first piece), so k = 1 is the minimiser
    phi = piecewise_linear([(0, 0), (1, 0.5), (2, 2), (3, 5)])
    x = simple_function(measure_space([3.0, 1.0, 1.0]), [1.0, -0.5, 0.25])
    r = generated_norm(phi, l1(), x)
    assert r.attained and r.k_star == 1.0 and r.evaluations <= 2
    assert r.value == 1.0 + 1.5 + 0.25 + 0.125
    assert orlicz_dual_norm(phi, x) == pytest.approx(r.value, rel=1e-12, abs=0.0)
    # a kink at the flat edge, where I = 0 and F = -inf on both sides under a
    # q-mean: the search moves past it, it does not sample it again
    phi = piecewise_linear([(0, 0), (1, 0), (2, 1)])
    x = simple_function(measure_space([13.578551308290841]), [-3.2437265851831345])
    r = generated_norm(phi, lq(5), x)
    assert r.evaluations <= 6 and r.value <= generated_norm_on_grid(phi, lq(5), x)


def test_minimiser_on_a_flat_facet_is_attained():
    # past its corner I = 1 the polygon through the max norm's vertices has
    # the flat facet v = 1 (a = 0): with |u|, F = b J - a = 0 there, g is
    # constant, and its infimum is attained, as under the max norm
    ball = boundary_sampled([(0.0, 1.0), (math.pi / 4, math.sqrt(2.0)), (math.pi / 2, 1.0)])
    rng = np.random.default_rng(47)
    for _ in range(20):
        x = simple_function(measure_space(np.exp(rng.uniform(-2.0, 2.0, 6))),
                            rng.uniform(-2.0, 2.0, 6))
        got, want = generated_norm(power(1), ball, x), generated_norm(power(1), linf(), x)
        assert got.attained and want.attained, x.values
        assert got.value == pytest.approx(want.value, rel=1e-11, abs=0.0), x.values


def test_attainment_is_decided_by_the_first_order_limit():
    # under the sum norm, flat_then_power(a, 1) on n unit atoms has J -> a n:
    # the infimum is attained iff a n > 1, at the kink k = a / |x_(m)|, m the
    # first count of active atoms with a m > 1; else it is sum |x| at k -> inf
    x = simple_function(unit_weights(4), [0.7, -1.9, 1.3, -0.4])
    top = sorted((abs(v) for v in x.values), reverse=True)
    a = 1.5 / 4
    r = generated_norm(flat_then_power(a, 1), l1(), x)
    k = a / top[2]
    assert r.attained and r.k_star == pytest.approx(k, rel=1e-15, abs=0.0)
    assert r.value == pytest.approx((1.0 + sum(k * v - a for v in top[:3])) / k, rel=1e-15,
                                    abs=0.0)
    assert r.evaluations <= 3  # a binary search over the 4 kinks
    r = generated_norm(flat_then_power(0.5 / 4, 1), l1(), x)
    assert not r.attained and r.bracket is None and r.k_star is None
    assert r.evaluations == 0
    assert r.value == pytest.approx(sum(top), rel=1e-15, abs=0.0)


def test_closed_form_attainment_matches_the_grid_oracle():
    # g tends to S = slope_limit sum w |x| as k -> inf and is unimodal: the
    # infimum is approached only there iff g > S everywhere, so iff the grid
    # stays at S or above and g is still above S at k = 100 / S (where it
    # is S on a half-line, as for |u| under the max norm, it is attained);
    # there the engines report S with nothing searched
    rng = np.random.default_rng(2024)
    phis = [power(1), power(2), *(flat_then_power(a, 1) for a in rng.uniform(0.05, 1.0, 3)),
            *(_convex_polyline(rng) for _ in range(3))]
    # the fixed ball's last facet is 0.18 u + v = 1: not attained where J_inf < 0.18
    norms = [linf(), l1(), lq(1), lq(1.5), lq(3), _convex_ball(rng), _convex_ball(rng),
             boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.2), (math.pi / 2, 1.0)])]
    unattained = collections.Counter()
    for phi in phis:
        for p in norms:
            n = int(rng.integers(1, 7))
            space = measure_space(np.exp(rng.uniform(-3.0, 1.0, n)))
            rows = rng.uniform(-2.0, 2.0, (6, n)) * (rng.uniform(size=(6, n)) < 0.8)
            rows[:, 0] += 0.5  # nonzero
            batch = generated_norm_batch(phi, p, space, rows)
            for j, row in enumerate(rows):
                x = simple_function(space, row)
                r = generated_norm(phi, p, x)
                s = phi.slope_limit * math.fsum(w * abs(v) for w, v in zip(space.weights, row))
                with np.errstate(over="ignore", invalid="ignore"):
                    grid = generated_norm_on_grid(phi, p, x)
                assert r.value <= grid * (1.0 + 1e-9), (phi.label, p.label, row)
                far = p.evaluate((1.0, modular(phi, x, scale=100.0 / s))) * s / 100.0
                above = grid >= s * (1.0 - 1e-12) and far > s * (1.0 + 1e-12)
                assert (r.k_star is None) == above, (phi.label, p.label, row)
                # an attained minimiser lies inside double range, not at the span's end
                assert r.k_star is None or r.k_star < 1e200, (phi.label, p.label, row)
                assert batch.attained[j] == r.attained
                if r.k_star is None:
                    unattained["lq:1" if p.kind == "lq" and p.q == 1.0 else p.kind] += 1
                    assert not r.attained and r.bracket is None and r.evaluations == 0
                    assert r.value == pytest.approx(s, rel=1e-15, abs=0.0)
                    one = generated_norm_batch(phi, p, space, row[None, :])
                    assert one.value[0] == batch.value[j] == pytest.approx(r.value, rel=1e-15)
                    assert math.isnan(one.k_star[0]) and math.isnan(batch.k_star[j])
                    assert not one.attained[0]
    assert min(unattained[kind] for kind in ("l1", "lq:1", "lq", "boundary")) >= 5, unattained


@pytest.mark.parametrize("phi, p, values", [
    # I = 0 at k = 1/max|x|: the root search starts where Phi leaves its flat zone
    (flat_then_power(1, 2), l1(), [-0.16302, -0.02803, 0.01128, 0.04895, 0.06611]),
    *[(phi, p, [1e-6, -2e-6, 3e-6]) for phi in (power(3), exp_minus())
      for p in (l1(), lq(2), linf())],
])
def test_bracket_edge_cases_stay_under_grid(phi, p, values):
    x = simple_function(unit_weights(len(values)), values)
    r = generated_norm(phi, p, x)
    assert r.value <= generated_norm_on_grid(phi, p, x) * (1.0 + 1e-9)
    assert r.attained
    assert r.bracket[0] <= r.k_star <= r.bracket[1]


@pytest.mark.parametrize("lam", [1e-150, 1e-13, 1e13, 1e150])
def test_norms_are_homogeneous_at_extreme_scales(lam):
    # the searches start at k = 1/max|x|; an absolute span for k made small
    # elements come out wrong
    sp = measure_space([0.5, 1.0, 2.0])
    base = [0.3, -1.2, 0.7]
    x = simple_function(sp, [lam * v for v in base])
    for phi in (power(2), power(3), exp_minus(), flat_then_power(1, 2)):
        for p in (linf(), l1(), lq(2)):
            r = generated_norm(phi, p, x)
            ref = generated_norm(phi, p, simple_function(sp, base)).value
            assert r.attained and r.value == pytest.approx(lam * ref, rel=1e-10, abs=0.0), (
                phi.label, p.label)
        ref = orlicz_dual_norm(phi, simple_function(sp, base))
        assert orlicz_dual_norm(phi, x) == pytest.approx(lam * ref, rel=1e-9, abs=0.0), phi.label
    # the Luxemburg norm of (lam, 2 lam) under |u|^2 is sqrt(5) lam
    pair = simple_function(unit_weights(2), [lam, 2.0 * lam])
    assert generated_norm(power(2), linf(), pair).value == pytest.approx(
        math.sqrt(5.0) * lam, rel=1e-10, abs=0.0)
    assert luxemburg_norm(power(2), pair) == pytest.approx(math.sqrt(5.0) * lam, rel=1e-10,
                                                           abs=0.0)
    # values 1e42 lam on weights 1e-84 have the same modular under |u|^2 as
    # lam times the base (R2's tail elements have this shape): the search
    # starts at k = 1/max|x|, 42 decades below the minimiser
    heavy = simple_function(measure_space([1e-84 * w for w in sp.weights]),
                            [1e42 * v for v in x.values])
    for p in (linf(), l1(), lq(2)):
        assert generated_norm(power(2), p, heavy).value == pytest.approx(
            generated_norm(power(2), p, x).value, rel=1e-10), p.label
    assert orlicz_dual_norm(power(2), heavy) == pytest.approx(
        orlicz_dual_norm(power(2), x), rel=1e-9)


def test_modular_infinite_at_every_k_returns_inf_without_search():
    sp = measure_space([math.inf, 1.0])
    for phi in (power(2), exp_minus()):
        r = generated_norm(phi, l1(), simple_function(sp, [1.0, 2.0]))
        assert math.isinf(r.value) and r.k_star is None and r.evaluations == 0


def test_pwl_flat_generator_on_infinite_atoms_is_exact():
    phi = piecewise_linear([(0, 0), (1, 0), (2, 1)])
    x = simple_function(measure_space([math.inf] * 3), [0.3, -0.7, 0.55])
    for p in (linf(), l1(), lq(2)):
        assert abs(generated_norm(phi, p, x).value - 0.7) <= 1e-12


def test_log_tol_must_be_positive():
    x = simple_function(unit_weights(2), [3, 4])
    assert generated_norm(power(2), l1(), x, log_tol=1e-20).value == pytest.approx(10.0, rel=1e-12)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError):
            generated_norm(power(2), l1(), x, log_tol=bad)


def test_homogeneity_and_triangle_quick():
    rng = np.random.default_rng(5)
    sp = unit_weights(4)
    phi, p = exp_minus(), lq(2)
    for _ in range(15):
        x, y = _rand_function(sp, rng), _rand_function(sp, rng)
        lam = float(rng.uniform(0.1, 3.0))
        nx = generated_norm(phi, p, x).value
        ny = generated_norm(phi, p, y).value
        assert generated_norm(phi, p, x.plus(y)).value <= nx + ny + 1e-9
        assert generated_norm(phi, p, x.scaled(lam)).value == pytest.approx(lam * nx, rel=1e-9)


# --------------------------------------------------------------------------
# wide elements: from ARRAY_ATOMS atoms on the modular sums with numpy


def _wide_space(rng, n=256, infinite=0):
    """n atoms of log-uniform weight in [0.25, 4], the last `infinite` of infinite measure."""
    weights = 10.0 ** rng.uniform(-0.6, 0.6, n)
    weights[n - infinite:] = math.inf
    return measure_space(weights)


def test_wide_generated_norm_power_closed_forms():
    # M = sum w |x|^q: the max norm gives M^(1/q), the sum norm
    # q/(q-1) ((q-1) M)^(1/q), and lq:2 under |u|^2 gives sqrt(2 M)
    rng = np.random.default_rng(23)
    sp = _wide_space(rng)
    x = _rand_function(sp, rng)
    for q in (2.0, 3.0):
        m = math.fsum(w * abs(v) ** q for w, v in zip(sp.weights, x.values))
        assert generated_norm(power(q), linf(), x).value == pytest.approx(
            m ** (1 / q), rel=1e-9, abs=0.0)
        assert generated_norm(power(q), l1(), x).value == pytest.approx(
            q / (q - 1) * ((q - 1) * m) ** (1 / q), rel=1e-9, abs=0.0)
        if q == 2.0:
            assert generated_norm(power(q), lq(2), x).value == pytest.approx(
                math.sqrt(2 * m), rel=1e-9, abs=0.0)


def test_wide_generated_norm_under_grid_homogeneous_and_repeatable(orlicz_catalog,
                                                                    planar_catalog):
    rng = np.random.default_rng(29)
    for phi in orlicz_catalog.values():
        sp = _wide_space(rng, infinite=4 if phi.zero_bound > 0.0 else 0)
        x = _rand_function(sp, rng, scale=0.5)
        for p in planar_catalog.values():
            r = generated_norm(phi, p, x)
            assert r == generated_norm(phi, p, x), (phi.label, p.label)
            with np.errstate(over="ignore", invalid="ignore"):
                grid = generated_norm_on_grid(phi, p, x)
            assert r.value <= grid * (1.0 + 1e-9), (phi.label, p.label)
            for lam in (1e-150, 1e150):
                assert generated_norm(phi, p, x.scaled(lam)).value == pytest.approx(
                    lam * r.value, rel=1e-10, abs=0.0), (phi.label, p.label, lam)


def test_wide_flat_generator_on_infinite_atoms_only(planar_catalog):
    # T4: supported only on infinite atoms, the norm is max|x| / a
    rng = np.random.default_rng(31)
    sp = _wide_space(rng, infinite=4)
    vals = np.zeros(sp.n_atoms)
    vals[-4:] = [0.3, -1.7, 0.9, 1.1]
    x = simple_function(sp, vals)
    for a in (0.5, 1.0, 2.0):
        for p in planar_catalog.values():
            assert generated_norm(flat_then_power(a, 2), p, x).value == pytest.approx(
                1.7 / a, rel=1e-12, abs=0.0), (a, p.label)


def test_norms_agree_across_the_array_threshold(orlicz_catalog, planar_catalog):
    # a zero atom added at ARRAY_ATOMS - 1 atoms switches the modular to numpy
    rng = np.random.default_rng(37)
    sp = _wide_space(rng, n=ARRAY_ATOMS - 1)
    x = _rand_function(sp, rng)
    padded = simple_function(measure_space(sp.weights + (1.0,)), x.values + (0.0,))
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            assert generated_norm(phi, p, padded).value == pytest.approx(
                generated_norm(phi, p, x).value, rel=1e-14, abs=0.0), (phi.label, p.label)


# --------------------------------------------------------------------------
# unit-ball bounds


def test_lemma_bounds_flat_generator_all_norms():
    phi = flat_then_power(1, 2)
    sp = measure_space([math.inf])
    x = simple_function(sp, [1.0])
    for p in (lq(2), l1(), linf()):
        lb = lemma_bounds_check(phi, p, x)
        assert lb.lower_ok and lb.upper_ok
        assert lb.norm == pytest.approx(1.0, abs=1e-9)
        assert lb.modular_value == 0.0


def test_lemma_bounds_with_positive_modular():
    phi = flat_then_power(1, 2)
    sp = measure_space([math.inf, 1.0])
    x = simple_function(sp, [1.0, 1.5])
    lb = lemma_bounds_check(phi, p=lq(2), x=x)
    assert lb.modular_value == pytest.approx(0.25)
    assert lb.lower_ok and lb.upper_ok
    assert 1.0 - 1e-9 <= lb.norm <= 1.25 + 1e-9


def test_lemma_bounds_precondition_errors():
    sp = unit_weights(2)
    with pytest.raises(PreconditionError):
        lemma_bounds_check(power(2), l1(), simple_function(sp, [1.0, 1.0]))
    spi = measure_space([math.inf])
    with pytest.raises(PreconditionError):
        lemma_bounds_check(power(2), l1(), simple_function(spi, [1.0]))


# --------------------------------------------------------------------------
# dual norm lower bound


def test_dual_norm_matches_sum_type_norm():
    sp = unit_weights(2)
    x = simple_function(sp, [3, 4])
    dual = orlicz_dual_norm(power(2), x)
    amemiya = generated_norm(power(2), l1(), x).value
    assert dual <= amemiya + 1e-6
    assert dual >= amemiya - 1e-3


def test_dual_norm_zero_and_single_atom():
    sp = unit_weights(1)
    assert orlicz_dual_norm(power(2), simple_function(sp, [0.0])) == 0.0
    for c in (0.5, 2.0, 7.0):
        got = orlicz_dual_norm(power(2), simple_function(sp, [c]))
        assert got == pytest.approx(2.0 * c, rel=1e-3)


def test_dual_norm_weighted_and_steep(monkeypatch):
    # the sum norm's search takes J from the modular's pass: Phi' itself is
    # evaluated at the bracket's two ends only, for the chord
    calls = []
    derivative = OrliczFunction.derivative_array

    def counted(self, u):
        calls.append(u)
        return derivative(self, u)

    monkeypatch.setattr(OrliczFunction, "derivative_array", counted)
    rng = np.random.default_rng(9)
    sp = measure_space([0.5, 1.0, 2.0])
    kinked = (piecewise_linear([(0, 0), (1, 0), (2, 1), (3, 3)]), flat_then_power(0.5, 1),
              power(1), piecewise_linear([(0, 0), (1, 0.5), (2, 2)]))
    for phi in (power(2), power(3), exp_minus(), flat_then_power(1, 2)) + kinked:
        for _ in range(5):
            x = _rand_function(sp, rng)
            calls.clear()
            dual = orlicz_dual_norm(phi, x)
            # power(1): J = 0 for every k, the value is its limit and takes no Phi'
            assert len(calls) == (0 if phi == power(1) else 2), phi.label
            amemiya = generated_norm(phi, l1(), x).value
            assert dual <= amemiya + 1e-6, phi.label
            # the chord between the bracket's ends costs a kinked generator up to about 7e-13
            gap = 2e-12 if phi in kinked else 1e-14
            assert dual >= amemiya - gap * max(1.0, amemiya), phi.label


def test_dual_norm_of_a_power_near_one_is_the_closed_form():
    # Psi(v) = (q - 1) (v/q)^(q/(q - 1)) is homogeneous of a degree near 1e6
    # here, so a certificate rescaled by its conjugate modular c (not by
    # c^((q - 1)/q)) lands far inside the dual ball; the closed form is
    # q/(q - 1) ((q - 1) sum w |x|^q)^(1/q)
    rng = np.random.default_rng(12)
    for _ in range(800):
        q = 1.0 + 10.0 ** rng.uniform(-6.0, 0.0)
        n = int(rng.integers(1, 7))
        w, x = np.exp(rng.uniform(-2.0, 2.0, n)), rng.uniform(-3.0, 3.0, n)
        total = float(np.sum(w * np.abs(x) ** q))
        closed = q * total ** (1.0 / q) * math.exp((1.0 / q - 1.0) * math.log(q - 1.0))
        got = orlicz_dual_norm(power(q), simple_function(measure_space(w.tolist()), x.tolist()))
        assert got == pytest.approx(closed, rel=1e-13, abs=0.0), (q, w, x)


def test_dual_norm_rejects_infinite_atom_support():
    sp = measure_space([math.inf, 1.0])
    with pytest.raises(PreconditionError):
        orlicz_dual_norm(power(2), simple_function(sp, [1.0, 1.0]))


# --------------------------------------------------------------------------
# the batched engine: one lockstep search per block of rows

BATCH_PHIS = (power(2), power(3), exp_minus(), flat_then_power(1, 2),
              piecewise_linear([(0, 0), (1, 0.5), (2, 2)]), flat_then_power(1, 1))
BATCH_NORMS = (linf(), l1(), lq(1.5), lq(2), lq(3))
_VALUE = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))


@st.composite
def _batches(draw):
    """A catalog norm, a generator (two of them kinked), a space of 1-8 atoms
    with random weights and 1-5 value rows."""
    n = draw(st.integers(1, 8))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_VALUE, min_size=n, max_size=n), min_size=1, max_size=5))
    return (draw(st.sampled_from(BATCH_PHIS)), draw(st.sampled_from(BATCH_NORMS)),
            measure_space(weights), np.array(rows))


def _same(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True)


def _assert_rows_independent(phi, p, space, values, batch):
    for j, row in enumerate(values):
        one = generated_norm_batch(phi, p, space, row[None, :])
        assert one.value[0] == batch.value[j] and one.attained[0] == batch.attained[j]
        assert _same(one.k_star[0], batch.k_star[j])


def _assert_agrees_with_scalar(phi, p, space, values, batch, exact=False):
    for j, row in enumerate(values):
        r = generated_norm(phi, p, simple_function(space, row))
        assert batch.attained[j] == r.attained, (phi.label, p.label, row)
        if exact:
            assert batch.value[j] == r.value
            assert _same(batch.k_star[j], math.nan if r.k_star is None else r.k_star)
        else:
            assert batch.value[j] == pytest.approx(r.value, rel=1e-11, abs=0.0), (
                phi.label, p.label, row)


_SMOOTH_PHIS = (power(1.5), power(2), power(3), exp_minus(), flat_then_power(1, 2),
                flat_then_power(0.3, 3))


# k = 1/max|x| on flat_then_power(1, 2)'s edge, where I is rounding: started
# there, the engines took 5 against 4 and 10 against 8 evaluations
@example(flat_then_power(1, 2), linf(), [(0.39, 0.39)])
@example(flat_then_power(1, 2), l1(), [(-1.55, -0.39)])
@given(st.sampled_from(_SMOOTH_PHIS), st.sampled_from(BATCH_NORMS),
       st.lists(st.tuples(st.floats(-3.0, 3.0), _VALUE), min_size=1, max_size=8)
       .filter(lambda atoms: any(v for _, v in atoms)))
def test_both_engines_take_the_same_steps(phi, p, atoms):
    # one step rule: the lockstep loop takes as many steps on one row as the
    # scalar loop takes evaluations, flat edges and overflow included, not
    # only the same value (called directly: the power rows take neither)
    space = measure_space([math.exp(e) for e, _ in atoms])
    evaluations, steps = _loop_counts(phi, p, space, np.array([v for _, v in atoms]))
    assert steps == evaluations, (phi.label, p.label)


@given(_batches())
def test_batch_agrees_with_the_scalar_engine_and_the_grid(case):
    phi, p, space, values = case
    batch = generated_norm_batch(phi, p, space, values)
    _assert_agrees_with_scalar(phi, p, space, values, batch, exact=bool(phi.kinks))
    _assert_rows_independent(phi, p, space, values, batch)
    for j, row in enumerate(values):
        with np.errstate(over="ignore", invalid="ignore"):
            grid = generated_norm_on_grid(phi, p, simple_function(space, row))
        assert batch.value[j] <= grid + 1e-8, (phi.label, p.label, row)


def test_batch_edge_rows(orlicz_catalog, planar_catalog):
    zero = np.zeros((2, 3))
    for phi in orlicz_catalog.values():
        for p in planar_catalog.values():
            r = generated_norm_batch(phi, p, unit_weights(3), zero)
            assert np.all(r.value == 0.0) and np.all(np.isnan(r.k_star)) and not r.attained.any()
            assert r.steps == 0
    # wholly in the flat zone at k = 1/max|x|: F = -inf until the first doubling
    flat = flat_then_power(1, 2)
    rows = np.array([[0.3, -0.9, 0.5, 0.1], [1e-3, 0.0, 2e-3, -5e-4], [0.7, 0.7, -0.7, 0.7]])
    for p in planar_catalog.values():
        batch = generated_norm_batch(flat, p, unit_weights(4), rows)
        _assert_agrees_with_scalar(flat, p, unit_weights(4), rows, batch)
        _assert_rows_independent(flat, p, unit_weights(4), rows, batch)


def test_scale_rows_in_the_flat_zone_step_past_its_edge(monkeypatch):
    # modular 0 at k = 1/max|x|: the first step doubles k past the flat edge
    # zero_bound / max|x|, and Newton in log(k - k_edge) takes it from there
    calls = []
    pair_terms = OrliczFunction.pair_terms

    def counted(self, au, series=None):
        calls.append(len(au))
        return pair_terms(self, au, series)
    monkeypatch.setattr(OrliczFunction, "pair_terms", counted)
    flat, space = flat_then_power(1, 2), unit_weights(4)
    rows = np.array([[0.3, -0.9, 0.5, 0.1], [0.7, 0.7, -0.7, 0.7]])
    c = engine.scale_to_modular_batch(flat, space, rows, [0.5, 0.5])
    assert 0 < len(calls) <= 10, calls
    for cn, row in zip(c.tolist(), rows):
        x = simple_function(space, row)
        assert modular(flat, x, scale=cn) <= 0.5 < modular(flat, x, scale=cn * math.exp(3e-13))


def _assert_both_engines_match_the_oracle(phi, p, space, rows):
    """Both engines on every row within 1e-11 relative of the 40-digit
    oracle, with the same ``attained``."""
    batch = generated_norm_batch(phi, p, space, rows)
    for j, row in enumerate(rows):
        ref = oracle_norm(phi, p, space.weights, row)
        scalar = generated_norm(phi, p, simple_function(space, row))
        assert batch.attained[j] == scalar.attained, (phi.label, p.label, j)
        for got in (batch.value[j], scalar.value):
            assert got == pytest.approx(ref, rel=1e-11, abs=0.0), (phi.label, p.label, j)
    return batch


@pytest.mark.parametrize("phi", [exp_minus(), flat_then_power(1, 2), power(2), power(3)])
def test_batch_on_steep_tails_near_overflow(phi, planar_catalog):
    # R2's rows: levels close to the largest float at which Phi is finite, on
    # weights down to 2^-28 / Phi(level) (subnormal for exp_minus); the
    # minimiser lies where u Phi'(u), and for the last tails Phi(u) itself,
    # overflows, so the engines take those terms in log form
    space, levels = verify._steep_tail_element(phi, 28)
    rows = np.array([verify._tail(levels, i) for i in range(28)])
    # the same tails padded with zero atoms to ARRAY_ATOMS: the scalar engine
    # then sums by numpy (modular_of's wide path) and mends that sum
    wide = measure_space(list(space.weights) + [1.0] * (ARRAY_ATOMS - 28))
    padded = np.hstack([rows[::9], np.zeros((len(rows[::9]), ARRAY_ATOMS - 28))])
    for p in planar_catalog.values():
        _assert_both_engines_match_the_oracle(phi, p, space, rows)
        _assert_both_engines_match_the_oracle(phi, p, wide, padded)
        _assert_rows_independent(phi, p, space, rows[::9], generated_norm_batch(
            phi, p, space, rows[::9]))


@pytest.mark.parametrize("p", [linf(), l1(), lq(2)])
def test_exp_minus_on_huge_weights_matches_the_oracle(p):
    # the minimiser puts k |x| near 1e-154, where expm1(u) - u cancels at any
    # fixed precision: the oracle takes Phi's series there
    x = simple_function(measure_space([1e308] * 3), [1.0, -1.0, 1.0])
    want = oracle_norm(exp_minus(), p, x.space.weights, x.values)
    if p.kind == "linf":  # 3e308 u^2 / 2 = 1 at u = 1 / norm
        assert want == pytest.approx(math.sqrt(1.5e308), rel=1e-11, abs=0.0)
    assert generated_norm(exp_minus(), p, x).value == pytest.approx(want, rel=1e-11, abs=0.0)


def test_steep_single_atoms_match_the_oracle(orlicz_catalog, planar_catalog):
    # R3's counterexample rows: one steep atom each, modular 2^-n, n = 1..20
    for phi in orlicz_catalog.values():
        space, levels = verify._steep_tail_element(phi, 20)
        for p in planar_catalog.values():
            _assert_both_engines_match_the_oracle(phi, p, space, np.diag(levels))


def test_approximate_embedding_rows_match_the_oracle(planar_catalog):
    # T3's rows levels * z on weights target / Phi(level), levels near overflow
    phi = exp_minus()
    for p in planar_catalog.values():
        witness, report = verify.build_linf_witness(phi, p, 4, "approximate", z_samples=20,
                                                    seed=1)
        zs = verify._z_batch(4, 20, np.random.default_rng(1))
        rows = np.array(report.details["levels"]) * np.array(zs)
        _assert_both_engines_match_the_oracle(phi, p, witness.basis[0].space, rows)


def _steep_value(phi, mass: float) -> float:
    """A value v with Phi(v) about `mass`, for mass >= 1."""
    if phi.kind == "exp_minus":
        return math.log(mass)
    return phi.zero_bound + mass ** (1.0 / phi.q)


@given(st.sampled_from([power(2), power(3), exp_minus(), flat_then_power(1, 2)]),
       st.sampled_from([linf(), l1(), lq(1.5), lq(2), lq(3)]),
       st.lists(st.tuples(st.floats(0.0, 303.0), st.floats(-30.0, 0.0)), min_size=1,
                max_size=3))
def test_steep_atoms_of_tiny_weight_match_the_oracle(phi, p, atoms):
    # weights 10^-e down to 1e-303, each atom at a value v with w Phi(v) about 2^m
    weights = [10.0 ** -e for e, _ in atoms]
    space = measure_space(weights)
    row = [_steep_value(phi, 2.0 ** m / w) if 2.0 ** m / w > 1.0 else 1.0
           for w, (_, m) in zip(weights, atoms)]
    _assert_both_engines_match_the_oracle(phi, p, space, np.array([row]))


def test_a_row_samples_the_same_k_alone_and_in_a_batch(monkeypatch):
    # a steep row whose upper end overflows (its next step is Newton in k
    # from the lower end) beside a row whose I overflows at its start (one
    # end, halving k, then Newton from above): each row's samples are the
    # ones it takes alone
    sampled = []
    sampler = engine._batch_sampler

    def recording(*args):
        sample = sampler(*args)

        def run(k, ax):
            sampled.append(dict(zip(map(tuple, ax.tolist()), k.tolist())))
            return sample(k, ax)
        return run
    monkeypatch.setattr(engine, "_batch_sampler", recording)
    space = measure_space([1e-300, 1e308, 1e308, 1e308])
    rows = np.array([[700.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
    for p in (linf(), l1(), lq(2)):
        alone = []
        for row in rows:
            sampled.clear()
            generated_norm_batch(exp_minus(), p, space, row[None, :])
            alone.append([ks[tuple(row)] for ks in sampled])
        sampled.clear()
        generated_norm_batch(exp_minus(), p, space, rows)
        for row, ks in zip(rows, alone):
            assert [s[tuple(row)] for s in sampled if tuple(row) in s] == ks, p.label


def test_batch_reports_the_limit_where_the_infimum_is_not_attained():
    # power:1 under the sum norm: (1 + k S)/k decreases to S, taken exactly
    rows = np.array([[1.0, 2.0], [0.5, -0.25]])
    batch = generated_norm_batch(power(1), l1(), unit_weights(2), rows)
    assert not batch.attained.any() and np.isnan(batch.k_star).all() and batch.steps == 0
    assert batch.value.tolist() == [3.0, 0.75]
    _assert_agrees_with_scalar(power(1), l1(), unit_weights(2), rows, batch, exact=True)


def test_batch_routes_to_the_scalar_engine():
    # rows nonzero on an infinite atom (the finite/+inf jump) go to the scalar
    # engine, and so does every row under a boundary ball or a kinked generator
    ball = boundary_sampled([(0.0, 1.0), (math.pi / 4, 1.2), (math.pi / 2, 1.0)])
    kinked = piecewise_linear([(0, 0), (1, 0), (2, 1)])
    space = measure_space([1.0, 0.5, math.inf])
    on_infinite = np.array([[0.3, 0.2, 0.7], [0.0, 0.0, -1.5]])
    finite = np.array([[0.3, -1.2, 0.0], [2.0, 0.1, 0.0]])
    for phi, p, rows in ((flat_then_power(1, 2), lq(2), on_infinite),
                         (exp_minus(), linf(), on_infinite), (power(2), l1(), on_infinite),
                         (power(2), ball, finite), (kinked, lq(2), finite),
                         (flat_then_power(0.5, 1), l1(), finite)):
        batch = generated_norm_batch(phi, p, space, rows)
        _assert_agrees_with_scalar(phi, p, space, rows, batch, exact=True)


def test_scales_to_modular_levels(orlicz_catalog):
    # R3's roots c of modular(c x) = 2^-n, n = 1..40, as one lockstep batch
    space = measure_space([0.7, 1.0, 0.3, math.inf])
    base = np.array([0.4, -0.9, 0.05, 0.0])
    rows, targets = np.tile(base, (40, 1)), 2.0 ** -np.arange(1.0, 41.0)
    x = simple_function(space, base)
    for phi in orlicz_catalog.values():
        c = engine.scale_to_modular_batch(phi, space, rows, targets)
        for cn, t in zip(c.tolist(), targets.tolist()):
            # c is the lower end of a bracket 1e-13 wide in log c, or the
            # first guess where that lands on the root to rounding
            assert modular(phi, x, scale=cn) <= t * (1.0 + 1e-14), (phi.label, t)
            assert modular(phi, x, scale=cn * math.exp(3e-13)) >= t, (phi.label, t)
        one = engine.scale_to_modular_batch(phi, space, rows[-1:], targets[-1:])
        assert one[0] == c[-1]
    for bad in ([[0.0, 0.0, 0.0, 0.0]], [[0.5, 0.0, 0.0, 1.0]]):
        with pytest.raises(DomainError):
            engine.scale_to_modular_batch(power(2), space, bad, [0.5])


@st.composite
def _scale_batches(draw):
    """A generator, a space of 1-6 finite atoms (and maybe one infinite atom,
    where the rows vanish), 1-5 nonzero value rows and a target per row."""
    n = draw(st.integers(1, 6))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(_VALUE, min_size=n, max_size=n).filter(any),
                         min_size=1, max_size=5))
    targets = draw(st.lists(st.floats(1e-12, 4.0), min_size=len(rows), max_size=len(rows)))
    if draw(st.booleans()):
        weights, rows = weights + [math.inf], [row + [0.0] for row in rows]
    return (draw(st.sampled_from(BATCH_PHIS)), measure_space(weights), np.array(rows),
            np.array(targets))


# exp_minus rows of which some overflow at the samples where the others do not
@example((exp_minus(), measure_space([94.91394927433957, 11.723455189526877, 0.023830493253589696,
                                      0.036374399846702425]),
          np.array([[-2.264577787447321, 3.5442911952466725, 4.56200735157527, 4.269873698223808],
                    [-7.385340591471637, 8.439571546355069, 7.165515554252181, -3.3046833481052444],
                    [-3.7800384626550074, -9.661021090165685, -5.545480477877338, -6.9635622299907],
                    [-1.1255007622279376, 2.2980219396738284, 10.384116078520606,
                     -2.2568438613643567],
                    [-5.219719542115012, 8.525643451881752, -9.008146877231734,
                     -6.477405626717831]]),
          np.array([4.969516302576338e-4, 8.30890755474444e-6, 1.3546809799216916e-8,
                    1.026324575034656e-10, 7.697553102915472e-12])))
@given(_scale_batches())
def test_scale_batch_rows_are_independent(case):
    # a batch of N rows equals N batches of one, bit for bit: verify merges
    # the scale requests of concurrent suites into one call
    phi, space, rows, targets = case
    c = engine.scale_to_modular_batch(phi, space, rows, targets)
    for j in range(len(rows)):
        one = engine.scale_to_modular_batch(phi, space, rows[j:j + 1], targets[j:j + 1])
        assert _same(one[0], c[j]), (phi.label, j)


def test_batch_rejects_bad_values():
    for bad in (np.zeros(3), np.zeros((2, 4)), np.array([[0.0, math.nan, 1.0]]),
                np.array([[math.inf, 0.0, 1.0]])):
        with pytest.raises(DomainError):
            generated_norm_batch(power(2), l1(), unit_weights(3), bad)
