import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlnorm import (ContractError, DomainError, SimpleFunction, catalog_orlicz_functions,
                     catalog_planar_norms, exp_minus, flat_then_power, l1, linf, lq,
                     measure_space, modular, modular_on_grid, piecewise_linear, power,
                     simple_function, space_from_descriptor, unit_weights)
from orlnorm.engine import (_batch_sampler, _jump, generated_norm, generated_norm_batch,
                            scale_to_modular_batch)
from orlnorm.orlicz import SERIES_CUT, OrliczFunction
from orlnorm.spaces import ARRAY_ATOMS, dominated_pairs, modular_of

from mp_oracle import oracle_norm


def test_space_validation():
    with pytest.raises(DomainError):
        measure_space([])
    with pytest.raises(DomainError):
        measure_space([0.0])
    with pytest.raises(DomainError):
        measure_space([1.0, -2.0])
    sp = measure_space([1.0, math.inf, 0.25])
    assert sp.finite_indices == (0, 2)
    assert sp.infinite_indices == (1,)
    assert sp.has_infinite_atoms


def test_simple_function_validation():
    sp = unit_weights(2)
    with pytest.raises(DomainError):
        simple_function(sp, [1.0])
    with pytest.raises(DomainError):
        simple_function(sp, [1.0, math.inf])
    x = simple_function(sp, [0.0, 2.0])
    assert x.support == (1,)


def test_values_are_python_floats():
    x = SimpleFunction(unit_weights(3), tuple(np.array([0.5, -1.0, 2.0])))
    assert all(type(v) is float for v in x.values)
    assert all(type(v) is float for v in x.scaled(np.float64(2.0)).values)


def test_modular_examples():
    sp = unit_weights(2)
    m = modular(power(2), simple_function(sp, [3, 4]))
    assert type(m) is float and m == 25.0
    spi = measure_space([math.inf])
    assert modular(flat_then_power(1, 2), simple_function(spi, [1.0])) == 0.0
    m = modular(power(2), simple_function(spi, [2.0]))
    assert type(m) is float and m == math.inf


def _modular_atom_by_atom(phi, x, scale):
    """The reference: one Phi evaluation per nonzero atom, in atom order."""
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


def test_modular_equals_atom_by_atom_loop_bit_for_bit():
    rng = np.random.default_rng(31)
    phis = list(catalog_orlicz_functions().values())
    phis.append(piecewise_linear([(0, 0), (0.5, 0), (1, 0.25), (2, 2)]))
    for phi in phis:
        for _ in range(40):
            n = int(rng.integers(1, 9))
            weights = np.where(rng.uniform(size=n) < 0.3, math.inf,
                               10.0 ** rng.uniform(-2, 2, n))
            values = rng.normal(size=n) * (rng.uniform(size=n) < 0.8)
            x = simple_function(measure_space(weights), values)
            for scale in 10.0 ** rng.uniform(-3, 3, 6):
                got = modular(phi, x, scale=float(scale))
                assert got == _modular_atom_by_atom(phi, x, float(scale)), (phi.label, x, scale)


def _modular_exact_sum(phi, x, scale):
    """The wide-element reference: one Phi evaluation per nonzero atom, the
    finite atoms' terms summed exactly."""
    args = [(w, scale * v) for w, v in zip(x.space.weights, x.values) if v != 0.0]
    if not all(math.isfinite(u) for _, u in args):
        raise DomainError("non-finite argument")
    if any(math.isinf(w) and phi.evaluate(u) != 0.0 for w, u in args):
        return math.inf
    try:
        return math.fsum(w * phi.evaluate(u) for w, u in args if math.isfinite(w))
    except OverflowError:  # the exact sum leaves double range
        return math.inf


def test_wide_modular_matches_exact_sum():
    # from ARRAY_ATOMS atoms on, the finite atoms are summed by a numpy dot
    rng = np.random.default_rng(37)
    phis = list(catalog_orlicz_functions().values())
    phis += [piecewise_linear([(0, 0), (0.5, 0), (1, 0.25), (2, 2)]), flat_then_power(0.5, 1)]
    for phi in phis:
        for n in (ARRAY_ATOMS, 97, 300):
            for inf_share in (0.0, 0.1):
                weights = np.where(rng.uniform(size=n) < inf_share, math.inf,
                                   10.0 ** rng.uniform(-2, 2, n))
                values = rng.normal(size=n) * (rng.uniform(size=n) < 0.8)
                x = simple_function(measure_space(weights), values)
                for scale in [*10.0 ** rng.uniform(-3, 3, 8), 1e308, math.nan]:
                    try:
                        want = _modular_exact_sum(phi, x, float(scale))
                    except DomainError:
                        with pytest.raises(DomainError):
                            modular(phi, x, scale=float(scale))
                        continue
                    got = modular(phi, x, scale=float(scale))
                    assert type(got) is float
                    assert got == want or abs(got - want) <= 1e-14 * want, (phi.label, n, scale)
    # a sum past double range is +inf on both paths
    for n in (ARRAY_ATOMS - 1, ARRAY_ATOMS):
        assert modular(power(1), simple_function(unit_weights(n), [1e308] * n)) == math.inf


def _conjugate_exact_sum(phi, x, scale):
    """J's reference: sum w (u Phi'(u) - Phi(u)) over the finite atoms, u =
    scale |x|, Phi' from derivative_array, the terms summed exactly."""
    args = [(w, abs(scale * v)) for w, v in zip(x.space.weights, x.values)
            if v != 0.0 and math.isfinite(w)]
    slopes = phi.derivative_array([u for _, u in args]).tolist()
    return math.fsum(w * (u * d - phi.evaluate(u)) for (w, u), d in zip(args, slopes))


def test_modular_with_conjugate_matches_exact_sums():
    # the (I, J) pass, by the kind's kernel below ARRAY_ATOMS and by numpy
    # from there on; at scale 1 the special values sit below exp_minus's
    # series cut, at the flat zones' ends, at the polyline's breakpoints and
    # on its tail
    rng = np.random.default_rng(41)
    special = [3e-6, -1e-7, 1e-5, 0.5, -0.5, 1.0, -1.0, 2.0, 3.0, 0.0]
    phis = list(catalog_orlicz_functions().values())
    phis += [piecewise_linear([(0, 0), (0.5, 0), (1, 0.25), (2, 2)]), flat_then_power(0.5, 1)]
    for phi in phis:
        for n in (1, 6, ARRAY_ATOMS - 1, ARRAY_ATOMS, 97):
            for inf_share in (0.0, 0.2):
                weights = np.where(rng.uniform(size=n) < inf_share, math.inf,
                                   10.0 ** rng.uniform(-2, 2, n))
                values = rng.normal(size=n) * (rng.uniform(size=n) < 0.8)
                values[:len(special)] = rng.permutation(special)[:n]
                x = simple_function(measure_space(weights), values)
                pair = modular_of(phi, x).with_conjugate
                for scale in (1.0, *10.0 ** rng.uniform(-1, 1, 4)):
                    i, j = pair(float(scale))
                    want = _modular_exact_sum(phi, x, float(scale))
                    if math.isinf(want):
                        assert (i, j) == (math.inf, math.inf), (phi.label, n, scale)
                        continue
                    if n < ARRAY_ATOMS:
                        assert i == _modular_atom_by_atom(phi, x, float(scale))
                    assert i == want or abs(i - want) <= 1e-14 * want, (phi.label, n, scale)
                    want = _conjugate_exact_sum(phi, x, float(scale))
                    assert abs(j - want) <= 1e-14 * max(1.0, want), (phi.label, n, scale)


def _wide_space(n, infinite):
    weights = 10.0 ** np.random.default_rng(n).uniform(-2, 2, n)
    weights[[3, n - 1][:infinite]] = math.inf
    return measure_space(weights)


def _vdot_sums(phi, ws, az, s):
    """The wide kernel's reference: pair_array's terms, under its error
    context, summed by np.vdot."""
    f, jt = phi.pair_array(s * az)
    return float(np.vdot(ws, f)), float(np.vdot(ws, jt))


def _below(bound, top):
    """The largest s with s * top < bound."""
    s = bound / top
    while not s * top < bound:
        s = math.nextafter(s, 0.0)
    while math.nextafter(s, math.inf) * top < bound:
        s = math.nextafter(s, math.inf)
    return s


@pytest.mark.parametrize("n", [ARRAY_ATOMS, 256])
@pytest.mark.parametrize("infinite", [0, 2])
def test_wide_kernel_is_the_sums_over_freshly_converted_arrays(n, infinite):
    # the wide modular reads the space's cached atom_arrays and the least and
    # largest |x| once per call; the reference converts the weights and
    # values afresh and sums pair_array's terms by np.vdot, and the two
    # agree bit for bit.  One element has a finite atom of value 0, the
    # other none, sampled where s min|x| straddles exp_minus's series cut
    space, rng = _wide_space(n, infinite), np.random.default_rng(n + infinite)
    ws = np.array(space.weights)
    finite = np.isfinite(ws)
    for phi in catalog_orlicz_functions().values():
        zero = rng.normal(size=n) * (rng.uniform(size=n) < 0.8)
        zero[0] = 0.0  # atom 0 is finite
        dense = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
        cut = _below(SERIES_CUT, np.abs(dense[finite]).min())
        for values, straddle in ((zero, ()), (dense, (cut, math.nextafter(cut, math.inf)))):
            x = simple_function(space, values)
            az = np.abs(np.array(x.values))
            modular_at = modular_of(phi, x)
            assert modular_at.top_inf == max(az[~finite], default=0.0)
            assert modular_at.top_finite == az[finite].max()
            for s in (1.0, *10.0 ** rng.uniform(-2, 2, 5), *straddle):
                want = _vdot_sums(phi, ws[finite], az[finite], float(s))
                assert [v.hex() for v in modular_at.kernel(float(s))] == [v.hex() for v in want]


GUARDED = (power(1), power(2), power(3), power(7.5), exp_minus(), flat_then_power(1, 1),
           flat_then_power(1, 1.5), flat_then_power(1, 2),
           piecewise_linear([(0, 0), (0.5, 0), (1, 0.25), (2, 2)]))


@pytest.mark.parametrize("phi", GUARDED, ids=lambda phi: phi.label)
def test_wide_kernel_guard_is_exact_at_its_bound(phi, monkeypatch):
    # below phi.finite_bound the wide kernel takes its terms with no error
    # context.  Just below it and just above it, where pair_array runs, with
    # steep atoms of weight 1e-300 at max|x|, the kernel is pair_array's
    # terms summed by np.vdot to the bit; error::RuntimeWarning in the test
    # settings shows that no warning leaks below the bound
    rng, n, steep = np.random.default_rng(59), ARRAY_ATOMS, [0, 7, ARRAY_ATOMS - 1]
    weights = 10.0 ** rng.uniform(-2, 0, n)
    weights[steep] = 1e-300
    values = 3.7 * rng.uniform(0.0, 0.5, n) * rng.choice([-1.0, 1.0], n)
    values[steep] = [3.7, -3.7, 3.7]
    modular_at = modular_of(phi, simple_function(measure_space(weights), values))
    ws, az = np.array(weights), np.abs(values)
    below = _below(phi.finite_bound, 3.7)
    above = math.nextafter(below, math.inf)
    assert below * 3.7 < phi.finite_bound <= above * 3.7
    calls = []
    pair_array = OrliczFunction.pair_array

    def counted(self, au):
        calls.append(len(au))
        return pair_array(self, au)
    monkeypatch.setattr(OrliczFunction, "pair_array", counted)
    for s, guarded in ((below, True), (above, False)):
        calls.clear()
        got = modular_at.kernel(s)
        assert (not calls) == guarded, (phi.label, s)
        want = _vdot_sums(phi, ws, az, s)
        assert math.isfinite(want[0] + want[1]), (phi.label, s)
        assert [v.hex() for v in got] == [v.hex() for v in want], (phi.label, s)


def test_wide_kernel_guard_with_a_flat_zone_past_its_cap():
    # flat_then_power(a, q) with a the largest double: (q - 1) u + a rounds
    # past double range on the flat zone, where its J term is then 0 * inf,
    # so finite_bound is 0 and every sample takes pair_array's error
    # context: no warning leaks, and the kernel equals pair_array's sums
    # (whose J is nan there, a known defect of the array terms on such a zone)
    phi = flat_then_power(math.nextafter(math.inf, 0.0), 1.0001)
    assert phi.finite_bound == 0.0
    x = simple_function(unit_weights(ARRAY_ATOMS), np.linspace(0.5, 1.0, ARRAY_ATOMS))
    want = _vdot_sums(phi, np.ones(ARRAY_ATOMS), np.abs(np.array(x.values)), 1e300)
    assert [v.hex() for v in modular_of(phi, x).kernel(1e300)] == [v.hex() for v in want]


def test_atom_arrays_are_read_only_and_built_once_per_space():
    space = _wide_space(ARRAY_ATOMS, 2)
    ws, finite = space.atom_arrays
    assert space.has_infinite_atoms and finite.sum() == ARRAY_ATOMS - 2
    assert ws.tolist() == [w for w in space.weights if math.isfinite(w)]
    for arr, v in ((ws, 1.0), (finite, False)):
        with pytest.raises(ValueError):
            arr[0] = v
    # two elements on the space and a multiple of one share its arrays
    x = simple_function(space, np.linspace(-1.0, 1.0, ARRAY_ATOMS))
    y = simple_function(space, np.ones(ARRAY_ATOMS))
    for z in (x, y, x.scaled(3.0), x.plus(y)):
        assert z.space.atom_arrays is space.atom_arrays
        assert modular_of(power(2), z).finite_atoms()[0] is ws
    assert unit_weights(ARRAY_ATOMS).atom_arrays[1].all()
    assert not unit_weights(ARRAY_ATOMS).has_infinite_atoms


def test_batch_engines_keep_their_values_on_infinite_atoms():
    # values pinned from the engines before the weights' array view was
    # cached (power:2's since its closed form, within 2.5e-16 of the exact
    # values); the third row, nonzero on both infinite atoms, takes the
    # scalar route (the finite/+inf jump)
    n = ARRAY_ATOMS + 2
    weights = [0.25 * (1 + i % 16) for i in range(n)]
    weights[5] = weights[-1] = math.inf
    space = measure_space(weights)
    rows = np.array([[math.sin(i * r + 1.0) for i in range(n)] for r in (1, 2, 3)])
    rows[:2, [5, -1]] = 0.0
    pinned = {
        "power:2": (lq(2), ["0x1.6eeacab06355ep+3", "0x1.703dd640005ddp+3"],
                    ["0x1.f931489617263p-4", "0x1.f760254d1398dp-4"],
                    ["0x1.65399d079a862p-4", "0x1.63f0b6168af0dp-3"]),
        "flat_then_power:1,2": (l1(), ["0x1.f59eb508d301bp-1", "0x1.f35420abfc322p-1",
                                       "0x1.f68603bdaeb6fp-1"],
                                ["0x1.08e3eb9213dfep+0", "0x1.0ad28ee0a7b48p+0",
                                 "0x1.08396ef6f1157p+0"],
                                ["0x1.2642b707a82cdp+0", "0x1.439e713c34e00p+0"]),
        "exp_minus": (linf(), ["0x1.77e3258024872p+2", "0x1.793ed69ebba7dp+2"],
                      ["0x1.5cb344ebd0966p-3", "0x1.5b71e2e470bdfp-3"],
                      ["0x1.f09c75f37a8fcp-4", "0x1.e68af36fa5795p-3"]),
    }
    phis = catalog_orlicz_functions()
    for name, (p, value, k_star, scale) in pinned.items():
        phi = phis[name]
        batch = generated_norm_batch(phi, p, space, rows[:len(value)])
        assert [v.hex() for v in batch.value.tolist()] == value, name
        assert [v.hex() for v in batch.k_star.tolist()] == k_star, name
        c = scale_to_modular_batch(phi, space, rows[:2], [0.5, 2.0])
        assert [v.hex() for v in c.tolist()] == scale, name


def test_modular_overflow_gives_infinite_first_order():
    # an atom whose Phi overflows: I = +inf, checked and unchecked, and the
    # lockstep sampler's first-order function is +inf under every norm
    for phi in (power(3), exp_minus(), flat_then_power(1, 2)):
        for n in (3, ARRAY_ATOMS):
            x = simple_function(unit_weights(n), [1e200, 0.5] + [0.0] * (n - 2))
            modular_at = modular_of(phi, x)
            i = modular_at.with_conjugate(1.0)[0]
            assert i == modular_at.kernel(1.0)[0] == math.inf, phi.label
            w, ax = modular_at.finite_atoms()
            for p in catalog_planar_norms().values():
                # the engine's error context, which the sampler leaves to its
                # callers: the terms overflow and J/I is inf/inf
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    _, _, f = _batch_sampler(phi, p, w)(np.ones(1), ax[None, :])
                assert f[0] == math.inf, (phi.label, p.label)
    # the scalar loop's first sample overflows (I = 3e308 at k = 1): F = +inf
    # there steps k down, and the search still lands on the minimiser
    x = simple_function(measure_space([1e308] * 3), [1.0, -1.0, 1.0])
    assert modular_of(power(3), x).kernel(1.0)[0] == math.inf
    for p in catalog_planar_norms().values():
        want = oracle_norm(power(3), p, x.space.weights, x.values)
        assert generated_norm(power(3), p, x).value == pytest.approx(want, rel=1e-11), p.label


FLAT_GENERATORS = (flat_then_power(1, 2), flat_then_power(0.5, 1), flat_then_power(2, 3.5),
                   piecewise_linear([(0, 0), (0.5, 0), (1, 0.25), (2, 2)]))


@given(st.sampled_from(FLAT_GENERATORS), st.sampled_from((6, ARRAY_ATOMS)),
       st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80)
def test_unchecked_kernel_is_the_checked_pass_up_to_the_jump(phi, n, seed):
    # the engine samples the unchecked kernel at k <= k_jump, the end of the
    # span on infinite atoms: the largest float with Phi(k_jump m_inf) = 0.
    # with_conjugate's two guards never fire there, so the two agree bit for
    # bit, and one float past k_jump the checked pass is (inf, inf)
    rng = np.random.default_rng(seed)
    weights = np.where(rng.uniform(size=n) < 0.3, math.inf, 10.0 ** rng.uniform(-2, 2, n))
    weights[0] = math.inf
    values = rng.uniform(-3.0, 3.0, n) * (rng.uniform(size=n) < 0.8)
    values[0] = 10.0 ** rng.uniform(-3, 3)
    modular_at = modular_of(phi, simple_function(measure_space(weights), values))
    m_inf = modular_at.top_inf
    k_jump = _jump(phi, m_inf)
    assert phi.evaluate(k_jump * m_inf) == 0.0
    assert phi.evaluate(math.nextafter(k_jump, math.inf) * m_inf) > 0.0
    for k in (*(k_jump * 10.0 ** -rng.uniform(0, 12, 30)), k_jump):
        want = modular_at.with_conjugate(float(k))
        assert [v.hex() for v in modular_at.kernel(float(k))] == [v.hex() for v in want], k
    assert modular_at.with_conjugate(math.nextafter(k_jump, math.inf)) == (math.inf, math.inf)


def test_modular_rejects_non_finite_arguments():
    x = simple_function(unit_weights(2), [1e10, 1.0])
    with pytest.raises(DomainError):
        modular(power(2), x, scale=1e300)
    with pytest.raises(DomainError):
        modular(power(2), x, scale=math.nan)
    assert modular(power(2), simple_function(unit_weights(2), [0, 0]), scale=math.inf) == 0.0


def test_modular_weights_scale_contributions():
    sp = measure_space([0.5, 2.0])
    x = simple_function(sp, [2.0, 1.0])
    assert modular(power(2), x) == pytest.approx(0.5 * 4 + 2.0 * 1)


def test_modular_is_even_and_vanishes_at_zero():
    sp = unit_weights(3)
    x = simple_function(sp, [1.0, -2.0, 0.5])
    assert modular(power(2), x) == modular(power(2), x.scaled(-1.0))
    assert modular(power(2), simple_function(sp, [0, 0, 0])) == 0.0


@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.floats(0, 1))
@settings(max_examples=80)
def test_modular_convexity(xv, yv, t):
    sp = unit_weights(3)
    phi = power(2)
    x, y = simple_function(sp, xv), simple_function(sp, yv)
    mix = simple_function(sp, [t * a + (1 - t) * b for a, b in zip(xv, yv)])
    lhs = modular(phi, mix)
    rhs = t * modular(phi, x) + (1 - t) * modular(phi, y)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@given(st.lists(st.floats(0, 3), min_size=3, max_size=3), st.lists(st.floats(0, 1), min_size=3, max_size=3))
@settings(max_examples=80)
def test_modular_monotone_and_superadditive_on_differences(yv, frac):
    sp = unit_weights(3)
    phi = power(2)
    xv = [f * v for f, v in zip(frac, yv)]
    x, y = simple_function(sp, xv), simple_function(sp, yv)
    mx, my = modular(phi, x), modular(phi, y)
    assert mx <= my + 1e-12
    diff = modular(phi, simple_function(sp, [b - a for a, b in zip(xv, yv)]))
    assert diff <= my - mx + 1e-9


def test_cross_space_plus_contract_error():
    sp = unit_weights(2)
    assert simple_function(sp, [1, 0]).plus(simple_function(sp, [0, 1])).values == (1.0, 1.0)
    with pytest.raises(ContractError):
        simple_function(sp, [1, 0]).plus(simple_function(unit_weights(3), [0, 1, 0]))


def test_dominated_pair_sample_postconditions():
    sp = measure_space([1.0, 0.5, math.inf])
    rng = np.random.default_rng(0)
    x, y = dominated_pairs(sp, rng, 50)
    assert x.shape == y.shape == (50, 3)
    assert np.all((0.0 <= x) & (x <= y))
    assert not y[:, 2].any()  # infinite atom left empty
    with pytest.raises(DomainError):
        dominated_pairs(measure_space([math.inf]), rng, 1)


@pytest.mark.parametrize("weights", [[1.0] * 6, [1.0, math.inf, 0.5, math.inf]])
def test_dominated_pairs_are_the_pairs_drawn_one_at_a_time(weights):
    """The block draw reproduces pairs drawn one at a time (y on the finite
    atoms, then x's fractions of y on every atom) bit for bit, and leaves
    the rng where they leave it."""
    sp = measure_space(weights)
    fi = list(sp.finite_indices)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    x, y = dominated_pairs(sp, ours, 25)
    for xr, yr in zip(x, y):
        y_one = np.zeros(sp.n_atoms)
        y_one[fi] = theirs.uniform(0.0, 1.0, len(fi))
        x_one = theirs.uniform(0.0, 1.0, sp.n_atoms) * y_one
        assert np.array_equal(xr, x_one) and np.array_equal(yr, y_one)
    assert ours.random() == theirs.random()


def test_descriptor_roundtrip():
    sp = space_from_descriptor({"atoms": [{"w": 1}, {"w": 0.25}, {"w": "inf"}]})
    assert sp.weights == (1.0, 0.25, math.inf)
    assert sp.descriptor() == {"atoms": [{"w": 1.0}, {"w": 0.25}, {"w": "inf"}]}


def test_modular_on_grid_matches_scalar():
    sp = measure_space([1.0, 0.5, math.inf])
    x = simple_function(sp, [0.8, 1.4, 0.9])
    phi = flat_then_power(1, 2)
    ks = np.array([0.3, 0.9, 1.0, 1.2, 3.0])
    grid = modular_on_grid(phi, x, ks)
    for k, g in zip(ks, grid):
        m = modular(phi, x, scale=float(k))
        if math.isinf(m):
            assert math.isinf(g)
        else:
            assert g == pytest.approx(m, rel=1e-12, abs=1e-300)
