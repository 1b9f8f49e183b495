import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orlnorm import (ContractError, DomainError, SimpleFunction, dominated_pair_sample,
                     flat_then_power, function_from_descriptor, measure_space, modular,
                     modular_on_grid, order_ops, power, simple_function,
                     space_from_descriptor, unit_weights)


def test_space_validation():
    with pytest.raises(DomainError):
        measure_space([])
    with pytest.raises(DomainError):
        measure_space([0.0])
    with pytest.raises(DomainError):
        measure_space([1.0, -2.0])
    with pytest.raises(DomainError):
        measure_space([1.0, 1.0], ids=["a", "a"])
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
    assert not x.is_zero


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
    diff = modular(phi, y.minus_dominated(x))
    assert diff <= my - mx + 1e-9


def test_order_ops():
    sp = unit_weights(2)
    x = simple_function(sp, [1, 2])
    y = simple_function(sp, [2, 2])
    ops = order_ops(x, y)
    assert ops.leq
    assert ops.diff_if_dominated.values == (1.0, 0.0)
    a = simple_function(sp, [1, 0])
    b = simple_function(sp, [0, 1])
    assert order_ops(a, b).sup.values == (1.0, 1.0)
    assert not order_ops(simple_function(sp, [2, 0]), simple_function(sp, [1, 3])).leq


def test_dominated_difference_contract_error():
    sp = unit_weights(2)
    with pytest.raises(ContractError):
        simple_function(sp, [1, 0]).minus_dominated(simple_function(sp, [0, 1]))
    with pytest.raises(ContractError):
        sp2 = unit_weights(3)
        simple_function(sp, [1, 0]).leq(simple_function(sp2, [0, 1, 0]))


def test_dominated_pair_sample_postconditions():
    sp = measure_space([1.0, 0.5, math.inf])
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = dominated_pair_sample(sp, rng)
        assert all(0.0 <= a <= b for a, b in zip(x.values, y.values))
        assert y.values[2] == 0.0  # infinite atom left empty
    # degenerate pairs are admissible
    zero = simple_function(sp, [0, 0, 0])
    assert order_ops(zero, y).leq


def test_descriptor_roundtrip():
    sp = space_from_descriptor({"atoms": [{"w": 1}, {"w": 0.25}, {"w": "inf"}]})
    assert sp.weights == (1.0, 0.25, math.inf)
    assert sp.descriptor() == {"atoms": [{"w": 1.0}, {"w": 0.25}, {"w": "inf"}]}
    x = function_from_descriptor(sp, {"values": [1, 2, 0]})
    assert x.values == (1.0, 2.0, 0.0)


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
