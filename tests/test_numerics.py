import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regtails.errors import ContractError
from regtails import numerics
from regtails.numerics import TimeGrid, default_n_steps, inner_product, integrate, memo


def test_grid_nodes_and_step():
    g = TimeGrid(2.0, 8)
    assert g.h == pytest.approx(0.25)
    assert g.nodes[0] == 0.0
    assert g.nodes[-1] == 2.0
    assert np.all(np.diff(g.nodes) > 0)
    assert g.h * g.n_steps == pytest.approx(g.T, abs=1e-15)


def test_default_step_policy():
    assert default_n_steps(1.0) == 100
    assert default_n_steps(25.0) == 2500
    g = TimeGrid(3.7, default_n_steps(3.7))
    assert g.h <= 0.01 + 1e-15


@pytest.mark.parametrize("T,n", [(0.0, 5), (-1.0, 5), (1.0, 0), (1.0, -3)])
def test_grid_rejects_bad_inputs(T, n):
    with pytest.raises(ContractError):
        TimeGrid(T, n)


def test_integrate_affine_exact():
    g = TimeGrid(1.0, 10)
    assert integrate(g.nodes, g) == pytest.approx(0.5, abs=1e-15)


def test_integrate_constant_is_horizon():
    g = TimeGrid(7.5, 13)
    assert integrate(np.ones(g.n_nodes), g) == pytest.approx(7.5, abs=1e-12)


def test_integrate_sin_squared_full_period():
    g = TimeGrid(2 * math.pi, 1000)
    assert integrate(np.sin(g.nodes) ** 2, g) == pytest.approx(math.pi, abs=1e-6)


def test_integrate_contract_errors():
    g = TimeGrid(1.0, 10)
    with pytest.raises(ContractError):
        integrate(np.ones(5), g)
    bad = np.ones(g.n_nodes)
    bad[3] = np.nan
    with pytest.raises(ContractError):
        integrate(bad, g)


def test_inner_product_examples():
    g = TimeGrid(2.0, 50)
    ones = np.ones(g.n_nodes)
    assert inner_product(ones, ones, g) == pytest.approx(2.0, abs=1e-12)
    g1 = TimeGrid(1.0, 40)
    assert inner_product(g1.nodes, np.ones(g1.n_nodes), g1) == pytest.approx(0.5, abs=1e-14)
    g2 = TimeGrid(2 * math.pi, 1000)
    assert inner_product(np.sin(g2.nodes), np.cos(g2.nodes), g2) == pytest.approx(0.0, abs=1e-6)
    assert inner_product(np.sin(g2.nodes), np.sin(g2.nodes), g2) >= 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.integers(min_value=0, max_value=2 ** 32 - 1),
)
def test_integrate_linearity(n_steps, a, b, seed):
    g = TimeGrid(1.0, n_steps)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.n_nodes)
    h = rng.standard_normal(g.n_nodes)
    lhs = integrate(a * f + b * h, g)
    rhs = a * integrate(f, g) + b * integrate(h, g)
    assert lhs == pytest.approx(rhs, abs=1e-12 + 1e-12 * abs(rhs))


def test_integrate_nonnegative():
    g = TimeGrid(3.0, 17)
    rng = np.random.default_rng(0)
    vals = rng.random(g.n_nodes)
    assert integrate(vals, g) >= 0.0


def test_refinement_second_order():
    # error against a smooth closed form should shrink by ~4x per doubling
    exact = math.e - 1.0
    errors = []
    for n in (50, 100, 200, 400):
        g = TimeGrid(1.0, n)
        errors.append(abs(integrate(np.exp(g.nodes), g) - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_memo_evicts_the_least_recently_used_entry(monkeypatch):
    monkeypatch.setattr(numerics, "_memo", {})
    builds = []

    def build(i):
        builds.append(i)
        return np.full(1, float(i))

    for i in range(16):
        memo(("key", i), lambda i=i: build(i))
    kept = memo(("key", 0), lambda: build(0))  # a hit: key 0 is now the most recent
    memo(("key", 16), lambda: build(16))  # the store is full: key 1, read longest ago, leaves
    assert memo(("key", 0), lambda: build(0)) is kept
    assert builds == list(range(17))
    memo(("key", 1), lambda: build(1))
    assert builds[-1] == 1
    assert not kept.flags.writeable


def test_memo_freezes_each_array_of_a_tuple(monkeypatch):
    monkeypatch.setattr(numerics, "_memo", {})
    first, second = memo(("pair",), lambda: (np.zeros(2), np.ones(3)))
    assert not first.flags.writeable and not second.flags.writeable
    assert memo(("pair",), lambda: ())[1] is second  # a hit does not rebuild
