import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pathwise_ito.paths import BVPath, GridError, PartitionSequence, SampledPath
from pathwise_ito.qv import qv_measures
from pathwise_ito.stieltjes import (
    StieltjesMeasure,
    cumulative_stieltjes,
    measures_with_clock,
    stieltjes_associativity_check,
    stieltjes_integral,
    total_variation,
)


def _grid(n, T=1.0):
    return np.linspace(0.0, T, n)


def _brute_partial_integrals(f, times, increments):
    """Independent left-endpoint sums, one python loop per upper limit."""
    out = [0.0]
    acc = 0.0
    for j in range(len(increments)):
        acc += f[j] * increments[j]
        out.append(acc)
    return np.asarray(out)


def test_clock_measure_recovers_the_grid():
    times = _grid(11, T=2.0)
    mu = StieltjesMeasure(times, np.diff(times))
    assert np.allclose(mu.cumulative(), times, rtol=0, atol=1e-14)
    assert math.isclose(total_variation(mu), 2.0, rel_tol=1e-15)


def test_left_endpoint_sums_match_brute_force():
    rng = np.random.default_rng(7)
    times = _grid(33)
    a = np.cumsum(np.abs(rng.standard_normal(33))) / 10.0
    a -= a[0]
    mu = StieltjesMeasure(times, np.diff(a))
    f = rng.standard_normal(33)
    got = cumulative_stieltjes(f, mu)
    want = _brute_partial_integrals(f, times, np.diff(a))
    assert np.allclose(got, want, rtol=0, atol=1e-13)
    assert stieltjes_integral(f, mu) == got[-1]
    assert stieltjes_integral(f, mu, times[7]) == got[7]


def test_upper_limit_must_be_a_grid_point():
    times = _grid(9)
    mu = StieltjesMeasure(times, np.diff(times))
    f = np.ones(9)
    assert math.isclose(stieltjes_integral(f, mu, 0.375), 0.375, rel_tol=1e-15)
    with pytest.raises(GridError):
        stieltjes_integral(f, mu, 0.3)
    with pytest.raises(GridError):
        stieltjes_integral(np.ones(8), mu)


def test_measure_needs_one_increment_per_cell():
    with pytest.raises(GridError):
        StieltjesMeasure(_grid(5), np.zeros(5))
    with pytest.raises(GridError):
        StieltjesMeasure(_grid(5), np.zeros((4, 1)))


def test_total_variation_of_components():
    times = _grid(5)
    a = BVPath(times, np.column_stack([times**2, np.array([0.0, 1.0, 0.0, 1.0, 0.0])]))
    assert math.isclose(total_variation(a, 0), 1.0, rel_tol=1e-15)
    assert math.isclose(total_variation(a, 1), 4.0, rel_tol=1e-15)
    row = measures_with_clock(a).increments[2]  # rows: dt, dA_1, dA_2
    assert math.isclose(total_variation(StieltjesMeasure(times, row)), 4.0, rel_tol=1e-15)


def test_measures_with_clock_layout():
    times = _grid(6)
    a = BVPath(times, np.column_stack([times, 2.0 * times]))
    mu = measures_with_clock(a)
    assert mu.increments.shape == (3, 5)
    cum = mu.cumulative()
    assert np.allclose(cum[0], times, atol=1e-15)
    assert np.allclose(cum[2], 2.0 * times, atol=1e-15)
    assert measures_with_clock(BVPath.empty(times)).increments.shape == (1, 5)


def _same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def test_a_vector_measure_adds_its_rows_in_order_onto_plus_zero():
    rng = np.random.default_rng(11)
    times = _grid(17)
    inc = rng.standard_normal((3, 16))
    f = rng.standard_normal((17, 3))
    f[:5] = -1.0
    inc[:, :4] = 0.0  # -0.0 terms: each row's running sum starts -0.0
    want = np.zeros(17)
    for k in range(3):
        want += _brute_partial_integrals(f[:, k], times, inc[k])
    assert _same_bits(cumulative_stieltjes(f, StieltjesMeasure(times, inc)), want)
    # a scalar measure is the one-row case, so its -0.0 partial sums read +0.0
    got = cumulative_stieltjes(f[:, 0], StieltjesMeasure(times, inc[0]))
    assert not np.signbit(got[:5]).any()
    assert _same_bits(got, cumulative_stieltjes(f[:, :1], StieltjesMeasure(times, inc[:1])))
    with pytest.raises(GridError):
        cumulative_stieltjes(f[:, 0], StieltjesMeasure(times, inc))
    with pytest.raises(GridError):
        cumulative_stieltjes(f[:, :2], StieltjesMeasure(times, inc))


def test_each_term_integrates_against_one_measure(monkeypatch):
    made = []
    post_init = StieltjesMeasure.__post_init__

    def counting(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(StieltjesMeasure, "__post_init__", counting)
    n, d = 65, 16
    rng = np.random.default_rng(2)
    x = SampledPath(_grid(n), np.cumsum(rng.standard_normal((n, d)), axis=0))
    mu = qv_measures(x, PartitionSequence(x.times, 6), 4)
    assert len(made) == 1 and mu.increments.shape == (d * d, n - 1)
    made.clear()
    mu = measures_with_clock(BVPath(x.times, x.values[:, :2]))
    assert len(made) == 1 and mu.increments.shape == (3, n - 1)


def test_associativity_exact_on_dyadic_data():
    # dyadic grid steps and few-bit sample values keep every product exact,
    # so the two groupings agree bit for bit
    n = 2**4 + 1
    times = _grid(n)
    mu = StieltjesMeasure(times, np.diff(times))
    f = np.where(np.arange(n) % 2 == 0, 0.5, -1.25)
    g = np.where(np.arange(n) % 3 == 0, 0.25, 1.5)
    res = stieltjes_associativity_check(f, g, mu)
    assert res.ok
    assert res.max_abs == 0.0
    assert np.array_equal(res.b_values, cumulative_stieltjes(g, mu))


def test_associativity_residual_is_rounding_noise():
    rng = np.random.default_rng(21)
    n = 65
    times = _grid(n)
    a = np.concatenate([[0.0], np.cumsum(np.abs(rng.standard_normal(n - 1)))]) / n
    mu = StieltjesMeasure(times, np.diff(a))
    res = stieltjes_associativity_check(
        rng.standard_normal(n), rng.standard_normal(n), mu
    )
    assert res.max_abs < 1e-12
    assert 0.0 <= res.at_time <= 1.0


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(min_value=-4.0, max_value=4.0),
)
def test_integral_is_linear_in_the_integrand(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    n = 17
    mu = StieltjesMeasure(_grid(n), np.diff(np.cumsum(rng.uniform(0, 1, n)) - 1.0))
    f = rng.standard_normal(n)
    g = rng.standard_normal(n)
    lhs = stieltjes_integral(alpha * f + beta * g, mu)
    rhs = alpha * stieltjes_integral(f, mu) + beta * stieltjes_integral(g, mu)
    assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-9)


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_constant_integrand_reproduces_the_integrator(seed):
    rng = np.random.default_rng(seed)
    n = 12
    samples = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n - 1))])
    mu = StieltjesMeasure(_grid(n), np.diff(samples))
    got = cumulative_stieltjes(np.ones(n), mu)
    assert np.allclose(got, samples - samples[0], rtol=0, atol=1e-12)
