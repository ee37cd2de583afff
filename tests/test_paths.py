import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.functionals import Functional
from pathwise_ito.ito import IntegralResult
from pathwise_ito.paths import (
    BVPath,
    Box,
    DomainError,
    GridError,
    LINEAR,
    PartitionSequence,
    PathFormatError,
    STEP,
    SampledPath,
    _require_finite,
    concat_components,
    default_output_dir,
    load_bv_path,
    load_sampled_path,
    path_to_csv_text,
    positive_orthant,
    pre_step,
    stepped_approx,
    stop,
    sup_distance,
    write_path_csv,
)
from pathwise_ito.qv import QVMatrix
from pathwise_ito.stieltjes import StieltjesMeasure, stieltjes_integral


def _grid(n, T=1.0):
    return np.linspace(0.0, T, n)


def _rand_path(n=33, d=2, seed=0, T=1.0):
    rng = np.random.default_rng(seed)
    return SampledPath(_grid(n, T), rng.standard_normal((n, d)))


# ---------------------------------------------------------------------------
# Construction and validation


def test_grid_must_start_at_zero_and_increase():
    with pytest.raises(GridError):
        SampledPath(np.array([0.5, 1.0]), np.zeros(2))
    with pytest.raises(GridError):
        SampledPath(np.array([0.0, 0.5, 0.5]), np.zeros(3))
    with pytest.raises(GridError):
        SampledPath(np.array([0.0]), np.zeros(1))
    with pytest.raises(GridError):
        SampledPath(_grid(4), np.zeros(5))


def test_values_promoted_to_columns_and_frozen():
    p = SampledPath(_grid(4), np.arange(4.0))
    assert p.values.shape == (4, 1)
    assert p.d == 1 and p.n_points == 4 and p.horizon == 1.0
    with pytest.raises(ValueError):
        p.values[0, 0] = 7.0
    with pytest.raises(ValueError):
        SampledPath(_grid(3), np.array([0.0, np.nan, 1.0]))
    with pytest.raises(ValueError):
        SampledPath(_grid(3), np.zeros(3), interpolation="cubic")


def test_linear_value_matches_numpy_interp():
    p = _rand_path(n=17, d=2, seed=3)
    for t in [0.0, 0.03, 0.5, 0.6249, 1.0]:
        got = p.value(t)
        for i in range(p.d):
            want = np.interp(t, p.times, p.values[:, i])
            assert math.isclose(got[i], want, rel_tol=0, abs_tol=1e-14)


def test_step_value_held_left():
    p = SampledPath(_grid(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0]), STEP)
    assert p.value(0.0)[0] == 0.0
    assert p.value(0.3)[0] == 1.0
    assert p.value(0.25)[0] == 1.0
    assert p.value(1.0)[0] == 4.0
    with pytest.raises(GridError):
        p.value(1.5)
    with pytest.raises(GridError):
        p.value(-0.5)


def test_left_limit_of_step_path():
    p = SampledPath(_grid(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0]), STEP)
    assert float(p.left_limit(0.25)[0]) == 0.0
    assert float(p.left_limit(0.3)[0]) == 1.0
    assert float(p.left_limit(1.0)[0]) == 3.0
    with pytest.raises(GridError):
        p.left_limit(0.0)
    q = SampledPath(_grid(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0]), LINEAR)
    assert float(q.left_limit(0.25)[0]) == 1.0


def test_grid_index_lookup():
    p = _rand_path(n=9)
    assert p.grid_index(0.0) == 0
    assert p.grid_index(0.375) == 3
    assert p.grid_index(1.0) == 8
    with pytest.raises(GridError):
        p.grid_index(0.3)


@st.composite
def _grid_and_time(draw):
    """A strictly increasing grid from 0 and a time on it, off it, or in the
    +-1e-12 * max(1, T) band around 0, T or an interior grid time."""
    gaps = draw(st.lists(st.floats(1e-13, 10.0), min_size=1, max_size=12))
    times = np.concatenate([[0.0], np.cumsum(gaps)])
    times = times[np.concatenate([[True], np.diff(times) > 0.0])]
    if times.shape[0] < 2:
        times = np.array([0.0, 1.0])
    tol = 1e-12 * max(1.0, float(times[-1]))
    kind = draw(st.sampled_from(["on", "off", "band"]))
    k = draw(st.sampled_from([0, times.shape[0] - 1, times.shape[0] // 2]))
    if kind == "on":
        t = float(times[draw(st.integers(0, times.shape[0] - 1))])
    elif kind == "off":
        T = float(times[-1])
        t = draw(st.floats(-T, 2.0 * T, allow_nan=False))
    else:
        t = float(times[k]) + draw(st.floats(-2.0, 2.0)) * tol
    return times, t, tol


@settings(max_examples=300)
@given(_grid_and_time())
def test_grid_lookups_agree_with_brute_force(case):
    times, t, tol = case
    hits = np.flatnonzero(np.abs(times - t) <= tol)
    n = times.shape[0]
    path = SampledPath(times, np.zeros(n))
    mu = StieltjesMeasure(times, np.ones(n - 1))  # cumulative integral of 1 is k
    res = IntegralResult(
        times=path.times,
        levels=(1,),
        values=np.arange(n, dtype=np.float64)[None, :],
        interpolated=np.zeros((1, n), dtype=bool),
        cauchy_diffs=np.zeros(0),
        converged=None,
        tol=1e-3,
        plain_riemann=False,
    )
    lookups = (
        lambda: path.grid_index(t),
        lambda: stieltjes_integral(np.ones(n), mu, t),
        lambda: res.at(t),
    )
    for lookup in lookups:
        if hits.shape[0]:
            assert lookup() == hits[0]
        else:
            with pytest.raises(GridError):
                lookup()
    part = PartitionSequence(times, num_levels=2)
    for level in (1, 2):
        pts = part.points(level)
        assert part.contains(level, t) == bool(np.any(np.abs(pts - t) <= tol))


def _brute_position(times, t, tol):
    """(i, on_grid) by the grid rule, or None for a time outside [0, T]."""
    hits = np.flatnonzero(np.abs(times - t) <= tol)
    if hits.shape[0]:
        return int(hits[0]), True
    if t < 0.0 or t > times[-1]:
        return None
    return int(np.flatnonzero(times < t)[-1]), False


@settings(max_examples=300)
@given(_grid_and_time())
def test_every_time_lookup_follows_the_grid_rule(case):
    # Row k of each path holds k, so a returned row names its grid index.
    times, t, tol = case
    n = times.shape[0]
    rows = np.arange(n, dtype=np.float64)
    linear = SampledPath(times, rows)
    step = SampledPath(times, rows, STEP)
    qvm = QVMatrix(times=times, entries=rows[None, :], level=1)
    part = PartitionSequence(times, num_levels=2)
    lookups = (
        linear.value, linear.left_limit, step.value, step.left_limit,
        lambda t: stop(linear, t), qvm.value, linear.grid_index,
    )
    expect = _brute_position(times, t, tol)
    if expect is None:
        for lookup in lookups:
            with pytest.raises(GridError):
                lookup(t)
        for level in (1, 2):
            assert not part.contains(level, t)
        return
    i, on_grid = expect
    if on_grid:
        at_t = float(i)
    else:
        at_t = float(i) + (t - times[i]) / (times[i + 1] - times[i]) * 1.0
    assert float(linear.value(t)[0]) == at_t
    assert float(step.value(t)[0]) == float(i)
    assert float(qvm.value(t)[0, 0]) == float(i)
    stopped = stop(linear, t)
    assert np.array_equal(stopped.values[: i + 1, 0], rows[: i + 1])
    assert np.all(stopped.values[i + 1 :, 0] == at_t)
    if on_grid and i == 0:
        for lookup in (linear.left_limit, step.left_limit):
            with pytest.raises(GridError):
                lookup(t)
    else:
        assert float(linear.left_limit(t)[0]) == at_t
        assert float(step.left_limit(t)[0]) == float(i - 1 if on_grid else i)
    if on_grid:
        assert linear.grid_index(t) == i
    else:
        with pytest.raises(GridError):
            linear.grid_index(t)
    for level in (1, 2):
        pts = part.points(level)
        assert part.contains(level, t) == bool(np.any(np.abs(pts - t) <= tol))


def test_box_domain_is_strictly_open():
    dom = Box(lower=(0.0,), upper=(1.0,))
    with pytest.raises(DomainError):
        SampledPath(_grid(3), np.array([0.5, 0.0, 0.5]), domain=dom)
    p = SampledPath(_grid(3), np.array([0.5, 0.25, 0.5]), domain=dom)
    with pytest.raises(DomainError):
        SampledPath(p.times, np.array([0.5, 1.0, 0.5]), domain=dom)
    orth = positive_orthant(2)
    with pytest.raises(DomainError):
        SampledPath(_grid(3), np.array([[1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]), domain=orth)


def test_require_finite_names_every_bad_term_at_the_first_bad_grid_time():
    times = _grid(5)
    paths = np.zeros((3, 5))
    paths[2, 1:] = paths[0, 3] = np.inf
    paths[1, 2] = np.nan
    _require_finite(["a", "b", "c"], np.zeros((3, 5)), times, "at level 2")
    message = r"^non-finite c at level 2, grid time 0\.25$"
    with pytest.raises(DomainError, match=message):
        _require_finite(["a", "b", "c"], paths, times, "at level 2")
    with pytest.raises(DomainError, match=r"^non-finite a, c at level 1, grid time 0\.75$"):
        _require_finite(["a", "b", "c"], paths[:, 3:], times[3:], "at level 1")
    message = r"^non-finite level_diff between levels 3 and 4, grid time 0\.5$"
    with pytest.raises(DomainError, match=message):
        _require_finite("level_diff", paths[1], times, "between levels 3 and 4")


def test_a_domain_must_be_a_box():
    dom = lambda v: v[..., 0] < 2.0
    with pytest.raises(TypeError):
        SampledPath(_grid(3), np.array([0.0, 1.0, 1.5]), domain=dom)
    with pytest.raises(TypeError):
        Functional(lambda t, x, a: 0.0, d=1, x_domain=dom)


# ---------------------------------------------------------------------------
# Stopping and partitions


def test_stop_freezes_the_tail():
    p = SampledPath(_grid(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    s = stop(p, 0.5)
    assert np.array_equal(s.values[:3, 0], [0.0, 1.0, 2.0])
    assert np.array_equal(s.values[3:, 0], [2.0, 2.0])
    mid = stop(p, 0.375)  # between grid points: freeze at interpolated value
    assert np.allclose(mid.values[2:, 0], 1.5)
    assert s.interpolation == p.interpolation
    with pytest.raises(GridError):
        stop(p, 1.5)
    with pytest.raises(GridError):
        stop(p, -0.1)


def test_stop_is_idempotent_at_grid_times():
    p = _rand_path(n=33, d=2, seed=5)
    for t in [0.0, 0.25, 0.5 + 1.0 / 32.0, 1.0]:
        once = stop(p, t)
        assert np.array_equal(stop(once, t).values, once.values)
    assert np.array_equal(stop(p, 1.0).values, p.values)
    # off the grid the kink falls inside a cell, so re-stopping moves the
    # frozen tail by at most the oscillation within that one cell
    once = stop(p, 0.4)
    twice = stop(once, 0.4)
    osc = float(np.max(np.linalg.norm(np.diff(p.values, axis=0), axis=1)))
    assert float(np.max(np.abs(twice.values - once.values))) <= osc


def test_partition_levels_are_nested():
    part = PartitionSequence(_grid(2**4 + 1), num_levels=4)
    for n in range(1, 4):
        coarse = set(part.indices(n).tolist())
        fine = set(part.indices(n + 1).tolist())
        assert coarse <= fine
        assert {0, 16} <= coarse
    assert part.stride(4) == 1
    assert np.array_equal(part.indices(4), np.arange(17))


def test_partition_handles_ragged_grids():
    # 10 points: strides 4 and 2 do not divide 9 evenly, last cell is short
    part = PartitionSequence(_grid(10), num_levels=3)
    assert np.array_equal(part.indices(1), [0, 4, 8, 9])
    assert np.array_equal(part.indices(2), [0, 2, 4, 6, 8, 9])
    # stride beyond the grid degrades to {0, T}
    tiny = PartitionSequence(_grid(3), num_levels=8)
    assert np.array_equal(tiny.indices(1), [0, 2])


def test_partition_contains_and_level_range():
    part = PartitionSequence(_grid(2**3 + 1), num_levels=3)
    assert part.contains(1, 0.0) and part.contains(1, 0.5) and part.contains(1, 1.0)
    assert not part.contains(1, 0.25)
    assert part.contains(2, 0.25)
    with pytest.raises(ValueError):
        part.indices(0)
    with pytest.raises(ValueError):
        part.indices(4)


def test_stepped_approx_looks_ahead():
    p = SampledPath(_grid(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    part = PartitionSequence(p.times, num_levels=2)
    s = stepped_approx(p, part, level=1)  # cells [0,.5], [.5,1]
    assert s.interpolation == STEP
    assert np.array_equal(s.values[:, 0], [2.0, 2.0, 4.0, 4.0, 4.0])
    assert s.value(0.25)[0] == 2.0
    assert s.value(1.0)[0] == 4.0
    finest = stepped_approx(p, part, level=2)
    assert np.array_equal(finest.values[:, 0], [1.0, 2.0, 3.0, 4.0, 4.0])
    with pytest.raises(ValueError):
        stepped_approx(s, part, level=1)


def test_pre_step_freezes_at_the_cell_start():
    p = SampledPath(_grid(5), np.array([0.0, 1.0, 2.0, 3.0, 4.0]))
    part = PartitionSequence(p.times, num_levels=2)
    q = pre_step(p, part, level=1, s=0.5)
    assert np.array_equal(q.values[:, 0], [2.0, 2.0, 2.0, 2.0, 2.0])
    q0 = pre_step(p, part, level=1, s=0.0)
    assert np.array_equal(q0.values[:, 0], np.zeros(5))
    qT = pre_step(p, part, level=1, s=1.0)
    assert np.array_equal(qT.values[:, 0], [2.0, 2.0, 4.0, 4.0, 4.0])
    with pytest.raises(GridError):
        pre_step(p, part, level=1, s=0.25)


def test_sup_distance_mixed_tags_sees_left_limits():
    times = _grid(3)
    p = SampledPath(times, np.array([5.0, 0.0, 0.0]), STEP)
    q = SampledPath(times, np.array([5.0, 0.0, 0.0]), LINEAR)
    # same grid samples, but the step path still sits at 5 just before t_1
    assert sup_distance(p, q) == 5.0
    assert sup_distance(q, q) == 0.0
    r = SampledPath(times, np.array([5.0, 0.0, 1.0]), LINEAR)
    assert sup_distance(q, r) == 1.0
    with pytest.raises(GridError):
        sup_distance(q, SampledPath(_grid(4), np.zeros(4)))


def test_stepped_approx_converges_uniformly_for_continuous_paths():
    n = 2**7 + 1
    times = _grid(n)
    p = SampledPath(times, np.sin(2.0 * np.pi * times) + times)
    part = PartitionSequence(times, num_levels=7)
    dists = [sup_distance(stepped_approx(p, part, lev), p) for lev in (3, 5, 7)]
    assert dists[0] > dists[1] > dists[2]
    # at the finest level the step path only disagrees inside base cells
    assert dists[2] <= float(np.max(np.abs(np.diff(p.values[:, 0])))) + 1e-15


# ---------------------------------------------------------------------------
# BV components


def test_bv_path_components():
    a = BVPath(_grid(4), np.column_stack([np.arange(4.0), np.ones(4)]))
    assert a.m == 2
    assert a.slice_components(1, 2).m == 1
    with pytest.raises(ValueError):
        BVPath(_grid(4), np.zeros(4), interpolation=STEP)


def test_bv_concat_and_empty():
    times = _grid(4)
    a = BVPath(times, np.arange(4.0))
    b = BVPath(times, np.column_stack([np.ones(4), -np.arange(4.0)]))
    both = concat_components(a, b)
    assert both.m == 3
    assert np.array_equal(both.values[:, 0], a.values[:, 0])
    assert np.array_equal(both.values[:, 1:], b.values)
    empty = BVPath.empty(times)
    assert empty.m == 0
    assert concat_components(empty, b) is b
    assert concat_components(a, None) is a
    assert concat_components(None, b) is b
    assert concat_components(None, None) is None
    with pytest.raises(GridError):
        concat_components(a, BVPath(_grid(5), np.zeros(5)))


# ---------------------------------------------------------------------------
# CSV round trips


def test_csv_round_trip_is_bit_exact():
    p = SampledPath(
        _grid(5),
        np.array(
            [
                [1e-300, np.pi],
                [1.0 / 3.0, -2.5e17],
                [5e-324, 0.0],
                [-1.2345678901234567, 7.0],
                [1e16 + 1.0, 2.0**-52],
            ]
        ),
    )
    text = path_to_csv_text(p)
    q = load_sampled_path(io.StringIO(text))
    assert np.array_equal(q.times, p.times)
    assert np.array_equal(q.values, p.values)
    assert text.splitlines()[0] == "t,x1,x2"


def test_csv_header_prefix_and_bv_load():
    a = BVPath(_grid(3), np.column_stack([np.arange(3.0), np.ones(3)]))
    text = path_to_csv_text(a, prefix="a")
    assert text.splitlines()[0] == "t,a1,a2"
    b = load_bv_path(io.StringIO(text))
    assert b.m == 2 and np.array_equal(b.values, a.values)


def test_csv_rejects_malformed_input():
    with pytest.raises(PathFormatError):
        load_sampled_path(io.StringIO(""))
    with pytest.raises(PathFormatError):
        load_sampled_path(io.StringIO("time,x1\n0,1\n1,2\n"))
    with pytest.raises(PathFormatError):
        load_sampled_path(io.StringIO("t,x1\n0,1\n"))
    with pytest.raises(PathFormatError):
        load_sampled_path(io.StringIO("t,x1\n0,1\n0.5,2,3\n"))
    with pytest.raises(PathFormatError):
        load_sampled_path(io.StringIO("t,x1\n0,1\nhalf,2\n"))
    with pytest.raises(PathFormatError):
        load_sampled_path(io.StringIO("t,x1\n0.5,1\n1,2\n"))


def test_csv_write_to_file(tmp_path):
    p = _rand_path(n=6, d=1, seed=11)
    dest = tmp_path / "path.csv"
    write_path_csv(p, dest)
    q = load_sampled_path(dest)
    assert np.array_equal(q.values, p.values)


def test_default_output_dir_env(monkeypatch):
    monkeypatch.delenv("PATHWISE_ITO_OUT_DIR", raising=False)
    assert default_output_dir() == "."
    monkeypatch.setenv("PATHWISE_ITO_OUT_DIR", "/tmp/somewhere")
    assert default_output_dir() == "/tmp/somewhere"


# ---------------------------------------------------------------------------
# Property tests


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_seventeen_digits_round_trip(x):
    assert float(f"{x:.17g}") == x


@given(
    st.integers(min_value=2, max_value=40),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_stop_never_changes_the_past(n, frac, seed):
    rng = np.random.default_rng(seed)
    p = SampledPath(_grid(n), rng.standard_normal(n))
    t = frac * p.horizon
    s = stop(p, t)
    past = p.times <= t
    assert np.array_equal(s.values[past], p.values[past])
    assert np.all(s.values[~past] == p.value(t))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=2, max_value=70),
)
def test_partition_points_cover_endpoints(num_levels, n):
    part = PartitionSequence(_grid(n), num_levels=num_levels)
    for lev in range(1, num_levels + 1):
        idx = part.indices(lev)
        assert idx[0] == 0 and idx[-1] == n - 1
        assert np.all(np.diff(idx) > 0)
