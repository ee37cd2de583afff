import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pathwise_ito.cli import cli_main
from pathwise_ito.paths import (
    DomainError,
    GridError,
    PartitionSequence,
    SampledPath,
    default_num_levels,
    load_sampled_path,
)
from pathwise_ito.qv import (
    _anchored_steps,
    _entry_rows,
    _pair_products,
    qv_converged,
    qv_matrix,
    qv_measures,
    qv_scalar,
)
from pathwise_ito.reduction import running_sum

# 300 points: no stride divides the 299 cells, so every level ends in a
# partial cell, and at 12 levels the coarsest strides pass the grid
PATH_N300 = Path(__file__).parent / "golden" / "path_n300_d4.csv"


def _grid(n, T=1.0):
    return np.linspace(0.0, T, n)


def _brute_qv_path(values, indices):
    """Independent clipped QV: loop over partition cells, then anchor."""
    out = np.empty_like(values)
    for u in range(values.shape[0]):
        k = int(np.searchsorted(indices, u, side="right")) - 1
        s = 0.0
        for a, b in zip(indices[:k], indices[1 : k + 1]):
            s += (values[b] - values[a]) ** 2
        out[u] = s + (values[u] - values[indices[k]]) ** 2
    return out


def _walk(n, seed, scale=None):
    rng = np.random.default_rng(seed)
    if scale is None:
        scale = math.sqrt(1.0 / (n - 1))
    z = rng.standard_normal(n - 1) * scale
    return np.concatenate([[0.0], np.cumsum(z)])


def test_qv_path_matches_brute_force_at_every_level():
    n = 2**5 + 1
    times = _grid(n)
    x = SampledPath(times, _walk(n, seed=0))
    part = PartitionSequence(times, num_levels=5)
    for lev in range(1, 6):
        got = qv_matrix(x, part, lev).entry_path(0, 0)
        want = _brute_qv_path(x.values[:, 0], part.indices(lev))
        assert np.allclose(got, want, rtol=0, atol=1e-14)
        assert got[0] == 0.0
        assert qv_scalar(x, part, lev) == got[-1]
        assert qv_scalar(x, part, lev, t=times[11]) == got[11]


def test_qv_on_ragged_grid():
    # 11 points: strides do not divide 10, the last partition cell is short
    n = 11
    times = _grid(n)
    x = SampledPath(times, _walk(n, seed=4))
    part = PartitionSequence(times, num_levels=3)
    for lev in (1, 2, 3):
        got = qv_matrix(x, part, lev).entry_path(0, 0)
        want = _brute_qv_path(x.values[:, 0], part.indices(lev))
        assert np.allclose(got, want, rtol=0, atol=1e-14)


def test_measure_increments_sum_back_to_the_path():
    n = 2**4 + 1
    times = _grid(n)
    rng = np.random.default_rng(3)
    x = SampledPath(times, rng.standard_normal((n, 2)))
    part = PartitionSequence(times, num_levels=4)
    for lev in (1, 2, 4):
        m = qv_matrix(x, part, lev)
        cum = running_sum(qv_measures(x, part, lev).increments)  # row i * d + j: [x_i, x_j]
        for i in range(2):
            for j in range(2):
                assert np.allclose(cum[i * 2 + j], m.entry_path(i, j), rtol=0, atol=5e-14)


def test_alternating_path_collapses_on_coarser_levels():
    # x(t_k) = (-1)^k eps: the finest level sums 2^n squared jumps of 2 eps,
    # while every coarser level strides over whole oscillations and sums to
    # exactly zero at its partition points, so the levels cannot settle
    n_cells = 2**5
    times = _grid(n_cells + 1)
    eps = 0.25
    x = SampledPath(times, eps * (-1.0) ** np.arange(n_cells + 1))
    part = PartitionSequence(times, num_levels=5)
    assert qv_scalar(x, part, 5) == n_cells * (2.0 * eps) ** 2
    for lev in (1, 2, 3, 4):
        assert qv_scalar(x, part, lev) == 0.0
    r = qv_converged(x, part, tol=1e-2)
    assert r.converged is False
    assert r.level_diffs[-1] >= n_cells * (2.0 * eps) ** 2 - 1e-12


def test_smooth_path_qv_vanishes_with_the_mesh():
    n = 2**10 + 1
    times = _grid(n)
    x = SampledPath(times, times**2)
    part = PartitionSequence(times, num_levels=10)
    qvs = [qv_scalar(x, part, lev) for lev in (6, 7, 8, 9, 10)]
    for coarse, fine in zip(qvs, qvs[1:]):
        assert math.isclose(fine / coarse, 0.5, rel_tol=0.05)
    # integral of (2t)^2 over [0,1] is 4/3, scaled by the finest mesh
    assert math.isclose(qvs[-1], (4.0 / 3.0) * 2.0**-10, rel_tol=0.01)


def test_polarization_for_equal_and_opposite_components():
    n = 2**6 + 1
    times = _grid(n)
    w = _walk(n, seed=42)
    x = SampledPath(times, np.column_stack([w, w, -w]))
    part = PartitionSequence(times, num_levels=6)
    for lev in (2, 4, 6):
        m = qv_matrix(x, part, lev)
        diag = m.entry_path(0, 0)
        # [w, -w] = -[w] bit for bit: [w + (-w)] vanishes identically and
        # the remaining halved sum only doubles and scales by powers of two
        assert np.array_equal(m.entry_path(0, 2), -diag)
        assert np.array_equal(m.entry_path(1, 2), -diag)
        # [w, w] = [w] picks up one rounding step from 4p - p - p
        scale = float(np.max(diag))
        assert np.allclose(m.entry_path(0, 1), diag, rtol=0, atol=8e-16 * scale)
        assert np.array_equal(m.matrices.transpose(0, 2, 1), m.matrices)


def test_polarization_matches_direct_cross_products_at_partition_points():
    n = 2**5 + 1
    times = _grid(n)
    rng = np.random.default_rng(11)
    x = SampledPath(times, rng.standard_normal((n, 2)))
    part = PartitionSequence(times, num_levels=5)
    for lev in (1, 3, 5):
        idx = part.indices(lev)
        dv = np.diff(x.values[idx], axis=0)
        cross = np.concatenate([[0.0], np.cumsum(dv[:, 0] * dv[:, 1])])
        off = qv_matrix(x, part, lev).entry_path(0, 1)
        assert np.allclose(off[idx], cross, rtol=0, atol=1e-12)


def test_diagonals_monotone_along_partition_points():
    n = 2**5 + 1
    times = _grid(n)
    x = SampledPath(times, _walk(n, seed=8, scale=1.0))
    part = PartitionSequence(times, num_levels=5)
    for lev in (1, 2, 3, 4, 5):
        path = qv_matrix(x, part, lev).entry_path(0, 0)
        idx = part.indices(lev)
        assert np.all(np.diff(path[idx]) >= 0.0)


def test_qv_upper_limit_must_be_on_the_grid():
    n = 9
    x = SampledPath(_grid(n), _walk(n, seed=1))
    part = PartitionSequence(x.times, num_levels=3)
    with pytest.raises(GridError):
        qv_scalar(x, part, 2, t=0.3)
    with pytest.raises(GridError):
        qv_scalar(SampledPath(_grid(n), np.zeros(n)), PartitionSequence(_grid(8), 2), 1)


@pytest.mark.parametrize("component", [-1, 2, 5])
def test_qv_scalar_component_must_be_a_column(component):
    n = 9
    x = SampledPath(_grid(n), np.stack([_walk(n, seed=3), _walk(n, seed=4)], axis=1))
    part = PartitionSequence(x.times, num_levels=3)
    with pytest.raises(ValueError, match=r"component must lie in \[0, 1\]"):
        qv_scalar(x, part, 2, component=component)
    assert qv_scalar(x, part, 2, component=1) == qv_matrix(x, part, 2).final()[1, 1]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_qv_scalar_raises_on_overflow_like_qv_matrix():
    # 1e200 squared overflows from grid time 0.5 on, at every level
    times = _grid(9)
    values = np.zeros((9, 2))
    values[4] = 1e200
    x = SampledPath(times, values)
    part = PartitionSequence(times, num_levels=3)
    with pytest.raises(DomainError, match=r"^non-finite qv_11, qv_12, qv_22 at level 3, grid time 0\.5$"):
        qv_matrix(x, part, 3)
    for component in (0, 1):
        entry = f"qv_{component + 1}{component + 1}"
        for level, t in ((3, None), (1, 0.25)):
            message = rf"^non-finite {entry} at level {level}, grid time 0\.5$"
            with pytest.raises(DomainError, match=message):
                qv_scalar(x, part, level, t=t, component=component)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 16])
def test_entries_are_stored_in_the_qv_tables_column_order(d, tmp_path, capsys):
    k = d * (d + 1) // 2
    assert np.array_equal(_entry_rows(d)[np.triu_indices(d)], np.arange(k))
    path, table = tmp_path / "x.csv", tmp_path / "qv.csv"
    gen = ["gen", "--kind", "brownian", "--n", "64", "--d", str(d), "--seed", str(d)]
    assert cli_main(gen + ["-o", str(path)]) == 0
    assert cli_main(["qv", "-i", str(path), "-o", str(table)]) == 0
    capsys.readouterr()
    x = load_sampled_path(path)
    n = default_num_levels(x.n_points)
    stored = qv_converged(x, PartitionSequence(x.times, n), levels=(n - 1, n)).entries
    header = table.read_text().splitlines()[0].split(",")
    assert header[1:-1] == [f"qv_{i + 1}{j + 1}" for i in range(d) for j in range(i, d)]
    columns = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)[:, 1:-1]
    assert columns.T.tobytes() == stored.tobytes()


@st.composite
def _step_blocks(draw):
    d = draw(st.integers(min_value=1, max_value=16))
    n = draw(st.integers(min_value=1, max_value=40))
    values = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)
    return draw(hnp.arrays(np.float64, (d, n), elements=values))


@settings(max_examples=60, deadline=None)
@given(_step_blocks())
def test_pair_products_may_overwrite_their_input(a):
    d, n = a.shape
    apart = _pair_products(a, np.empty((d * (d + 1) // 2, n)))
    assert apart[_entry_rows(d)].tobytes() == (a[:, None] * a[None, :]).tobytes()
    out = np.empty_like(apart)
    out[:d] = a
    assert _pair_products(out[:d], out).tobytes() == apart.tobytes()


@pytest.mark.parametrize("num_levels", [None, 12])
def test_anchored_steps_match_searched_anchors(num_levels):
    x = load_sampled_path(PATH_N300)
    part = PartitionSequence(x.times, num_levels or default_num_levels(x.n_points))
    for level in range(1, part.num_levels + 1):
        points = [int(p) for p in part.indices(level)]
        v, w = _anchored_steps(x, part, level)
        assert v.shape == w.shape == (x.n_points - 1, x.d)
        for cell in range(x.n_points - 1):
            s = max(p for p in points if p <= cell)  # a cell ending at a point keeps its anchor
            assert v[cell].tobytes() == (x.values[cell + 1] - x.values[s]).tobytes()
            assert w[cell].tobytes() == (x.values[cell] - x.values[s]).tobytes()


@pytest.mark.parametrize("level", [3, 6, 8])
def test_anchored_steps_telescope_to_the_level_increment_exactly(level):
    # w of a base cell is the v of the cell before it, so over each level
    # cell the rank-two increments sum, in exact arithmetic, to delta delta^T
    # with delta the level increment as the library computes it
    x = load_sampled_path(PATH_N300)
    part = PartitionSequence(x.times, default_num_levels(x.n_points))
    v, w = _anchored_steps(x, part, level)
    points = part.indices(level)
    for s, end in zip(points[:-1], points[1:]):
        delta = x.values[end] - x.values[s]
        for i in range(x.d):
            for j in range(x.d):
                total = sum(
                    Fraction(v[c, i]) * Fraction(v[c, j]) - Fraction(w[c, i]) * Fraction(w[c, j])
                    for c in range(s, end)
                )
                assert total == Fraction(delta[i]) * Fraction(delta[j]), (s, i, j)


def test_anchored_steps_check_the_grid_and_the_level():
    x = load_sampled_path(PATH_N300)
    with pytest.raises(GridError):
        _anchored_steps(x, PartitionSequence(x.times**2, 4), 2)
    with pytest.raises(ValueError):
        _anchored_steps(x, PartitionSequence(x.times, 4), 5)


def test_convergence_diagnostics_on_a_seeded_walk():
    n = 2**10 + 1
    times = _grid(n)
    x = SampledPath(times, _walk(n, seed=42))
    part = PartitionSequence(times, num_levels=10)
    r = qv_converged(x, part, tol=0.2)
    assert r.converged is True
    assert r.levels == tuple(range(1, 11))
    assert r.level == 10
    assert len(r.level_diffs) == 9
    assert r.level_diffs[-1] < 0.2
    # frozen regression value for the level-10 sum of squared increments
    assert math.isclose(qv_scalar(x, part, 10), 0.9677775842249005, rel_tol=1e-12)


def test_convergence_needs_two_levels():
    n = 2**3 + 1
    x = SampledPath(_grid(n), _walk(n, seed=2))
    part = PartitionSequence(x.times, num_levels=3)
    with pytest.raises(ValueError):
        qv_converged(x, part, levels=(3,))
    r = qv_converged(x, part, levels=(2, 3))
    assert r.levels == (2, 3) and r.level_diffs.shape == (1,)
    assert np.array_equal(r.entries, qv_matrix(x, part, 3).entries)
    gap = r.level_diffs[-1]
    assert gap == np.max(r.last_gap) > 0.0
    for tol in (gap, np.nextafter(gap, np.inf)):
        assert qv_converged(x, part, tol=tol, levels=(2, 3)).converged == (gap < tol)


@pytest.mark.parametrize("levels", [(3, 3), (5, 5, 5), (10, 2)])
def test_convergence_rejects_levels_that_do_not_increase(levels):
    # a repeated level compares a level with itself, a gap of 0
    n = 2**10 + 1
    x = SampledPath(_grid(n), _walk(n, seed=42))
    part = PartitionSequence(x.times, num_levels=10)
    assert not qv_converged(x, part, tol=0.05).converged
    with pytest.raises(ValueError, match="strictly increasing"):
        qv_converged(x, part, tol=0.05, levels=levels)


def test_matrix_value_lookup():
    n = 2**3 + 1
    times = _grid(n)
    rng = np.random.default_rng(13)
    x = SampledPath(times, rng.standard_normal((n, 2)))
    part = PartitionSequence(times, num_levels=3)
    m = qv_matrix(x, part, 3)
    assert np.array_equal(m.value(0.0), m.matrices[0])
    assert np.array_equal(m.value(1.0), m.matrices[-1])
    assert np.array_equal(m.value(times[3]), m.matrices[3])
    assert m.d == 2
    assert np.array_equal(m.final(), m.matrices[-1])


def _peak(call):
    """``call()``'s result and the traced peak of the bytes it allocates."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_unpacks_hold_one_gather_beyond_their_inputs():
    # d = 8, N = 2^10: each (N, d, d) result is 0.5 MB.  ``matrices`` is one
    # gather of the packed entries; ``qv_measures`` holds, besides its result,
    # only the packed rank-two rows and the anchored steps v and w.  The slack
    # covers index arrays, ufunc buffers and the grid check; the w products
    # kept alive through the gather (0.29 MB), or one more full copy of a
    # result, exceed it.
    n, d = 2**10, 8
    times = np.linspace(0.0, 1.0, n + 1)
    z = np.random.default_rng(3).standard_normal((n, d)) * (1.0 / n) ** 0.5
    x = SampledPath(times, np.vstack([np.zeros(d), np.cumsum(z, axis=0)]))
    part = PartitionSequence(times, num_levels=10)
    m = qv_matrix(x, part, 8)
    matrices, peak = _peak(lambda: m.matrices)
    assert peak < matrices.nbytes + 2**16
    measure, peak = _peak(lambda: qv_measures(x, part, 8))
    packed = d * (d + 1) // 2 * n * 8
    steps = 2 * n * d * 8
    assert peak < measure.increments.nbytes + packed + steps + 2**17


def test_qv_converged_holds_two_levels_at_a_time():
    # d = 8, N = 2^10 + 1, all ten levels: each (k, N) entry buffer is 0.30 MB.
    # Besides the (d, N) column copy and the finest level's (k, cells + 1)
    # products, only the newest level and the one before it are alive.  The
    # slack covers ufunc buffers for the strided level views, a copy of the
    # columns' reshape and the finiteness masks; a third entry buffer kept
    # alive exceeds it, and so does every level's entries.
    n, d = 2**10, 8
    k = d * (d + 1) // 2
    times = np.linspace(0.0, 1.0, n + 1)
    z = np.random.default_rng(3).standard_normal((n, d)) * (1.0 / n) ** 0.5
    x = SampledPath(times, np.vstack([np.zeros(d), np.cumsum(z, axis=0)]))
    part = PartitionSequence(times, num_levels=10)
    m, peak = _peak(lambda: qv_converged(x, part))
    assert m.levels == tuple(range(1, 11))
    cols = d * (n + 1) * 8
    entries = k * (n + 1) * 8
    products = k * (n + 1) * 8  # the finest level has cells + 1 = N + 1 points
    assert peak < cols + 2 * entries + products + 2**19


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=-8.0, max_value=8.0),
    st.sampled_from([9, 17, 24, 33]),
)
@settings(max_examples=50)
def test_qv_scales_quadratically(seed, c, n):
    rng = np.random.default_rng(seed)
    times = _grid(n)
    vals = rng.standard_normal(n)
    part = PartitionSequence(times, num_levels=3)
    x = SampledPath(times, vals)
    y = SampledPath(times, c * vals)
    for lev in (1, 2, 3):
        assert math.isclose(
            qv_scalar(y, part, lev),
            c * c * qv_scalar(x, part, lev),
            rel_tol=1e-10,
            abs_tol=1e-10,
        )


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50)
def test_qv_ignores_constant_shifts(seed):
    rng = np.random.default_rng(seed)
    n = 17
    times = _grid(n)
    vals = rng.standard_normal(n)
    shift = rng.uniform(-5.0, 5.0)
    part = PartitionSequence(times, num_levels=4)
    x = SampledPath(times, vals)
    y = SampledPath(times, vals + shift)
    for lev in (1, 4):
        a = qv_matrix(x, part, lev).entry_path(0, 0)
        b = qv_matrix(y, part, lev).entry_path(0, 0)
        assert np.allclose(a, b, rtol=1e-9, atol=1e-9)
