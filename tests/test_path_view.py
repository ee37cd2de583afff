"""Differential tests: lazy path views against the copying code they replace.

``stop``, ``pre_step``, finite-difference bumps and the inner path of
``compose`` each used to build a full (N, d) sample array.  They now return
views that look rows up in the path they came from.  The references below
are the copying code, kept here only: every view must give the same bits as
its copy, in ``values`` and in every ``value``, ``left_limit`` and
``grid_index`` answer, on the grid, off it and within its tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.functionals import Functional, compose
from pathwise_ito.ito import AdmissibleIntegrand, ito_integral
from pathwise_ito.pathgen import GeneratorSpec, generate
from pathwise_ito.paths import (
    LINEAR,
    STEP,
    BVPath,
    Box,
    DomainError,
    GridError,
    PartitionSequence,
    SampledPath,
    _bumped,
    _check_domain,
    default_num_levels,
    pre_step,
    stop,
)
from pathwise_ito.reduction import running_sum

# ---------------------------------------------------------------------------
# The copying references


def _copy(like, values, interpolation=None):
    return type(like)._trusted(
        like.times, values, interpolation or like.interpolation, like.domain
    )


def ref_stop(path, t):
    frozen = path.value(t)
    mask = path.times <= t
    return _copy(path, np.where(mask[:, None], path.values, frozen[None, :]))


def ref_stepped_values(path, partition, level):
    idx = partition.indices(level)
    pos = np.searchsorted(idx, np.arange(path.n_points), side="right") - 1
    succ = idx[np.minimum(pos + 1, idx.shape[0] - 1)]
    vals = path.values[succ].copy()
    vals[-1] = path.values[-1]
    return vals


def ref_pre_step(path, partition, level, s):
    j = path.grid_index(s)
    stepped = ref_stepped_values(path, partition, level)
    mask = np.arange(path.n_points) < j
    vals = np.where(mask[:, None], stepped, path.values[j][None, :])
    return _copy(path, vals, STEP)


def ref_bumped(path, j, i, h, domain):
    vals = path.values.copy()
    vals[j:, i] += h
    _check_domain(vals, domain)
    return _copy(path, vals)


# ---------------------------------------------------------------------------
# Comparison


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except (GridError, DomainError) as exc:
        return type(exc), str(exc)
    return out if isinstance(out, (int, SampledPath)) else _bits(out)


def _probe_times(times):
    """Every grid time, each nudged by 0.4 tolerance either way, cell midpoints
    and quarter points, and one time past each end."""
    T = float(times[-1])
    tol = 0.4e-12 * max(1.0, T)
    mids = 0.5 * (times[:-1] + times[1:])
    quarters = times[:-1] + 0.25 * np.diff(times)
    out = np.concatenate([times, times + tol, times - tol, mids, quarters, [-1e-3, T + 1e-3]])
    return [float(t) for t in out]


def assert_same_path(view, ref, times, lazy=True):
    assert type(view) is type(ref)
    assert (view.d, view.interpolation, view.domain) == (ref.d, ref.interpolation, ref.domain)
    if lazy:
        assert "values" not in vars(view)  # answered from rows, not a built array
    for t in times:
        for name in ("value", "left_limit", "grid_index"):
            assert _outcome(getattr(view, name), t) == _outcome(getattr(ref, name), t), (name, t)
    assert _bits(view.values) == _bits(ref.values)
    assert not view.values.flags.writeable


# ---------------------------------------------------------------------------
# Strategies


@st.composite
def paths(draw, max_points=17):
    n = draw(st.integers(2, max_points))
    d = draw(st.integers(1, 3))
    bv = draw(st.booleans())
    interpolation = LINEAR if bv else draw(st.sampled_from([STEP, LINEAR]))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n - 1, max_size=n - 1))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    entry = st.floats(-100.0, 100.0) | st.just(-0.0)
    values = np.array(draw(st.lists(entry, min_size=n * d, max_size=n * d))).reshape(n, d)
    if bv:
        return BVPath(times, values)
    return SampledPath(times, values, interpolation)


def _grid_time(draw, path):
    return float(path.times[draw(st.integers(0, path.n_points - 1))])


@st.composite
def stop_times(draw, path):
    """A grid time, a time within tolerance of one, or a time between two."""
    t = _grid_time(draw, path)
    kind = draw(st.sampled_from(["grid", "near", "between"]))
    if kind == "near":
        t = min(max(t + draw(st.sampled_from([-0.4e-12, 0.4e-12])), 0.0), path.horizon)
    elif kind == "between":
        t = draw(st.floats(0.0, path.horizon))
    return t


# ---------------------------------------------------------------------------
# stop and pre_step


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stop_and_stop_of_stop_match_the_copies(data):
    path = data.draw(paths())
    t1 = data.draw(stop_times(path))
    t2 = data.draw(stop_times(path))
    probes = _probe_times(path.times)
    once, ref_once = stop(path, t1), ref_stop(path, t1)
    assert_same_path(once, ref_once, probes)
    assert_same_path(stop(once, t2), ref_stop(ref_once, t2), probes)
    inner = stop(path, t1)
    outer = stop(inner, t2)
    for t in probes:
        _outcome(outer.value, t), _outcome(outer.left_limit, t)
    assert "values" not in vars(inner)  # a view of a view reads rows too
    assert_same_path(outer, ref_stop(ref_stop(path, t1), t2), probes)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_pre_step_matches_the_copy_at_every_partition_point(data):
    path = data.draw(paths())
    levels = data.draw(st.integers(1, default_num_levels(path.n_points) + 1))
    part = PartitionSequence(path.times, levels)
    probes = _probe_times(path.times)
    for level in range(1, levels + 1):
        for s in part.points(level):
            view = pre_step(path, part, level, float(s))
            assert_same_path(view, ref_pre_step(path, part, level, float(s)), probes)


# ---------------------------------------------------------------------------
# Finite-difference bumps


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_single_and_double_bumps_match_the_copies(data):
    path = data.draw(paths())
    if data.draw(st.booleans()):
        part = PartitionSequence(path.times, default_num_levels(path.n_points))
        s = float(part.points(1)[data.draw(st.integers(0, part.num_cells(1)))])
        base, ref_base = pre_step(path, part, 1, s), ref_pre_step(path, part, 1, s)
    else:
        base, ref_base = path, path
    j = data.draw(st.integers(0, path.n_points - 1))
    i, k = data.draw(st.integers(0, path.d - 1)), data.draw(st.integers(0, path.d - 1))
    h1, h2 = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(-10.0, 10.0))
    domain = None
    if data.draw(st.booleans()):
        top = float(np.max(path.values)) + data.draw(st.floats(0.01, 20.0))
        domain = Box(lower=(-np.inf,) * path.d, upper=(top,) * path.d)
    probes = _probe_times(path.times)

    def same_bump(view_base, ref_base, comp, h):
        view = _outcome(_bumped, view_base, j, comp, h, domain)
        ref = _outcome(ref_bumped, ref_base, j, comp, h, domain)
        if not isinstance(ref, SampledPath):
            assert view == ref  # the same DomainError
            return None, None
        # with a domain, the whole bumped path was built to be checked
        assert_same_path(view, ref, probes, lazy=domain is None)
        return view, ref

    single, ref_single = same_bump(base, ref_base, i, h1)
    if single is not None:
        same_bump(single, ref_single, k, h2)


def test_a_bump_keeps_negative_zero_in_the_other_components():
    path = SampledPath([0.0, 0.5, 1.0], [[-0.0, 1.0], [-0.0, 2.0], [-0.0, 3.0]])
    bumped = _bumped(path, 1, 1, 0.5, None)
    assert _bits(bumped.value(1.0)) == _bits(np.array([-0.0, 3.5]))
    assert _bits(bumped.values) == _bits(ref_bumped(path, 1, 1, 0.5, None).values)


# ---------------------------------------------------------------------------
# The inner path of compose


def _counted_inners(d, m):
    calls = [0]

    def f1(t, x, a):
        calls[0] += 1
        v = x.value(t)
        return float(np.sum(v * v) + (a.value(t)[0] if m else 0.0) + t)

    def f2(t, x, a):
        calls[0] += 1
        return float(x.value(t)[0] * t - x.value(t)[-1])

    return [Functional(f1, d=d, m=m), Functional(f2, d=d, m=m)], calls


def _inner_path(x, a, inners):
    """The path compose hands its outer functional."""
    seen = []
    outer = Functional(lambda t, y, b: seen.append(y) or 0.0, d=len(inners))
    compose(outer, inners).evaluate(0.0, x, a)
    return seen[0]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_composed_inner_path_matches_the_materialised_copy(data):
    x = data.draw(paths())
    x = SampledPath(x.times, x.values, x.interpolation)
    m = data.draw(st.integers(0, 1))
    a = BVPath(x.times, np.cumsum(np.abs(x.values[:, 0]))) if m else None
    inners, calls = _counted_inners(x.d, m)
    y = _inner_path(x, a, inners)
    before = calls[0]
    assert type(y) is SampledPath and y.d == 2 and calls[0] == before
    rows = np.array([[f.evaluate(float(t), x, a) for f in inners] for t in x.times])
    ref = SampledPath._trusted(x.times, rows, LINEAR, None)
    for t in _probe_times(x.times):
        if not 0.0 <= t <= x.horizon:
            continue
        direct = np.array([f.evaluate(t, x, a) for f in inners])
        assert _bits(y.value(t)) == _bits(direct)
    on_grid = [float(t) for t in x.times]
    for t in on_grid:
        assert _bits(y.value(t)) == _bits(ref.value(t))
        assert y.grid_index(t) == ref.grid_index(t)
    probes = _probe_times(x.times)
    t = data.draw(stop_times(x))
    assert_same_path(stop(y, t), ref_stop(ref, t), probes)
    j = data.draw(st.integers(0, x.n_points - 1))
    h = data.draw(st.floats(-10.0, 10.0))
    bumped = _bumped(y, j, 1, h, None)
    assert_same_path(bumped, ref_bumped(ref, j, 1, h, None), probes)
    assert _bits(y.values) == _bits(ref.values) and not y.values.flags.writeable


# ---------------------------------------------------------------------------
# Cost: no per-cell sample array unless the integrand reads one


@pytest.fixture
def builds(monkeypatch):
    """Paths whose samples were built from rows, in order."""
    built = []
    original = SampledPath.__getattr__

    def counting(self, name):
        out = original(self, name)
        built.append(self)
        return out

    monkeypatch.setattr(SampledPath, "__getattr__", counting)
    return built


def _loop_dot(u, v):
    acc = float(u[0]) * float(v[0])
    for k in range(1, len(u)):
        acc = acc + float(u[k]) * float(v[k])
    return acc


def _ref_integral_at_points(F, x, part, level):
    idx = part.indices(level)
    dx = x.values[idx[1:]] - x.values[idx[:-1]]
    terms = []
    for j, s in enumerate(x.times[idx[:-1]]):
        pre = ref_pre_step(x, part, level, float(s))
        terms.append(_loop_dot(F.vertical(float(s), pre), dx[j]))
    return running_sum(np.array(terms))


@pytest.mark.parametrize("reads_values", [False, True])
def test_per_cell_integral_builds_samples_only_when_read(reads_values, builds):
    x = generate(GeneratorSpec(kind="brownian", base_points=128, d=2, seed=3))
    if reads_values:
        # the mean of the whole pre-step history: O(N) per cell, inherently
        def grad(t, path, a):
            return np.mean(path.values, axis=0)
    else:
        def grad(t, path, a):
            return 2.0 * path.value(t) * path.left_limit(max(t, 1e-3))

    F = Functional(lambda t, path, a: 0.0, d=2, vertical=grad)
    part = PartitionSequence(x.times, default_num_levels(x.n_points))
    res = ito_integral(AdmissibleIntegrand(F), x, part)
    cells = sum(part.num_cells(n) for n in res.levels)
    assert len(builds) == (cells if reads_values else 0)
    for row, n in enumerate(res.levels):
        ref = _ref_integral_at_points(F, x, part, n)
        assert _bits(res.values[row, part.indices(n)]) == _bits(ref)
