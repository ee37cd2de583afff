"""Differential tests: state-only functionals against per-point references.

A Python-API cylinder, coordinate, bv_coordinate and constant_functional
are each built from maps on stacked states, and their point slots run the
same map on a one-row stack.  The references below are bare Functionals
around hand-written point lambdas (the form these built-ins had before they
gained a state form), so they have no state form: their samples go point
by point and their integrals rebuild a pre-step path per cell.  Every slot
must give the same bits either way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pathwise_ito.ito as ito
import pathwise_ito.reduction as reduction
from pathwise_ito.functionals import (
    Functional,
    _state_slot,
    bv_coordinate,
    constant_functional,
    coordinate,
    cylinder,
    running_max_path,
    time_average_path,
)
from pathwise_ito.ito import AdmissibleIntegrand, ito_integral
from pathwise_ito.pathgen import GeneratorSpec, generate
from pathwise_ito.paths import PartitionSequence, concat_components

N_POINTS = 64
NUM_LEVELS = 5
SLOTS = ("evaluate", "vertical", "vertical2", "horizontal")


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def _data(seed: int, d: int, m: int):
    x = generate(GeneratorSpec(kind="brownian", base_points=N_POINTS, d=d, seed=seed))
    part = PartitionSequence(x.times, num_levels=NUM_LEVELS)
    a = None
    for k in range(m):
        piece = (time_average_path if k % 2 == 0 else running_max_path)(x, k % d)
        a = piece if a is None else concat_components(a, piece)
    return x, part, a


# ---------------------------------------------------------------------------
# Per-point references


def _state_at(t, x, a):
    xv = np.atleast_1d(np.asarray(x.value(t), dtype=np.float64))
    av = np.atleast_1d(np.asarray(a.value(t), dtype=np.float64)) if a is not None else np.zeros(0)
    return xv, av


def _ref_cylinder(f, d, m, grad, hess, dt, da):
    def at_state(fn):
        return lambda t, x, a: fn(t, *_state_at(t, x, a))

    def horizontal(t, xv, av):
        tail = np.atleast_1d(da(t, xv, av)) if m else np.zeros(0)
        return np.concatenate([[dt(t, xv, av)], tail])

    return Functional(
        evaluate=at_state(f),
        d=d,
        m=m,
        vertical=at_state(grad),
        vertical2=at_state(hess),
        horizontal=at_state(horizontal),
    )


def _ref_coordinate(i, d, m):
    e_i = np.zeros(d)
    e_i[i] = 1.0
    zero_d2, zero_h = np.zeros((d, d)), np.zeros(m + 1)
    return Functional(
        evaluate=lambda t, x, a: x.value(t)[i],
        d=d,
        m=m,
        vertical=lambda t, x, a: e_i,
        vertical2=lambda t, x, a: zero_d2,
        horizontal=lambda t, x, a: zero_h,
    )


def _ref_bv_coordinate(k, m, d):
    zero_d, zero_d2 = np.zeros(d), np.zeros((d, d))
    h_vec = np.zeros(m + 1)
    h_vec[k + 1] = 1.0
    return Functional(
        evaluate=lambda t, x, a: a.value(t)[k],
        d=d,
        m=m,
        vertical=lambda t, x, a: zero_d,
        vertical2=lambda t, x, a: zero_d2,
        horizontal=lambda t, x, a: h_vec,
    )


def _ref_constant(c, d, m):
    zero_d, zero_d2, zero_h = np.zeros(d), np.zeros((d, d)), np.zeros(m + 1)
    return Functional(
        evaluate=lambda t, x, a: c,
        d=d,
        m=m,
        vertical=lambda t, x, a: zero_d,
        vertical2=lambda t, x, a: zero_d2,
        horizontal=lambda t, x, a: zero_h,
    )


def _python_partials(c: tuple[float, float, float], d: int, m: int):
    """f = c0 |x|^2 + sin(c1 t x_1) + c2 sum(a) and its partials, as scalar callables."""
    c0, c1, c2 = c

    def f(t, xv, av):
        return c0 * float(xv @ xv) + np.sin(c1 * t * xv[0]) + c2 * float(np.sum(av))

    def grad(t, xv, av):
        out = 2.0 * c0 * xv
        out[0] += c1 * t * np.cos(c1 * t * xv[0])
        return out

    def hess(t, xv, av):
        out = 2.0 * c0 * np.eye(d)
        out[0, 0] -= (c1 * t) ** 2 * np.sin(c1 * t * xv[0])
        return out

    def dt(t, xv, av):
        return c1 * xv[0] * np.cos(c1 * t * xv[0])

    def da(t, xv, av):
        return np.full(m, c2)

    return f, grad, hess, dt, da


@st.composite
def _cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["cylinder", "coordinate", "bv_coordinate", "constant"]))
    if kind == "bv_coordinate":
        m = max(m, 1)
    coef = st.sampled_from((1.0, -3.0, 0.5, 0.3, 2.5))
    if kind == "cylinder":
        f, grad, hess, dt, da = _python_partials((draw(coef), draw(coef), draw(coef)), d, m)
        F = cylinder(f, d, m, grad, hess, dt, da)
        ref = _ref_cylinder(f, d, m, grad, hess, dt, da)
    elif kind == "coordinate":
        i = draw(st.integers(0, d - 1))
        F, ref = coordinate(i, d, m), _ref_coordinate(i, d, m)
    elif kind == "bv_coordinate":
        k = draw(st.integers(0, m - 1))
        F, ref = bv_coordinate(k, m, d), _ref_bv_coordinate(k, m, d)
    else:
        c = draw(coef)
        F, ref = constant_functional(c, d, m), _ref_constant(c, d, m)
    return F, ref, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_state_form_matches_the_point_reference_bitwise(case):
    F, ref, seed = case
    assert set(F._on_states) == set(SLOTS) and not ref._on_states
    x, _, a = _data(seed, F.d, F.m)
    # half-way between grid times too, where the point form interpolates
    off_grid = 0.5 * (x.times[:-1] + x.times[1:])
    for slot in SLOTS:
        rows = _state_slot(F, slot, x, a)
        want = np.array([getattr(ref, slot)(float(t), x, a) for t in x.times])
        assert _bits(rows) == _bits(want), slot
        points = np.array([getattr(F, slot)(float(t), x, a) for t in x.times])
        assert _bits(points) == _bits(want), slot
        for t in off_grid:
            got, exp = getattr(F, slot)(float(t), x, a), getattr(ref, slot)(float(t), x, a)
            assert _bits(got) == _bits(exp), (slot, t)


def _refuse(*args, **kwargs):
    raise AssertionError("a state-only integrand must not run the per-cell fill")


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.data())
def test_coordinate_integrand_takes_the_state_route(d, m, data):
    i = data.draw(st.integers(0, d - 1))
    seed = data.draw(st.integers(0, 2**16))
    levels = sorted(data.draw(st.sets(st.integers(1, NUM_LEVELS), min_size=1)))
    x, part, a = _data(seed, d, m)
    ref = AdmissibleIntegrand(_ref_coordinate(i, d, m), a)
    xi = AdmissibleIntegrand(coordinate(i, d, m), a)
    for plain in (False, True):
        want = ito_integral(ref, x, part, levels, plain_riemann=plain)
        # a Hypothesis test runs many examples per call, so each opens its
        # own patch context rather than sharing the monkeypatch fixture
        with pytest.MonkeyPatch.context() as patch:
            for module in (ito, reduction):
                patch.setattr(module, "map_chunked", _refuse)
            got = ito_integral(xi, x, part, levels, plain_riemann=plain)
        assert _bits(got.values) == _bits(want.values)
        assert _bits(got.cauchy_diffs) == _bits(want.cauchy_diffs)
