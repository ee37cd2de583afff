"""Pathwise integrals, change-of-variables reports, and associativity checks."""

import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.config import (
    build_components,
    build_functional,
    load_config,
    partition_for,
    resolve_path,
)
from pathwise_ito.functionals import Functional, coordinate, cylinder, time_average_path
from pathwise_ito.ito import (
    AdmissibleIntegrand,
    HypothesisError,
    associativity_check,
    augment,
    build_Y,
    corollary_decomposition,
    ito_formula_report,
    ito_integral,
    qv_of_Y_check,
)
from pathwise_ito.paths import (
    LINEAR,
    STEP,
    Box,
    BVPath,
    DomainError,
    GridError,
    PartitionSequence,
    SampledPath,
)
from pathwise_ito import ito as ito_module
from pathwise_ito import qv as qv_module
from pathwise_ito.qv import qv_matrix, qv_scalar
from pathwise_ito.stieltjes import StieltjesMeasure, cumulative_stieltjes


def _walk(n, seed, scale=None):
    rng = np.random.default_rng(seed)
    if scale is None:
        scale = math.sqrt(1.0 / n)
    z = rng.standard_normal(n) * scale
    return np.concatenate([[0.0], np.cumsum(z)])


def _brownian(exponent=10, seed=42):
    n = 2**exponent
    times = np.linspace(0.0, 1.0, n + 1)
    x = SampledPath(times, _walk(n, seed))
    return x, PartitionSequence(times, num_levels=exponent)


def _unit():
    # vertical derivative of X(t) is identically one, so this integrates 1 dX
    return AdmissibleIntegrand(coordinate(0))


def _square_functional():
    return cylinder(
        lambda t, xv, av: xv[0] ** 2,
        d=1,
        grad=lambda t, xv, av: np.array([2.0 * xv[0]]),
        hess=lambda t, xv, av: np.array([[2.0]]),
        name="x^2",
    )


def _two_x():
    return AdmissibleIntegrand(_square_functional())


def _scaled(c):
    return AdmissibleIntegrand(
        cylinder(
            lambda t, xv, av: c * xv[0],
            d=1,
            grad=lambda t, xv, av: np.array([c]),
            hess=lambda t, xv, av: np.array([[0.0]]),
            name=f"{c}*x",
        )
    )


def _endpoint_peek():
    """Reads the last sample of whatever path it is handed.

    Deliberately look-ahead: the integral evaluates it on pre-step data
    while the quadratic-variation weights sample the true path, so the
    identity for [Y] must break down.
    """
    return AdmissibleIntegrand(
        Functional(
            lambda t, x, a: float(x.values[-1, 0]),
            d=1,
            vertical=lambda t, x, a: np.array([float(x.values[-1, 0])]),
            vertical2=lambda t, x, a: np.zeros((1, 1)),
            name="endpoint",
        )
    )


# ---------------------------------------------------------------------------
# the integral itself


def test_integral_of_one_telescopes_at_every_partition_point():
    x, part = _brownian()
    res = ito_integral(_unit(), x, part)
    assert res.values.shape == (part.num_levels, x.n_points)
    for row, level in enumerate(res.levels):
        idx = part.indices(level)
        expect = x.values[idx, 0] - x.values[0, 0]
        # float sums, not bitwise: fl(a + fl(b - a)) need not equal b
        np.testing.assert_allclose(res.values[row, idx], expect, atol=1e-13, rtol=0.0)
        assert res.values[row, 0] == 0.0


def test_integral_starts_at_zero_and_matches_at_lookup():
    x, part = _brownian(exponent=6)
    res = ito_integral(_two_x(), x, part, levels=(4, 6))
    assert res.at(0.0) == 0.0
    k = 17
    t = float(x.times[k])
    assert res.at(t) == res.values[-1, k]
    assert res.at(t, level=4) == res.values[0, k]
    with pytest.raises(GridError):
        res.at(0.12345)


def test_interpolated_mask_marks_partition_points():
    x, part = _brownian(exponent=6)
    res = ito_integral(_unit(), x, part, levels=4)
    idx = part.indices(4)
    assert not res.interpolated[0, idx].any()
    off = np.setdiff1d(np.arange(x.n_points), idx)
    assert res.interpolated[0, off].all()


def test_square_identity_holds_at_each_level():
    # I_n(2X dX)(T) + [X]_n(T) recovers X(T)^2 - X(0)^2 cell by cell
    x, part = _brownian()
    res = ito_integral(_two_x(), x, part)
    lhs = x.values[-1, 0] ** 2 - x.values[0, 0] ** 2
    for row, level in enumerate(res.levels):
        total = res.values[row, -1] + qv_scalar(x, part, level)
        assert math.isclose(total, lhs, rel_tol=0.0, abs_tol=1e-13)


def test_integral_against_stieltjes_on_monotone_path():
    n = 2**10
    times = np.linspace(0.0, 1.0, n + 1)
    vals = times**2 + 0.25 * times  # increasing, zero quadratic variation
    x = SampledPath(times, vals)
    part = PartitionSequence(times, num_levels=10)
    res = ito_integral(_two_x(), x, part, levels=(6, 7, 8, 9, 10))
    mu = StieltjesMeasure(times, np.diff(vals))
    oracle = cumulative_stieltjes(2.0 * vals, mu)
    errs = [float(np.max(np.abs(res.values[r] - oracle))) for r in range(5)]
    for coarse, fine in zip(errs, errs[1:]):
        assert fine < coarse / 1.5
    # at the finest level both are the same left-endpoint sums
    assert errs[-1] == 0.0


def test_upper_limit_continuity_improves_with_level():
    # between its own partition points the integral moves by at most
    # sup|xi| times the cell oscillation of X, which here scales with mesh
    n = 2**10
    times = np.linspace(0.0, 1.0, n + 1)
    x = SampledPath(times, times**2 + 0.25 * times)
    part = PartitionSequence(times, num_levels=10)
    res = ito_integral(_two_x(), x, part, levels=(6, 8, 10))
    cell_moves = []
    for row, level in enumerate(res.levels):
        idx = part.indices(level)
        cell_moves.append(float(np.max(np.abs(np.diff(res.values[row, idx])))))
    for coarse, fine in zip(cell_moves, cell_moves[1:]):
        assert fine < coarse / 3.0


def test_convergence_flag_and_cauchy_differences():
    # Cauchy differences are taken uniformly over the base grid, so they
    # also see how far coarse-level interpolation sits from finer levels
    n = 2**10
    times = np.linspace(0.0, 1.0, n + 1)
    smooth = SampledPath(times, times**2 + 0.25 * times)
    part = PartitionSequence(times, num_levels=10)
    res = ito_integral(_two_x(), smooth, part, levels=(6, 8, 10), tol=1e-2)
    assert res.cauchy_diffs.shape == (2,)
    assert res.cauchy_diffs[1] < res.cauchy_diffs[0]
    assert res.converged is True
    tight = ito_integral(_two_x(), smooth, part, levels=(6, 8, 10), tol=1e-6)
    assert tight.converged is False
    x, bpart = _brownian()
    rough = ito_integral(_two_x(), x, bpart, levels=(6, 8, 10))
    assert rough.converged is False
    single = ito_integral(_two_x(), x, bpart, levels=10)
    assert single.converged is None
    assert single.cauchy_diffs.size == 0


def test_integral_input_validation():
    x, part = _brownian(exponent=4)
    stepped = SampledPath(x.times, x.values, STEP)
    with pytest.raises(ValueError):
        ito_integral(_unit(), stepped, part)
    other = PartitionSequence(np.linspace(0.0, 2.0, 17), num_levels=4)
    with pytest.raises(GridError):
        ito_integral(_unit(), x, other)
    with pytest.raises(ValueError):
        ito_integral(AdmissibleIntegrand(coordinate(0, d=2)), x, part)
    with pytest.raises(ValueError):
        ito_integral(_unit(), x, part, levels=(4, 3))


def test_plain_riemann_coincides_for_instantaneous_integrands():
    x, part = _brownian(exponent=8)
    pre = ito_integral(_two_x(), x, part, levels=8)
    plain = ito_integral(_two_x(), x, part, levels=8, plain_riemann=True)
    assert pre.plain_riemann is False
    assert plain.plain_riemann is True
    assert np.array_equal(pre.values, plain.values)


def test_plain_riemann_differs_for_path_dependent_integrands():
    x, part = _brownian(exponent=8)
    pre = ito_integral(_endpoint_peek(), x, part, levels=8)
    plain = ito_integral(_endpoint_peek(), x, part, levels=8, plain_riemann=True)
    assert float(np.max(np.abs(pre.values - plain.values))) > 0.1


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    k=st.integers(min_value=0, max_value=16),
)
def test_constant_integrand_scales_exactly(c, k):
    # I_n(c dX)(t) = c (X(t) - X(0)) at every partition point, every level
    x, part = _brownian(exponent=8, seed=3)
    level = 4
    res = ito_integral(_scaled(c), x, part, levels=level)
    j = part.indices(level)[k]
    expect = c * (x.values[j, 0] - x.values[0, 0])
    assert math.isclose(
        res.values[0, j], expect, rel_tol=0.0, abs_tol=1e-12 * max(1.0, abs(c))
    )


@settings(max_examples=25, deadline=None)
@given(levels=st.sets(st.integers(1, 8), min_size=1), plain=st.booleans())
def test_one_integrand_sample_serves_every_level(levels, plain):
    # the finest level's left points hold every coarser level's, so grad runs
    # once at each of them, in grid order, whichever levels are asked for
    x, part = _brownian(exponent=8, seed=3)
    calls = []

    def grad(t, xv, av):
        calls.append(t)
        return 2.0 * xv

    F = cylinder(lambda t, xv, av: xv[0] ** 2, d=1, grad=grad)
    lv = sorted(levels)
    ito_integral(AdmissibleIntegrand(F), x, part, levels=lv, plain_riemann=plain)
    assert len(calls) == part.indices(max(lv)).size - 1
    assert calls == part.points(max(lv))[:-1].tolist()


# ---------------------------------------------------------------------------
# change-of-variables reports


def test_formula_report_for_coordinate_is_exact():
    x, part = _brownian(exponent=8)
    rep = ito_formula_report(coordinate(0), x, None, part)
    assert rep.horizontal_at_T == 0.0
    assert np.all(rep.qv_at_T == 0.0)
    assert np.all(np.abs(rep.residuals) < 1e-13)


def test_formula_report_for_square():
    x, part = _brownian()
    rep = ito_formula_report(_square_functional(), x, None, part)
    lhs = x.values[-1, 0] ** 2 - x.values[0, 0] ** 2
    assert math.isclose(rep.lhs, lhs, rel_tol=1e-12)
    assert rep.horizontal_at_T == 0.0
    assert np.all(np.abs(rep.residuals) < 1e-12)
    for row, level in enumerate(rep.levels):
        assert math.isclose(rep.qv_at_T[row], qv_scalar(x, part, level), rel_tol=1e-12)


def test_formula_report_with_clock_term():
    # F = t X(t): the horizontal term picks up the integral of X against time
    x, part = _brownian()
    tx = cylinder(
        lambda t, xv, av: t * xv[0],
        d=1,
        grad=lambda t, xv, av: np.array([t]),
        hess=lambda t, xv, av: np.array([[0.0]]),
        dt=lambda t, xv, av: xv[0],
        name="t*x",
    )
    rep = ito_formula_report(tx, x, None, part, levels=(4, 6, 8, 10))
    left_sums = float(np.sum(x.values[:-1, 0] * np.diff(x.times)))
    assert math.isclose(rep.horizontal_at_T, left_sums, rel_tol=1e-12)
    errs = np.abs(rep.residuals)
    assert np.all(errs[1:] < errs[:-1])
    assert errs[-1] < 2e-3


@pytest.mark.parametrize("levels", [None, (3, 5, 8)])
def test_formula_report_runs_one_qv_pass_per_level(levels, monkeypatch):
    # one set of anchored steps a level, and no QV entry paths
    x, part = _brownian(exponent=8)
    real_steps, real_paths = ito_module._anchored_steps, qv_module._entry_paths
    passes, paths = [], []

    def counted(x_, partition, level):
        passes.append(level)
        return real_steps(x_, partition, level)

    monkeypatch.setattr(ito_module, "_anchored_steps", counted)
    monkeypatch.setattr(qv_module, "_entry_paths",
                        lambda *args, **kwargs: paths.append(1) or real_paths(*args, **kwargs))
    rep = ito_formula_report(_square_functional(), x, None, part, levels)
    assert passes == list(rep.levels)
    assert paths == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_formula_report_rejects_a_non_finite_term():
    x, part = _brownian(exponent=6)
    bad_hess = cylinder(
        lambda t, xv, av: xv[0] ** 2,
        d=1,
        grad=lambda t, xv, av: np.array([2.0 * xv[0]]),
        hess=lambda t, xv, av: np.array([[np.inf]]),
        dt=lambda t, xv, av: 0.0,
        name="inf-hess",
    )
    with pytest.raises(DomainError, match=r"non-finite qv term .* at level 4"):
        ito_formula_report(bad_hess, x, None, part, levels=(4, 6))


def test_integral_rejects_a_non_finite_cell_term():
    x, part = _brownian(exponent=6)
    blows_up_late = AdmissibleIntegrand(
        Functional(
            lambda t, x, a: 0.0,
            d=1,
            vertical=lambda t, x, a: np.array([np.nan if t >= 0.5 else 1.0]),
            name="nan-late",
        )
    )
    with pytest.raises(DomainError, match=r"level 3, grid time 0\.5$"):
        ito_integral(blows_up_late, x, part, levels=(3, 6))


# ---------------------------------------------------------------------------
# vector integrals and the quadratic variation of Y


def test_build_y_of_unit_integrand_recenters_the_path():
    x, part = _brownian()
    y = build_Y([_unit()], x, part)
    assert np.array_equal(y.values[:, 0], x.values[:, 0] - x.values[0, 0])
    assert y.interpolation == LINEAR


def test_build_y_stacks_components():
    x, part = _brownian(exponent=6)
    y = build_Y([_unit(), _two_x()], x, part)
    assert y.values.shape == (x.n_points, 2)
    assert np.all(y.values[0] == 0.0)
    solo = ito_integral(_two_x(), x, part).final
    assert np.array_equal(y.values[:, 1], solo)


def test_qv_identity_exact_for_unit_integrand():
    x, part = _brownian()
    rep = qv_of_Y_check([_unit()], x, part, level=10)
    assert rep.residuals.shape == (1, 1)
    assert rep.residuals[0, 0] == 0.0
    assert rep.relative == 0.0
    assert math.isclose(rep.direct_final[0, 0], qv_scalar(x, part, 10), rel_tol=1e-12)


def test_qv_identity_scales_with_the_constant():
    x, part = _brownian()
    rep = qv_of_Y_check([_scaled(3.0)], x, part, level=10)
    assert rep.relative < 1e-12
    assert math.isclose(rep.direct_final[0, 0], 9.0 * qv_scalar(x, part, 10), rel_tol=1e-10)


def test_qv_identity_residual_shrinks_for_state_dependent_integrand():
    x, part = _brownian()
    coarse = qv_of_Y_check([_two_x()], x, part, level=8)
    fine = qv_of_Y_check([_two_x()], x, part, level=10)
    assert fine.relative < coarse.relative
    assert coarse.relative < 5e-2
    assert fine.relative < 1e-12  # finest level: the very same cell sums


def test_qv_identity_breaks_for_look_ahead_integrand():
    x, part = _brownian(exponent=8)
    rep = qv_of_Y_check([_endpoint_peek()], x, part, level=8)
    assert rep.relative > 0.5


# ---------------------------------------------------------------------------
# augmentation


def test_augment_coordinate_has_zero_compensator():
    x, part = _brownian(exponent=8)
    aug = augment([coordinate(0)], x, None, part, level=8)
    assert aug.nu == 1
    assert aug.base_m == 0
    assert np.all(aug.bv.values[:, 0] == 0.0)
    assert aug.constants[0] == x.values[0, 0]
    rep = aug.representation_path(x)
    assert np.array_equal(rep.values[:, 0], x.values[:, 0] - x.values[0, 0])


def test_augment_square_compensator_is_the_qv_path():
    x, part = _brownian()
    aug = augment([_square_functional()], x, None, part, level=10)
    qv_path = qv_matrix(x, part, 10).entry_path(0, 0)
    np.testing.assert_allclose(aug.bv.values[:, 0], qv_path, atol=1e-12, rtol=0.0)
    rep = aug.representation_path(x)
    y = build_Y([_two_x()], x, part, levels=10)
    assert float(np.max(np.abs(rep.values - y.values))) < 1e-12


def test_augmented_functional_derivative_overrides():
    x, part = _brownian(exponent=6)
    aug = augment([_square_functional()], x, None, part, level=6)
    f_tilde = aug.functionals[0]
    t = float(x.times[32])
    # vertical data passes straight through to the original functional
    v = f_tilde.vertical(t, x, aug.bv)
    assert v[0] == 2.0 * x.values[32, 0]
    assert f_tilde.vertical2(t, x, aug.bv)[0, 0] == 2.0
    # the appended component enters with slope exactly minus one
    hz = f_tilde.horizontal(t, x, aug.bv)
    assert hz.shape == (2,)
    assert hz[0] == 0.0
    assert hz[1] == -1.0


def test_augment_input_validation():
    x, part = _brownian(exponent=4)
    with pytest.raises(ValueError):
        augment([], x, None, part, level=4)
    with pytest.raises(ValueError):
        augment([coordinate(0), coordinate(0, d=2)], x, None, part, level=4)
    with pytest.raises(ValueError):
        augment([coordinate(0, m=1)], x, None, part, level=4)


# ---------------------------------------------------------------------------
# associativity


def test_associativity_trivial_outer():
    # eta == 1 reproduces Y itself on both sides
    x, part = _brownian()
    eta = AdmissibleIntegrand(coordinate(0))
    rep = associativity_check(eta, [_unit()], x, part, levels=(6, 8, 10))
    assert np.all(np.abs(rep.residuals_at_T) < 1e-12)
    assert np.all(rep.max_residuals < 1e-12)


def test_associativity_state_dependent_outer():
    x, part = _brownian()
    ysq = cylinder(
        lambda t, yv, bv: yv[0] ** 2,
        d=1,
        grad=lambda t, yv, bv: np.array([2.0 * yv[0]]),
        hess=lambda t, yv, bv: np.array([[2.0]]),
        name="y^2",
    )
    rep = associativity_check(AdmissibleIntegrand(ysq), [_unit()], x, part)
    assert np.all(np.abs(rep.residuals_at_T) < 1e-10)
    assert np.all(rep.max_residuals < 1e-10)
    assert math.isclose(rep.lhs_at_T[-1], rep.rhs_at_T[-1], rel_tol=0.0, abs_tol=1e-10)


def test_associativity_gate_rejects_look_ahead():
    x, part = _brownian(exponent=8)
    eta = AdmissibleIntegrand(coordinate(0))
    with pytest.raises(HypothesisError) as err:
        associativity_check(eta, [_endpoint_peek()], x, part)
    assert "gate" in str(err.value)
    assert err.value.residual > 0.05
    assert err.value.tol == 0.05


def test_associativity_gate_is_qv_of_Y_check_at_the_finest_level():
    x, part = _brownian(exponent=8)
    eta = AdmissibleIntegrand(coordinate(0))
    rep = associativity_check(eta, [_two_x()], x, part, levels=(6, 8))
    alone = qv_of_Y_check([_two_x()], x, part, level=8)
    assert rep.qv_report.relative == alone.relative
    assert np.array_equal(rep.qv_report.residuals, alone.residuals)


def test_associativity_gate_tolerance_is_adjustable():
    x, part = _brownian(exponent=8)
    eta = AdmissibleIntegrand(coordinate(0))
    # an exact identity passes even a zero-tolerance gate
    associativity_check(eta, [_unit()], x, part, qv_gate_tol=0.0)
    # an honest but inexact one does not
    with pytest.raises(HypothesisError):
        associativity_check(eta, [_two_x()], x, part, qv_gate_tol=0.0)


def test_associativity_gate_fails_on_a_nan_tolerance():
    # assoc_d2.json's inputs pass the default gate; a NaN tolerance is no gate
    config = load_config(Path(__file__).parent / "golden" / "assoc_d2.json")
    x = resolve_path(config)
    part = partition_for(config, x)
    a = build_components(config, x, part)
    xis = [AdmissibleIntegrand(build_functional(s, x.d, a.m), a) for s in config.integrands]
    eta = AdmissibleIntegrand(build_functional(config.outer, len(xis), 0))
    with pytest.raises(HypothesisError):
        associativity_check(eta, xis, x, part, levels=config.levels, qv_gate_tol=float("nan"))


def test_associativity_requires_shared_component_path():
    x, part = _brownian(exponent=4)
    times = x.times

    def _with_bv(col):
        f = cylinder(
            lambda t, xv, av: av[0] * xv[0],
            d=1,
            m=1,
            grad=lambda t, xv, av: np.array([av[0]]),
            hess=lambda t, xv, av: np.array([[0.0]]),
            name="a*x",
        )
        return AdmissibleIntegrand(f, bv=BVPath(times, col))

    first = _with_bv(times.copy())
    second = _with_bv(2.0 * times)
    eta = AdmissibleIntegrand(coordinate(0, d=2))
    with pytest.raises(ValueError):
        associativity_check(eta, [first, second], x, part)


def test_associativity_outer_dimension_check():
    x, part = _brownian(exponent=4)
    eta = AdmissibleIntegrand(coordinate(0, d=2))
    with pytest.raises(ValueError):
        associativity_check(eta, [_unit()], x, part)


# ---------------------------------------------------------------------------
# the composed decomposition


def test_corollary_reduces_to_associativity_for_coordinate():
    x, part = _brownian(exponent=8)
    eta = AdmissibleIntegrand(coordinate(0))
    rep = corollary_decomposition(eta, [coordinate(0)], x, None, part, levels=(6, 8))
    assert np.all(np.abs(rep.residuals) < 1e-12)


def test_corollary_log_change_of_variables():
    # X = exp(walk) stays positive; F = log X undoes it, so the left side
    # telescopes to log X(T) - log X(0) while the right side needs both the
    # 1/X integral and the -1/(2 X^2) quadratic-variation correction.
    n = 2**12
    times = np.linspace(0.0, 1.0, n + 1)
    x = SampledPath(
        times, np.exp(_walk(n, seed=7)), domain=Box((0.0,), (np.inf,))
    )
    part = PartitionSequence(times, num_levels=12)
    logf = cylinder(
        lambda t, xv, av: math.log(xv[0]),
        d=1,
        grad=lambda t, xv, av: np.array([1.0 / xv[0]]),
        hess=lambda t, xv, av: np.array([[-1.0 / xv[0] ** 2]]),
        x_domain=Box((0.0,), (np.inf,)),
        name="log",
    )
    eta = AdmissibleIntegrand(coordinate(0))
    rep = corollary_decomposition(eta, [logf], x, None, part, levels=(8, 10, 12))
    exact = math.log(x.values[-1, 0]) - math.log(x.values[0, 0])
    assert np.all(np.abs(rep.lhs_at_T - exact) < 1e-12)
    assert rep.horizontal_at_T == 0.0
    assert rep.qv_relative < 5e-2
    errs = np.abs(rep.residuals)
    assert np.all(errs[1:] < errs[:-1])
    assert errs[-1] < 1e-3
    # the correction term really is negative: d[X] weighs in with -1/(2 X^2)
    assert np.all(rep.qv_at_T < 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corollary_rejects_a_non_finite_term():
    x, part = _brownian(exponent=8)
    # Y = X passes the qv gate exactly; only the second vertical is infinite
    inf_hess = cylinder(
        lambda t, xv, av: xv[0],
        d=1,
        grad=lambda t, xv, av: np.array([1.0]),
        hess=lambda t, xv, av: np.array([[np.inf]]),
        dt=lambda t, xv, av: 0.0,
        name="inf-hess",
    )
    eta = AdmissibleIntegrand(coordinate(0))
    message = f"non-finite qv term 1/2 D2F : d[X] at level 6, grid time {float(x.times[1])!r}"
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        corollary_decomposition(eta, [inf_hess], x, None, part, levels=(6, 8))


def test_corollary_square_converges_fast():
    x, part = _brownian()
    eta = AdmissibleIntegrand(
        cylinder(
            lambda t, yv, bv: 0.5 * yv[0] ** 2,
            d=1,
            grad=lambda t, yv, bv: np.array([yv[0]]),
            hess=lambda t, yv, bv: np.array([[1.0]]),
            name="y^2/2",
        )
    )
    rep = corollary_decomposition(eta, [_square_functional()], x, None, part, levels=(6, 8, 10))
    errs = np.abs(rep.residuals)
    assert np.all(errs[1:] < errs[:-1])
    assert rep.ratios[0] > 1.5
    assert errs[-1] < 1e-12  # finest level: identical cell sums on both sides


def test_corollary_gate_rejects_look_ahead():
    x, part = _brownian(exponent=8)
    eta = AdmissibleIntegrand(coordinate(0))
    with pytest.raises(HypothesisError):
        corollary_decomposition(eta, [_endpoint_peek().functional], x, None, part)


@pytest.mark.parametrize("state_form", [True, False], ids=["cylinder", "general"])
def test_augment_rejects_a_component_path_on_another_grid_before_any_call(
    state_form, monkeypatch
):
    x, part = _brownian(exponent=8)
    other = BVPath(x.times**2, x.times)  # the same number of points, another grid
    if state_form:
        F = cylinder(lambda t, xv, av: xv[0] * av[0], d=1, m=1,
                     grad=lambda t, xv, av: np.array([av[0]]),
                     hess=lambda t, xv, av: np.zeros((1, 1)),
                     dt=lambda t, xv, av: 0.0, da=lambda t, xv, av: np.array([xv[0]]))
    else:
        F = Functional(lambda t, xp, ap: 0.0, d=1, m=1)
    calls = []
    at = Functional._at
    monkeypatch.setattr(
        Functional, "_at", lambda self, slot, *args: calls.append(slot) or at(self, slot, *args)
    )
    with pytest.raises(GridError):
        augment([F], x, other, part, 8)
    assert calls == []


@pytest.mark.parametrize("state_form", [True, False], ids=["cylinder", "general"])
@pytest.mark.parametrize("bad", ["level", "grid"])
def test_augment_checks_its_level_and_partition_before_any_call(state_form, bad):
    x, part = _brownian(exponent=8)
    calls = []

    def counted(value):
        return lambda t, xv, av: calls.append(1) or value(xv)

    if state_form:
        F = cylinder(counted(lambda xv: xv[0] ** 2), d=1, grad=counted(lambda xv: 2.0 * xv),
                     hess=counted(lambda xv: np.full((1, 1), 2.0)), dt=counted(lambda xv: 0.0))
    else:
        F = Functional(counted(lambda xp: 0.0), d=1)
    level, error = 9, ValueError
    if bad == "grid":
        part, level, error = PartitionSequence(x.times**2, num_levels=8), 8, GridError
    with pytest.raises(error):
        augment([F], x, None, part, level)
    assert calls == []


def _square_norm_d8():
    """A d = 8 Brownian path at N = 2^10, its partition and the cylinder x . x."""
    n, d = 2**10, 8
    times = np.linspace(0.0, 1.0, n + 1)
    z = np.random.default_rng(3).standard_normal((n, d)) * (1.0 / n) ** 0.5
    x = SampledPath(times, np.vstack([np.zeros(d), np.cumsum(z, axis=0)]))
    F = cylinder(lambda t, xv, av: xv @ xv, d=d, grad=lambda t, xv, av: 2.0 * xv,
                 hess=lambda t, xv, av: 2.0 * np.eye(d), dt=lambda t, xv, av: 0.0)
    return x, PartitionSequence(times, num_levels=10), F


def test_augment_holds_one_second_vertical_at_a_time():
    # d = 8, N = 2^10: each integrand's D2F samples are one (N, 64) array,
    # 0.5 MB; the next is sampled before the last is dropped, so eight
    # integrands may hold two of them at once, not eight
    x, part, F = _square_norm_d8()

    def peak(nu):
        tracemalloc.start()
        try:
            augment([F] * nu, x, None, part, 10)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_v2 = x.n_points * x.d * x.d * 8
    assert peak(8) - peak(1) < 2 * one_v2


def test_qv_identity_holds_packed_rows_dot_rows_and_steps():
    # d = 8, nu = 6, N = 2^10: the gate holds two sets of nu(nu + 1)/2 = 21
    # packed rows ([Y] and the weighted [X] integrals), the (nu, N - 1) dot
    # rows of the integrands along v and along w, the (N - 1, d) steps v and
    # w, and the samples; the slack covers Y, the running sums' temporaries
    # and the columns [Y] is formed from.  An (N, d, d) weight block or a
    # (d * d, N - 1) measure (0.5 MB each) alive at once exceeds it.
    x, part, F = _square_norm_d8()
    n_pts, d, nu = x.n_points, x.d, 6
    tracemalloc.start()
    try:
        qv_of_Y_check([AdmissibleIntegrand(F)] * nu, x, part, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = 2 * nu * (nu + 1) // 2 * n_pts * 8
    dot_rows = 2 * nu * (n_pts - 1) * 8
    steps = 2 * (n_pts - 1) * d * 8
    samples = nu * n_pts * d * 8
    assert peak < rows + dot_rows + steps + samples + 5 * 2**16


# ---------------------------------------------------------------------------
# Pinned report bits: neither report has a CLI golden


def _pinned_setup():
    """d = 3, one time-average component, two integrands, products and sums only."""
    n = 2**9
    times = np.linspace(0.0, 1.0, n + 1)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((n, 3)) * (1.0 / n) ** 0.5
    x = SampledPath(times, np.vstack([np.zeros(3), np.cumsum(z, axis=0)]))
    a = time_average_path(x, 0)
    f1 = cylinder(
        lambda t, x, a: x[0] * x[1] + a[0] * x[2] + t * x[0], d=3, m=1,
        grad=lambda t, x, a: np.array([x[1] + t, x[0], a[0]]),
        hess=lambda t, x, a: np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        dt=lambda t, x, a: x[0], da=lambda t, x, a: np.array([x[2]]), name="f1",
    )
    f2 = cylinder(
        lambda t, x, a: x[1] * x[1] + x[2] * x[0] + a[0] * a[0], d=3, m=1,
        grad=lambda t, x, a: np.array([x[2], 2.0 * x[1], x[0]]),
        hess=lambda t, x, a: np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 0.0]]),
        dt=lambda t, x, a: 0.0, da=lambda t, x, a: np.array([2.0 * a[0]]), name="f2",
    )
    eta = cylinder(
        lambda t, y, b: y[0] * y[1] + t * y[0], d=2,
        grad=lambda t, y, b: np.array([y[1] + t, y[0]]),
        hess=lambda t, y, b: np.array([[0.0, 1.0], [1.0, 0.0]]), name="eta",
    )
    return x, a, PartitionSequence(times, 9), [f1, f2], AdmissibleIntegrand(eta)


def _assert_bits(got, pinned):
    got = np.ravel(got)
    assert [float(v).hex() for v in got] == pinned


def test_corollary_report_keeps_its_bits():
    x, a, part, fs, eta = _pinned_setup()
    rep = corollary_decomposition(eta, fs, x, a, part, levels=(5, 7, 9))
    pins = {
        "lhs_at_T": ["-0x1.106bd43f5e691p-4", "-0x1.2a3146f7a95d4p-3", "-0x1.2152e676bb5b3p-2"],
        "ito_at_T": ["-0x1.fae4d3e5f6100p-8", "-0x1.b2e1cbc57e71dp-3", "-0x1.a8e7a36653db4p-2"],
        "horizontal_at_T": ["0x1.035e34eb157e6p-3"],
        "qv_at_T": ["-0x1.96e4711d20904p-3", "-0x1.09f337c0a0ca1p-4", "0x1.d42dc7a95cbb0p-9"],
        "residuals": ["0x1.b2778b18b8dd8p-7", "0x1.497d7861ff680p-8", "0x1.1ea3755d83b80p-9"],
        "ratios": ["0x1.519007076fba2p+1", "0x1.2645701ec5c27p+1"],
        "qv_relative": ["0x1.2f21ebf182824p-7"],
    }
    for name, pinned in pins.items():
        _assert_bits(getattr(rep, name), pinned)


@pytest.mark.parametrize(
    "level, pins",
    [
        (7, {
            "residuals": ["0x1.38e225b0bc150p-5", "0x1.98f054de2b800p-6",
                          "0x1.98f054de2b800p-6", "0x1.465a83924fa70p-6"],
            "relative": ["0x1.532cdec273877p-4"],
            "direct_final": ["0x1.d84fad76699dep-2", "0x1.0891145d1e55ep-2",
                             "0x1.0891145d1e55ep-2", "0x1.a0e721ccb51d5p-2"],
        }),
        # at the grid's own level the identity holds up to rounding, so these
        # residuals record the weighted sums' order to the last bit
        (9, {
            "residuals": ["0x1.0000000000000p-55", "0x1.0000000000000p-53",
                          "0x1.0000000000000p-53", "0x1.8000000000000p-53"],
            "relative": ["0x1.3b36ef1ba77a7p-52"],
            "direct_final": ["0x1.37dd1e20ee977p-1", "0x1.966bdb823cc00p-2",
                             "0x1.966bdb823cc00p-2", "0x1.0422a8e21ead2p-1"],
        }),
    ],
)
def test_qv_of_Y_report_keeps_its_bits(level, pins):
    x, a, part, fs, _ = _pinned_setup()
    rep = qv_of_Y_check([AdmissibleIntegrand(f, a) for f in fs], x, part, level)
    for name, pinned in pins.items():
        _assert_bits(getattr(rep, name), pinned)


def test_report_augment_and_corollary_share_their_compensator_bits():
    # (1 + a) x^2 + t a with a = the time average of x: a clock term, an A
    # term and a QV term weighted by an A-dependent second derivative
    x, part = _brownian(exponent=9)
    a = time_average_path(x, 0)
    F = cylinder(
        lambda t, xv, av: (1.0 + av[0]) * xv[0] ** 2 + t * av[0], d=1, m=1,
        grad=lambda t, xv, av: np.array([2.0 * (1.0 + av[0]) * xv[0]]),
        hess=lambda t, xv, av: np.array([[2.0 * (1.0 + av[0])]]),
        dt=lambda t, xv, av: av[0], da=lambda t, xv, av: np.array([xv[0] ** 2 + t]),
        name="quadratic",
    )
    level = 9  # the grid's own level, where the corollary's QV gate holds
    rep = ito_formula_report(F, x, a, part, level)
    aug = augment([F], x, a, part, level)
    assert aug.bv.values[-1, 1].hex() == (rep.horizontal_at_T + rep.qv_at_T[0]).hex()
    # eta = y has the weight 1.0 everywhere, which keeps every bit
    cor = corollary_decomposition(AdmissibleIntegrand(coordinate(0)), [F], x, a, part, level)
    assert cor.horizontal_at_T.hex() == rep.horizontal_at_T.hex()
    assert cor.qv_at_T[0].hex() == rep.qv_at_T[0].hex()
