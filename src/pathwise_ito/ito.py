"""Pathwise Ito integrals along refining partitions and identities built on them.

The level-n integral of a functional integrand xi = grad_X F(., ., A) is the
Riemann-type sum over completed level-n cells,

    I_n(t) = sum over cells [s, s') with s' <= t of
             xi(s, pre_step(X, n, s)) . (X(s') - X(s)),

where the pre-step path agrees with the level-n stepped approximation before
s and is frozen at X(s) from s on.  Summing completed cells keeps I_n(0) = 0
and makes constant integrands telescope exactly at every partition point; at
t = T it agrees with the sum over all partition points because the final
look-ahead increment is empty.  Between partition points the reported path
is linear interpolation and flagged as such.

On top of the integral sit the full change-of-variables decomposition, the
quadratic-variation identity for vector integrals, the augmented-system
construction that turns integral paths back into functional values, and the
associativity verifier comparing integration against Y with integration
against X under a composed integrand.  All sums run in a fixed order, so
reports are bit-reproducible from run to run.  A NaN or infinite term is
never reported: it raises DomainError naming the term, the level and the
first grid time at which the term's running path is non-finite.

The compensator, integral DF . d(t, A) + 1/2 D2F : d[X]_n, is formed in one
place, ``_compensator``, for the formula report, ``augment`` and the
corollary, which check their own terms.  It and the QV identity for Y take
d[X]_n cell by cell as the rank-two v v^T - w w^T of ``qv._anchored_steps``;
the identity's packed cells come from ``qv._rank_two_cells``, so the packed
layout is decided in qv.py alone.

Cost.  Each slot's route, and so its cost a level, is the rule in the
``functionals`` module docstring.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .functionals import Functional, _combined, _state_slot, bv_coordinate, compose
from .paths import (
    BVPath,
    HypothesisError,
    LINEAR,
    PartitionSequence,
    SampledPath,
    _frozen_from,
    _grid_index,
    _require_finite,
    _require_same_grid,
    _stepped,
    concat_components,
)
from .reduction import map_chunked, ordered_dot, running_sum

_TINY = 1e-30


@dataclass(frozen=True, eq=False)
class AdmissibleIntegrand:
    """An integrand xi(t, X) = grad_X F(t, X, A) packaged with its data.

    ``bv`` is the component path A bound into F; it must carry exactly the
    components F expects, and must be None exactly when F expects none.
    """

    functional: Functional
    bv: BVPath | None = None

    def __post_init__(self) -> None:
        got = 0 if self.bv is None else self.bv.m
        if got != self.functional.m:
            raise ValueError(
                f"integrand data has {got} components, functional wants {self.functional.m}"
            )

    def xi(self, t: float, x) -> np.ndarray:
        """The integrand vector at (t, x)."""
        return self.functional.vertical(t, x, self.bv)


@dataclass(frozen=True, eq=False)
class IntegralResult:
    """Per-level integral paths on the base grid plus Cauchy diagnostics.

    ``values[k]`` holds I_n for ``levels[k]`` at every base grid time;
    entries marked in ``interpolated`` sit between that level's partition
    points and are linear interpolation, not Riemann sums.  ``converged``
    is None when a single level leaves nothing to compare.
    """

    times: np.ndarray
    levels: tuple[int, ...]
    values: np.ndarray
    interpolated: np.ndarray
    cauchy_diffs: np.ndarray
    converged: bool | None
    tol: float
    plain_riemann: bool

    @property
    def final(self) -> np.ndarray:
        """The finest-level integral path."""
        return self.values[-1]

    def at(self, t: float, level: int | None = None) -> float:
        row = -1 if level is None else self.levels.index(level)
        return float(self.values[row, _grid_index(self.times, t)])


def ito_integral(
    xi: AdmissibleIntegrand,
    x: SampledPath,
    partition: PartitionSequence,
    levels: Sequence[int] | int | None = None,
    tol: float = 1e-3,
    plain_riemann: bool = False,
) -> IntegralResult:
    """Level-n Riemann sums of xi against X for each requested level.

    ``plain_riemann`` evaluates xi on the original path instead of the
    pre-step approximations; that variant is a diagnostic for comparing
    the two summation conventions, not the integral this module defines.
    Convergence is a Cauchy check: the last cross-level difference must
    stay below tol relative to the finest level's sup norm.  A cell term
    or running sum that is non-finite raises DomainError naming its level
    and the cell's left grid time.

    Every level fills all N rows of ``values`` (``np.interp`` between its
    partition points): O(N) a level, ~2 ms of ~7 ms for a cylinder's 14
    levels at N = 2^14 on a 2-CPU x86 host.  The CLI writes only partition
    rows, but ``values`` is public and :func:`associativity_check`'s
    ``max_residuals`` reads every row, so the fill stays.
    """
    _require_same_grid(x, partition)
    if x.interpolation != LINEAR:
        raise ValueError("the integrator path must be continuous (LINEAR)")
    if xi.functional.d != x.d:
        raise ValueError("integrand and path dimensions differ")
    if xi.bv is not None:
        _require_same_grid(x, xi.bv)
    lv = partition._level_list(levels)
    n_pts = x.n_points
    values = np.empty((len(lv), n_pts))
    interp = np.ones((len(lv), n_pts), dtype=bool)
    # A state-only integrand, and any integrand under the plain convention, is
    # evaluated once at the finest level's left partition points.  The levels
    # nest, so level n's left points are every (stride(n) // stride(finest))-th.
    sample = _sampled if plain_riemann else _state_slot
    at_lefts = sample(xi.functional, "vertical", x, xi.bv, partition.indices(lv[-1])[:-1])
    if at_lefts is None:
        # Every level fills before any term is summed, finest first: its left
        # points hold every coarser level's, so a domain error names the same
        # first bad time as on the state route.
        per_cell = {}
        for n in reversed(lv):
            idx = partition.indices(n)
            stepped = _stepped(x, partition, n)
            def fill(out):
                for j in range(out.shape[0]):
                    pre = _frozen_from(stepped, idx[j], x._row(idx[j]))
                    out[j] = xi.xi(float(x.times[idx[j]]), pre)
            per_cell[n] = map_chunked(fill, np.empty((idx.shape[0] - 1, x.d)))
    for row, n in enumerate(lv):
        idx = partition.indices(n)
        pts = x.times[idx]
        dx = x.values[idx[1:]] - x.values[idx[:-1]]
        step = partition.stride(n) // partition.stride(lv[-1])
        xi_rows = per_cell[n] if at_lefts is None else at_lefts[::step]
        with np.errstate(invalid="ignore", over="ignore"):
            at_points = running_sum(ordered_dot(xi_rows, dx))
        _require_finite("ito term xi . dX", at_points[1:], pts, f"at level {n}")
        values[row] = np.interp(x.times, pts, at_points)
        values[row, idx] = at_points
        interp[row, idx] = False
    diffs = (
        np.max(np.abs(np.diff(values, axis=0)), axis=1)
        if len(lv) > 1
        else np.zeros(0)
    )
    converged: bool | None = None
    if diffs.shape[0]:
        scale = max(float(np.max(np.abs(values[-1]))), _TINY)
        converged = bool(diffs[-1] <= tol * scale)
    for arr in (values, interp, diffs):
        arr.setflags(write=False)
    return IntegralResult(
        times=x.times,
        levels=lv,
        values=values,
        interpolated=interp,
        cauchy_diffs=diffs,
        converged=converged,
        tol=float(tol),
        plain_riemann=bool(plain_riemann),
    )


# ---------------------------------------------------------------------------
# Change-of-variables decomposition


def _sampled(F: Functional, slot: str, x: SampledPath, a: BVPath | None, rows=None) -> np.ndarray:
    """F's ``slot`` at grid rows of x (every grid time when None), along axis 0.

    ``slot`` is evaluate, vertical, vertical2 or horizontal.  A state-only
    functional runs once on the grid's state arrays; any other is called
    point by point, in row order.
    """
    out = _state_slot(F, slot, x, a, rows)
    if out is None:
        method = getattr(F, slot)
        times = x.times if rows is None else x.times[rows]
        out = np.array([method(float(t), x, a) for t in times], dtype=np.float64)
    return out


def _compensator(fs, x: SampledPath, a: BVPath | None, partition, levels, weights=None):
    """Unchecked running paths (horiz, qv): horiz[l] of integral w DF_l . d(t, A) and
    qv[k, l] of 1/2 integral w D2F_l : d[X]_n at n = levels[k]; w = weights[:, l] or 1.
    A base cell adds +0.0 + sum_ij D2F_ij (v_i v_j - w_i w_j) in row-major (i, j) order,
    D2F at its left end and (v, w) its ``_anchored_steps``.  The block stays row-wise, not
    ``_rank_two_cells``' packed rows: those give the same bits, but hold d(d + 1)/2 rows
    of N - 1 a level and ran no faster."""
    from .qv import _anchored_steps
    from .stieltjes import cumulative_stieltjes, measures_with_clock

    _require_same_grid(x, partition)  # the grid and the levels before any slot is sampled
    for n in levels:
        partition._check_level(n)

    def term(F, slot, l):  # F's slot at every grid time, one row each, weighted
        out = _sampled(F, slot, x, a).reshape(x.n_points, -1)
        return out if weights is None else out * weights[:, l, None]

    clock = measures_with_clock(a if a is not None else BVPath.empty(x.times))
    qv = np.empty((len(levels), len(fs), x.n_points))
    with np.errstate(invalid="ignore", over="ignore"):
        horiz = [cumulative_stieltjes(term(F, "horizontal", l), clock) for l, F in enumerate(fs)]
        for l, F in enumerate(fs):  # one D2F at a time, for every level
            hess = term(F, "vertical2", l)[:-1].reshape(-1, x.d, x.d)
            for k, n in enumerate(levels):
                v, w = _anchored_steps(x, partition, n)
                cells = np.zeros(x.n_points - 1)
                for i in range(x.d):
                    terms = hess[:, i] * (v[:, i, None] * v - w[:, i, None] * w)
                    for j in range(x.d):
                        cells += terms[:, j]
                qv[k, l] = 0.5 * running_sum(cells)
    return horiz, qv


@dataclass(frozen=True, eq=False)
class FormulaReport:
    """Per-level terms of the change-of-variables decomposition at T.

    residuals[k] = lhs - (ito_at_T[k] + horizontal_at_T + qv_at_T[k]);
    the horizontal Stieltjes term is level-independent because it runs on
    the base grid, while the integral and QV terms depend on the level.
    """

    levels: tuple[int, ...]
    lhs: float
    ito_at_T: np.ndarray
    horizontal_at_T: float
    qv_at_T: np.ndarray
    residuals: np.ndarray


def ito_formula_report(
    F: Functional,
    x: SampledPath,
    a: BVPath | None,
    partition: PartitionSequence,
    levels: Sequence[int] | int | None = None,
) -> FormulaReport:
    """Evaluate all four terms of the decomposition and their residuals.

    Each level's QV is formed once, for its QV term; whether [X] settles
    across levels is :func:`~pathwise_ito.qv.qv_converged`'s question.
    A non-finite term raises DomainError naming the term, the level and
    the first grid time at which its running path is non-finite.
    """
    lv = partition._level_list(levels)
    F_T, F_0 = F.evaluate(x.horizon, x, a), F.evaluate(0.0, x, a)
    lhs = F_T - F_0
    ito_at_T = ito_integral(AdmissibleIntegrand(F, a), x, partition, lv).values[:, -1].copy()
    (horiz,), qvs = _compensator([F], x, a, partition, lv)
    # F(t) - F(0) turns non-finite at 0 if F(0) is, else at T
    first = f"at level {lv[0]}"
    _require_finite("lhs term F(T) - F(0)", np.array([F_0, lhs]), x.times[[0, -1]], first)
    _require_finite("horizontal term DF . d(t, A)", horiz, x.times, first)
    for n, (qv,) in zip(lv, qvs):
        _require_finite("qv term 1/2 D2F : d[X]", qv, x.times, f"at level {n}")
    qv_at_T = qvs[:, 0, -1].copy()
    residuals = lhs - (ito_at_T + horiz[-1] + qv_at_T)
    for arr in (ito_at_T, qv_at_T, residuals):
        arr.setflags(write=False)
    return FormulaReport(
        levels=lv,
        lhs=float(lhs),
        ito_at_T=ito_at_T,
        horizontal_at_T=float(horiz[-1]),
        qv_at_T=qv_at_T,
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# Vector integrals and their quadratic variation


def build_Y(
    xis: Sequence[AdmissibleIntegrand],
    x: SampledPath,
    partition: PartitionSequence,
    levels: Sequence[int] | int | None = None,
) -> SampledPath:
    """Integral paths Y_l(t) = integral of xi_(l) dX as one continuous path.

    Uses the finest requested level for the values; Y(0) = 0 always.
    """
    xis = list(xis)
    if not xis:
        raise ValueError("need at least one integrand")
    cols = [ito_integral(xi, x, partition, levels).final for xi in xis]
    return SampledPath(x.times, np.column_stack(cols), LINEAR)


@dataclass(frozen=True, eq=False)
class QvIdentityReport:
    """Direct [Y] against the integrand-weighted [X] at one level.

    ``residuals[k, l]`` is the max over grid times of the absolute entry
    difference; ``relative`` divides the worst residual by the largest
    final [Y] entry, the scale the associativity gate compares against.
    """

    level: int
    residuals: np.ndarray
    relative: float
    direct_final: np.ndarray


def _xi_samples(xis: Sequence[AdmissibleIntegrand], x: SampledPath) -> np.ndarray:
    return np.stack([_sampled(xi.functional, "vertical", x, xi.bv) for xi in xis])


def _weighted_qv_paths(
    sam: np.ndarray, x: SampledPath, partition: PartitionSequence, level: int
) -> np.ndarray:
    """Packed rows of t -> integral of xi_(i)^T d[X]_n xi_(j): row ``_entry_rows(nu)[i, j]``
    for each pair i <= j, summing (xi_i . v)(xi_j . v) - (xi_i . w)(xi_j . w) over the base
    cells, xi at each cell's left end and (v, w) its ``_anchored_steps``."""
    from .qv import _anchored_steps, _rank_two_cells

    v, w = _anchored_steps(x, partition, level)
    lefts = sam[:, :-1]
    return running_sum(_rank_two_cells(ordered_dot(lefts, v), ordered_dot(lefts, w)))


def _qv_identity(
    y: SampledPath, sam: np.ndarray, x: SampledPath, partition: PartitionSequence, level: int
) -> QvIdentityReport:
    """Compare qv_matrix of a given Y against [X] integrals weighted by sam, row by
    packed row; ``_entry_rows`` maps each row's max over time to its (i, j) residual."""
    from .qv import _entry_rows, qv_matrix

    direct = qv_matrix(y, partition, level)
    gap = _weighted_qv_paths(sam, x, partition, level)
    np.subtract(direct.entries, gap, out=gap)
    residuals = np.max(np.abs(gap, out=gap), axis=1)[_entry_rows(y.d)]
    scale = max(float(np.max(np.abs(direct.final()))), _TINY)
    residuals.setflags(write=False)
    return QvIdentityReport(
        level=int(level),
        residuals=residuals,
        relative=float(np.max(residuals) / scale),
        direct_final=direct.final(),
    )


def qv_of_Y_check(
    xis: Sequence[AdmissibleIntegrand],
    x: SampledPath,
    partition: PartitionSequence,
    level: int,
) -> QvIdentityReport:
    """Compare qv_matrix of the built Y against the weighted [X] integrals.

    The weights sample each integrand along the true path X.  The identity
    is the standing hypothesis of the associativity statement, so its
    residual gates that check.
    """
    xis = list(xis)
    y = build_Y(xis, x, partition, level)
    return _qv_identity(y, _xi_samples(xis, x), x, partition, level)


# ---------------------------------------------------------------------------
# Augmentation: turning integral paths back into functional values


@dataclass(frozen=True, eq=False)
class AugmentedSystem:
    """Extended data (A, A_new) and recentered functionals representing Y.

    Each recentered functional reads its own appended component from the
    passed path data, so its horizontal derivative in that direction is
    the constant -1 by construction, not by sampling.
    """

    functionals: tuple[Functional, ...]
    bv: BVPath
    constants: np.ndarray
    base_m: int
    level: int

    @property
    def nu(self) -> int:
        return len(self.functionals)

    def representation_path(self, x: SampledPath) -> SampledPath:
        """Y via the recentered functionals on the extended data."""
        vals = [_sampled(F, "evaluate", x, self.bv) for F in self.functionals]
        return SampledPath(x.times, np.column_stack(vals), LINEAR)


def _augmented_functional(F: Functional, ell: int, m: int, nu: int, c: float) -> Functional:
    """F - c - a_(m+ell) on the extended data: the -1 horizontal is a_(m+ell)'s own slope."""
    a_new = bv_coordinate(m + ell, m + nu, F.d)

    def minus_a(slot):
        return lambda get: get(0, slot) - get(1, slot)

    rules = {slot: minus_a(slot) for slot in ("vertical", "vertical2")}
    rules["evaluate"] = lambda get: get(0, "evaluate") - c - get(1, "evaluate")
    # F reads no appended component, so its horizontal is 0 along them
    pad = ((0, 0), (0, nu))
    rules["horizontal"] = lambda get: np.pad(get(0, "horizontal"), pad) - get(1, "horizontal")
    return _combined(
        rules, F.d, m + nu, F.x_domain, f"{F.name} recentered", (F, a_new),
        point_args=lambda t, x, ab: [(x, ab.slice_components(0, m) if m else None), (x, ab)],
        state_args=lambda t, X, AB: [(X, AB[:, :m]), (X, AB)],
    )


def augment(
    f_vec: Sequence[Functional],
    x: SampledPath,
    a: BVPath | None,
    partition: PartitionSequence,
    level: int,
) -> AugmentedSystem:
    """Append the compensator components and recenter the functionals.

    The new component for each functional accumulates its horizontal
    Stieltjes terms and half the second-vertical QV terms at the given
    level; subtracting it and the frozen time-zero value leaves exactly
    the integral part, so the recentered functional represents Y.  A
    non-finite compensator raises DomainError naming it, level and time.
    """
    f_vec = list(f_vec)
    if not f_vec:
        raise ValueError("need at least one functional")
    m = f_vec[0].m
    if any(F.m != m or F.d != x.d for F in f_vec):
        raise ValueError("functionals must share the path dimension and component count")
    got = 0 if a is None else a.m
    if got != m:
        raise ValueError(f"component path carries {got} columns, functionals want {m}")
    horiz, (qv,) = _compensator(f_vec, x, a, partition, [level])
    with np.errstate(invalid="ignore", over="ignore"):
        cols = np.column_stack([h + q for h, q in zip(horiz, qv)])
    for ell, F in enumerate(f_vec):
        name = f"compensator a{m + ell + 1} of {F.name}"
        _require_finite(name, cols[:, ell], x.times, f"at level {level}")
    a_tilde = concat_components(a, BVPath(x.times, cols))
    constants = np.array([F.evaluate(0.0, x, a) for F in f_vec])
    functionals = tuple(
        _augmented_functional(F, ell, m, len(f_vec), float(constants[ell]))
        for ell, F in enumerate(f_vec)
    )
    constants.setflags(write=False)
    return AugmentedSystem(
        functionals=functionals,
        bv=a_tilde,
        constants=constants,
        base_m=m,
        level=int(level),
    )


# ---------------------------------------------------------------------------
# Associativity


def _shared_component_path(xis: Sequence[AdmissibleIntegrand]) -> BVPath | None:
    a = xis[0].bv
    for xi in xis[1:]:
        same = (xi.bv is a) or (
            xi.bv is not None
            and a is not None
            and np.array_equal(xi.bv.times, a.times)
            and np.array_equal(xi.bv.values, a.values)
        )
        if not same:
            raise ValueError("all integrands must share one component path")
    return a


@dataclass(frozen=True, eq=False)
class AssocReport:
    """Both sides of the associativity identity per level.

    ``ratios[k]`` is residual[k] / residual[k+1] at T (> 1 means decay);
    ``max_residuals`` takes the worst gap over all base grid times, where
    both sides are interpolated between their partition points.
    """

    levels: tuple[int, ...]
    lhs_at_T: np.ndarray
    rhs_at_T: np.ndarray
    residuals_at_T: np.ndarray
    max_residuals: np.ndarray
    ratios: np.ndarray
    qv_report: QvIdentityReport
    lhs: IntegralResult
    rhs: IntegralResult


def _qv_gate(relative: float, tol: float, what: str, note: str = "") -> None:
    """HypothesisError unless ``relative <= tol``: a NaN on either side fails."""
    if not relative <= tol:
        message = f"quadratic-variation {what} fails its gate: relative residual"
        raise HypothesisError(
            f"{message} {relative:.3e} > {tol:.3e}{note}", residual=relative, tol=tol
        )


def _residual_ratios(residuals: np.ndarray) -> np.ndarray:
    prev, cur = residuals[:-1], residuals[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(cur > 0.0, prev / np.where(cur > 0.0, cur, 1.0), np.inf)
    return out


def associativity_check(
    eta: AdmissibleIntegrand,
    xis: Sequence[AdmissibleIntegrand],
    x: SampledPath,
    partition: PartitionSequence,
    levels: Sequence[int] | int | None = None,
    tol: float = 1e-3,
    qv_gate_tol: float = 5e-2,
) -> AssocReport:
    """Integrating eta against Y versus the composed integrand against X.

    Y is built at the finest requested level; so are the extended data and
    the recentered functionals that express Y as a functional of X.  The
    check first verifies the quadratic-variation identity for Y and stops
    with HypothesisError when its relative residual exceeds the gate: the
    identity under test presupposes it.
    """
    xis = list(xis)
    lv = partition._level_list(levels)
    finest = lv[-1]
    if eta.functional.d != len(xis):
        raise ValueError("eta must drive exactly one component per integrand")
    a = _shared_component_path(xis)
    y = build_Y(xis, x, partition, finest)
    gate = _qv_identity(y, _xi_samples(xis, x), x, partition, finest)
    note = "; the associativity identity presupposes it"
    _qv_gate(gate.relative, qv_gate_tol, "identity for Y", note)
    aug = augment([xi.functional for xi in xis], x, a, partition, finest)
    H = compose(eta.functional, aug.functionals)
    zeta = AdmissibleIntegrand(H, concat_components(aug.bv, eta.bv))
    lhs = ito_integral(eta, y, partition, lv, tol)
    rhs = ito_integral(zeta, x, partition, lv, tol)
    lhs_T = lhs.values[:, -1].copy()
    rhs_T = rhs.values[:, -1].copy()
    residuals = np.abs(lhs_T - rhs_T)
    max_res = np.max(np.abs(lhs.values - rhs.values), axis=1)
    ratios = _residual_ratios(residuals)
    for arr in (lhs_T, rhs_T, residuals, max_res, ratios):
        arr.setflags(write=False)
    return AssocReport(
        levels=lv,
        lhs_at_T=lhs_T,
        rhs_at_T=rhs_T,
        residuals_at_T=residuals,
        max_residuals=max_res,
        ratios=ratios,
        qv_report=gate,
        lhs=lhs,
        rhs=rhs,
    )


# ---------------------------------------------------------------------------
# The corollary: integrating against Y(t) = F(t, X, A) directly


@dataclass(frozen=True, eq=False)
class CorollaryReport:
    """The three-term decomposition of an integral against Y = F(., X, A).

    residuals[k] = lhs_at_T[k] - (ito_at_T[k] + horizontal_at_T + qv_at_T[k]).
    """

    levels: tuple[int, ...]
    lhs_at_T: np.ndarray
    ito_at_T: np.ndarray
    horizontal_at_T: float
    qv_at_T: np.ndarray
    residuals: np.ndarray
    ratios: np.ndarray
    qv_relative: float


def corollary_decomposition(
    eta: AdmissibleIntegrand,
    f_vec: Sequence[Functional],
    x: SampledPath,
    a: BVPath | None,
    partition: PartitionSequence,
    levels: Sequence[int] | int | None = None,
    qv_gate_tol: float = 5e-2,
) -> CorollaryReport:
    """Integral of eta against Y(t) = F(t, X, A) via terms in X.

    The right-hand side integrates the composed integrand against X and
    adds eta-weighted horizontal and second-vertical QV corrections, the
    latter against the level's own [X].  The same quadratic-variation
    hypothesis as in the associativity check gates the comparison, with Y
    evaluated directly rather than built from integrals.  A non-finite term
    raises DomainError as in :func:`ito_formula_report`.
    """
    f_vec = list(f_vec)
    lv = partition._level_list(levels)
    if eta.functional.d != len(f_vec):
        raise ValueError("eta must drive exactly one component per functional")
    y = SampledPath(x.times, np.column_stack([_sampled(F, "evaluate", x, a) for F in f_vec]), LINEAR)
    sam = np.stack([_sampled(F, "vertical", x, a) for F in f_vec])
    qv_relative = _qv_identity(y, sam, x, partition, lv[-1]).relative
    _qv_gate(qv_relative, qv_gate_tol, "hypothesis for Y = F(., X, A)")
    eta_samples = _sampled(eta.functional, "vertical", y, eta.bv)
    zeta = AdmissibleIntegrand(compose(eta.functional, f_vec), concat_components(a, eta.bv))
    lhs_T = ito_integral(eta, y, partition, lv).values[:, -1].copy()
    ito_T = ito_integral(zeta, x, partition, lv).values[:, -1].copy()
    horizs, qvs = _compensator(f_vec, x, a, partition, lv, eta_samples)
    with np.errstate(invalid="ignore", over="ignore"):  # summed in functional order onto +0.0
        horiz = sum(horizs, np.zeros(x.n_points))
        qvs = [sum(qv, np.zeros(x.n_points)) for qv in qvs]
    _require_finite("horizontal term DF . d(t, A)", horiz, x.times, f"at level {lv[0]}")
    for n, qv in zip(lv, qvs):
        _require_finite("qv term 1/2 D2F : d[X]", qv, x.times, f"at level {n}")
    qv_T = np.array([qv[-1] for qv in qvs])
    residuals = np.abs(lhs_T - (ito_T + horiz[-1] + qv_T))
    ratios = _residual_ratios(residuals)
    for arr in (lhs_T, ito_T, qv_T, residuals, ratios):
        arr.setflags(write=False)
    return CorollaryReport(
        levels=lv,
        lhs_at_T=lhs_T,
        ito_at_T=ito_T,
        horizontal_at_T=float(horiz[-1]),
        qv_at_T=qv_T,
        residuals=residuals,
        ratios=ratios,
        qv_relative=qv_relative,
    )


__all__ = [
    "AdmissibleIntegrand",
    "AssocReport",
    "AugmentedSystem",
    "CorollaryReport",
    "FormulaReport",
    "HypothesisError",
    "IntegralResult",
    "QvIdentityReport",
    "associativity_check",
    "augment",
    "build_Y",
    "corollary_decomposition",
    "ito_formula_report",
    "ito_integral",
    "qv_of_Y_check",
]
