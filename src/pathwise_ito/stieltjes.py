"""Left-endpoint Stieltjes sums against sampled integrators of finite variation.

A measure is stored through its increments over the grid cells.  Integrals
are always the left-endpoint sums

    integral_0^t f dA  =  sum_{t_j < t} f(t_j) (A(t_{j+1}) - A(t_j)),

with the upper limit restricted to grid points.  The left-endpoint choice is
deliberate and shared with the Ito sums: the integrand is only ever read at
times where its inputs are already known, and the two notions coincide when
the integrator has finite variation.  Mixing endpoint conventions between
the two would silently break that agreement.

An R^r-valued integrator is one measure with r rows of increments; f is
then (N, r), and the rows' left-endpoint sums are added in row order onto
+0.0.  Each change-of-variables term is one such integral: the horizontal
term against (t, A_1, ..., A_m) (:func:`measures_with_clock`), the
second-order term against the d * d entries of [X], row-major
(``qv.qv_measures``).  A scalar measure is the one-row case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import BVPath, GridError, SampledPath, _grid_index, _validate_grid
from .reduction import running_sum


@dataclass(frozen=True, eq=False)
class StieltjesMeasure:
    """Grid increments dA of a finite-variation integrator on [0, T].

    ``increments`` is (N-1,) for a scalar integrator and (r, N-1), row k
    holding dA_k, for an R^r-valued one.
    """

    times: np.ndarray
    increments: np.ndarray

    def __post_init__(self) -> None:
        t = _validate_grid(self.times)
        inc = np.ascontiguousarray(np.asarray(self.increments, dtype=np.float64))
        if inc.ndim not in (1, 2) or inc.shape[-1] != t.shape[0] - 1:
            raise GridError("need one increment per grid cell")
        t.setflags(write=False)
        inc.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "increments", inc)

    def cumulative(self) -> np.ndarray:
        """A(t) - A(0) on the grid (one row per component), from the increments."""
        return running_sum(self.increments)


def total_variation(a: BVPath | SampledPath | StieltjesMeasure, i: int = 0) -> float:
    """Total variation of component i over the full grid (every row, for a measure)."""
    if isinstance(a, StieltjesMeasure):
        return float(np.sum(np.abs(a.increments)))
    return float(np.sum(np.abs(np.diff(a.values[:, i]))))


def _as_sample_array(f, shape: tuple[int, ...]) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != shape:
        raise GridError(f"integrand must be sampled at all grid points, shape {shape}")
    return f


def cumulative_stieltjes(f, mu: StieltjesMeasure) -> np.ndarray:
    """All partial integrals t_k -> integral_0^{t_k} f . dA as one array.

    ``f`` is (N,) against a scalar measure and (N, r) against r rows; the
    rows' left-endpoint sums are added in row order onto +0.0.
    """
    n = mu.times.shape[0]
    f = _as_sample_array(f, (n,) + mu.increments.shape[:-1])
    acc = np.zeros(n)
    for col, inc in zip(f.reshape(n, -1).T, mu.increments.reshape(-1, n - 1)):
        acc += running_sum(col[:-1] * inc)
    return acc


def stieltjes_integral(f, mu: StieltjesMeasure, t: float | None = None) -> float:
    """Left-endpoint integral of sampled f against dA up to grid time t."""
    cum = cumulative_stieltjes(f, mu)
    if t is None:
        return float(cum[-1])
    return float(cum[_grid_index(mu.times, t)])


@dataclass(frozen=True, eq=False)
class AssociativityResidual:
    """Gap between integrating against dB and against g dA, B = int g dA."""

    max_abs: float
    at_time: float
    b_values: np.ndarray

    @property
    def ok(self) -> bool:
        return self.max_abs == 0.0


def stieltjes_associativity_check(f, g, mu: StieltjesMeasure) -> AssociativityResidual:
    """Compare int f dB with int f g dA over every upper limit, mu scalar.

    B is built from the same left-endpoint sums, so the two sides contain
    the same products grouped differently; the residual only picks up
    floating-point regrouping, and is exactly zero whenever the products
    f(t_j) g(t_j) dA_j are exact (e.g. step functions with dyadic values).
    """
    shape = (mu.times.shape[0],)
    f = _as_sample_array(f, shape)
    g = _as_sample_array(g, shape)
    b_inc = g[:-1] * mu.increments
    lhs = running_sum(f[:-1] * b_inc)
    rhs = running_sum((f * g)[:-1] * mu.increments)
    gap = np.abs(lhs - rhs)
    k = int(np.argmax(gap))
    return AssociativityResidual(
        max_abs=float(gap[k]),
        at_time=float(mu.times[k]),
        b_values=running_sum(b_inc),
    )


def measures_with_clock(a: BVPath) -> StieltjesMeasure:
    """The R^(m+1)-valued measure with rows (dt, dA_1, ..., dA_m)."""
    return StieltjesMeasure(a.times, np.vstack([np.diff(a.times), np.diff(a.values, axis=0).T]))


__all__ = [
    "StieltjesMeasure",
    "AssociativityResidual",
    "cumulative_stieltjes",
    "stieltjes_integral",
    "stieltjes_associativity_check",
    "total_variation",
    "measures_with_clock",
]
