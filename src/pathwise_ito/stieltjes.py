"""Left-endpoint Stieltjes sums against sampled integrators of finite variation.

A measure is stored through its increments over the grid cells.  Integrals
are always the left-endpoint sums

    integral_0^t f dA  =  sum_{t_j < t} f(t_j) (A(t_{j+1}) - A(t_j)),

with the upper limit restricted to grid points.  The left-endpoint choice is
deliberate and shared with the Ito sums: the integrand is only ever read at
times where its inputs are already known, and the two notions coincide when
the integrator has finite variation.  Mixing endpoint conventions between
the two would silently break that agreement.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import BVPath, GridError, SampledPath, _grid_index, _validate_grid
from .reduction import running_sum


@dataclass(frozen=True, eq=False)
class StieltjesMeasure:
    """Grid increments dA of a finite-variation integrator on [0, T]."""

    times: np.ndarray
    increments: np.ndarray

    def __post_init__(self) -> None:
        t = _validate_grid(self.times)
        inc = np.ascontiguousarray(np.asarray(self.increments, dtype=np.float64))
        if inc.ndim != 1 or inc.shape[0] != t.shape[0] - 1:
            raise GridError("need one increment per grid cell")
        t.setflags(write=False)
        inc.setflags(write=False)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "increments", inc)

    @classmethod
    def clock(cls, times: np.ndarray) -> "StieltjesMeasure":
        """The measure dt of the running clock A_0(t) = t."""
        times = np.asarray(times, dtype=np.float64)
        return cls(times, np.diff(times))

    @classmethod
    def from_component(cls, a: BVPath | SampledPath, i: int = 0) -> "StieltjesMeasure":
        return cls(a.times, np.diff(a.values[:, i]))

    @classmethod
    def from_samples(cls, times: np.ndarray, values: np.ndarray) -> "StieltjesMeasure":
        values = np.asarray(values, dtype=np.float64)
        return cls(times, np.diff(values))

    def cumulative(self) -> np.ndarray:
        """A(t) - A(0) on the grid, consistent with the stored increments."""
        return running_sum(self.increments)

    def total_variation(self) -> float:
        return float(np.sum(np.abs(self.increments)))


def total_variation(a: BVPath | SampledPath | StieltjesMeasure, i: int = 0) -> float:
    """Total variation of one component over the full grid."""
    if isinstance(a, StieltjesMeasure):
        return a.total_variation()
    return float(np.sum(np.abs(np.diff(a.values[:, i]))))


def _as_sample_array(f, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (n,):
        raise GridError(f"integrand must be sampled at all {n} grid points")
    return f


def cumulative_stieltjes(f, mu: StieltjesMeasure) -> np.ndarray:
    """All partial integrals t_k -> integral_0^{t_k} f dA as one array."""
    f = _as_sample_array(f, mu.times.shape[0])
    return running_sum(f[:-1] * mu.increments)


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
    """Compare int f dB with int f g dA over every upper limit.

    B is built from the same left-endpoint sums, so the two sides contain
    the same products grouped differently; the residual only picks up
    floating-point regrouping, and is exactly zero whenever the products
    f(t_j) g(t_j) dA_j are exact (e.g. step functions with dyadic values).
    """
    n = mu.times.shape[0]
    f = _as_sample_array(f, n)
    g = _as_sample_array(g, n)
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


def measures_with_clock(a: BVPath) -> list[StieltjesMeasure]:
    """The clock measure dt followed by dA_1 ... dA_m."""
    out = [StieltjesMeasure.clock(a.times)]
    for i in range(a.m):
        out.append(StieltjesMeasure.from_component(a, i))
    return out


__all__ = [
    "StieltjesMeasure",
    "AssociativityResidual",
    "cumulative_stieltjes",
    "stieltjes_integral",
    "stieltjes_associativity_check",
    "total_variation",
    "measures_with_clock",
]
