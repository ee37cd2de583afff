"""Seeded synthetic path generators.

Every generator is driven by a :class:`GeneratorSpec` and is fully
deterministic: the random kinds use numpy's PCG64 generator with an
explicit seed (never the unseeded platform default), the rest are closed
formulas, so one spec always produces one bit pattern.

Kinds
-----
``brownian``
    Cumulative sums of drift/scale-adjusted standard normal increments,
    step ``drift*T/N + scale*sqrt(T/N)*Z`` with N = base_points.
``smooth``
    A formula in t per component (``;``-separated for d > 1).
``monotone-bv``
    Running left sums of a nonnegative slope profile, one formula per
    component; a strictly negative slope sample is rejected.
``takagi-like``
    Deterministic partial sums of scaled tent waves.  Nowhere smooth, yet
    with nonvanishing dyadic quadratic variation: over a full set of 2^n
    dyadic cells the level-n sums equal scale^2 * T * (1 - 2^-n) exactly,
    because tents finer than the cells vanish at the cell endpoints and the
    coarser slopes multiply like balanced signs.  The wave argument is the
    dyadic index fraction i/N rather than t/T, so the cancellation pattern
    survives the base grid's non-dyadic time spacing T/(N-1); only the
    short final cell falls outside it.
``constant``
    A constant path, the degenerate reference case.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paths import LINEAR, SampledPath

_KINDS = ("brownian", "smooth", "monotone-bv", "takagi-like", "constant")
_DEFAULT_DEPTH = 24


@dataclass(frozen=True)
class GeneratorSpec:
    """Complete, serialisable description of one synthetic path."""

    kind: str
    base_points: int
    horizon: float = 1.0
    d: int = 1
    seed: int = 0
    drift: float = 0.0
    scale: float = 1.0
    expression: str | None = None
    slope: str | None = None
    value: float = 0.0
    depth: int = _DEFAULT_DEPTH

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; pick one of {_KINDS}")
        n = int(self.base_points)
        if n < 2 or n & (n - 1) != 0:
            raise ValueError("base_points must be a power of two (and at least 2)")
        if not 0.0 < self.horizon < np.inf:
            raise ValueError(f"the horizon T must be finite and positive, got {self.horizon}")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.depth < 0:
            raise ValueError(f"generator 'depth' must be nonnegative, got {self.depth}")
        for name in ("expression", "slope"):
            formula = getattr(self, name)
            if formula is not None and not isinstance(formula, str):
                raise ValueError(f"generator '{name}' must be a formula string")
        if self.kind == "smooth" and not self.expression:
            raise ValueError("smooth paths need an expression in t")
        if self.kind == "monotone-bv" and not self.slope:
            raise ValueError("monotone-bv paths need a slope expression in t")


def _component_formulas(text: str, d: int) -> list[str]:
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if len(parts) == 1 and d > 1:
        parts = parts * d
    if len(parts) != d:
        raise ValueError(f"need {d} ;-separated formulas, got {len(parts)}")
    return parts


def _tent(u: np.ndarray) -> np.ndarray:
    """Distance from u to the nearest integer."""
    return np.abs(u - np.round(u))


def tent_sum(u: np.ndarray, depth: int) -> np.ndarray:
    """sum_{m < depth} 2^(-m/2) tent(2^m u) at dyadic-friendly positions u.

    Once every 2^m u is an integer, each finer term is exactly 0.0 too, so
    the sum stops there: any larger depth gives the same bits.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.zeros_like(u)
    for m in range(depth):
        term = 2.0 ** (-0.5 * m) * _tent(np.ldexp(u, m))
        if not term.any():
            break
        out += term
    return out


def generate(spec: GeneratorSpec) -> SampledPath:
    """Sample the path described by ``spec`` on its uniform base grid."""
    n = int(spec.base_points)
    times = np.linspace(0.0, float(spec.horizon), n)
    d = int(spec.d)
    if spec.kind == "brownian":
        # pin the bit generator by name; default_rng's default may drift
        rng = np.random.Generator(np.random.PCG64(int(spec.seed)))
        step = float(spec.horizon) / n
        z = rng.standard_normal((n - 1, d))
        inc = spec.drift * step + spec.scale * np.sqrt(step) * z
        values = np.vstack([np.zeros((1, d)), np.cumsum(inc, axis=0)])
    elif spec.kind == "smooth":
        values = _formula_values(spec.expression, times, d)
    elif spec.kind == "monotone-bv":
        slopes = _formula_values(spec.slope, times, d)
        if np.any(slopes < 0.0):
            raise ValueError("monotone-bv slope profile must be nonnegative")
        cell = slopes[:-1] * np.diff(times)[:, None]
        values = np.vstack([np.zeros((1, d)), np.cumsum(cell, axis=0)])
    elif spec.kind == "takagi-like":
        u = np.arange(n) / n
        col = spec.scale * np.sqrt(float(spec.horizon)) * tent_sum(u, int(spec.depth))
        values = np.repeat(col[:, None], d, axis=1)
    else:  # constant
        values = np.full((n, d), float(spec.value))
    return SampledPath(times, values, LINEAR)


def _formula_values(text: str, times: np.ndarray, d: int) -> np.ndarray:
    from .expressions import compile_expression

    cols = []
    for formula in _component_formulas(text, d):
        fn = compile_expression(formula, ("t",))
        cols.append(fn(times))
    return np.column_stack(cols)


__all__ = ["GeneratorSpec", "generate", "tent_sum"]
