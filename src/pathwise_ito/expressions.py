"""Small symbolic expression helper used by generators and config files.

Expressions are parsed once with sympy against a fixed set of variable
names, checked for stray symbols, and compiled to numpy-vectorised
callables that map equal-shape arrays elementwise, so one call covers a
whole grid.  Formulas are only evaluated, never differentiated: partial
derivatives come from the config as separate formulas.

sympy is imported lazily; nothing here runs unless an expression is
actually used.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True, eq=False)
class CompiledExpression:
    """One scalar formula over named variables, compiled for numpy arrays."""

    text: str
    variables: tuple[str, ...]
    _fn: Callable = field(repr=False)

    def __call__(self, *args) -> np.ndarray:
        if len(args) != len(self.variables):
            raise TypeError(
                f"expression over {self.variables} called with {len(args)} arguments"
            )
        args = [np.asarray(a, dtype=np.float64) for a in args]
        shape = np.broadcast_shapes(*(a.shape for a in args))
        # A domain failure (log(0), 1/0) yields inf or nan without a numpy
        # warning; callers check finiteness and name the failing term.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = np.asarray(self._fn(*args), dtype=np.float64)
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out


def compile_expression(text: str, variables: tuple[str, ...]) -> CompiledExpression:
    """Parse ``text`` over exactly the given variable names.

    Any free symbol outside ``variables`` is rejected, so a typo in a config
    file fails at parse time instead of at evaluation time.
    """
    import sympy
    from sympy.parsing.sympy_parser import parse_expr

    local = {v: sympy.Symbol(v, real=True) for v in variables}
    try:
        expr = parse_expr(text, local_dict=local)
    except Exception as exc:  # sympy's tokenizer raises a mixed bag
        raise ValueError(f"cannot parse expression {text!r}: {exc}") from None
    allowed = set(local.values())
    stray = [str(s) for s in expr.free_symbols if s not in allowed]
    if stray:
        raise ValueError(
            f"expression {text!r} uses unknown names {sorted(stray)}; "
            f"allowed: {list(variables)}"
        )
    fn = sympy.lambdify([local[v] for v in variables], expr, modules="numpy")
    return CompiledExpression(text=text, variables=tuple(variables), _fn=fn)


def state_variables(d: int, m: int) -> tuple[str, ...]:
    """Names (t, x1..xd, a1..am) for instantaneous-state formulas."""
    return ("t",) + tuple(f"x{i + 1}" for i in range(d)) + tuple(
        f"a{k + 1}" for k in range(m)
    )


__all__ = ["CompiledExpression", "compile_expression", "state_variables"]
