"""Small expression compiler used by generators and config files.

A formula is parsed with ``ast``, checked against a whitelist of names and
node types, and compiled into numpy closures that map equal-shape arrays
elementwise, so one call covers a whole grid; the text never reaches
``eval``.  Formulas evaluate in the order written and are never
differentiated: partial derivatives come from the config as formulas.
"""
from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_FUNCTIONS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
    "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan, "abs": np.abs,
}
_CONSTANTS = {"pi": math.pi, "E": math.e}
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow,
              ast.UAdd: operator.pos, ast.USub: operator.neg}


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
        out = np.where(np.isnan(out), np.nan, out)  # SIMD and scalar loops differ in NaN sign
        if out.shape != shape:
            out = np.broadcast_to(out, shape).copy()
        return out


def _apply(op: Callable, *operands):
    """A closure over the argument tuple, or the value if every operand is constant."""
    if any(callable(o) for o in operands):
        get = [o if callable(o) else (lambda args, c=o: c) for o in operands]
        if len(get) == 1:
            (f,) = get
            return lambda args: op(f(args))
        f, g = get
        return lambda args: op(f(args), g(args))
    if op is operator.pow and all(type(v) is int for v in operands):
        if operands[1] * math.log2(abs(operands[0]) or 1) > 1024:  # too big for a float
            raise OverflowError("{}**{} exceeds the float range".format(*operands))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = op(*operands)
    float(value)  # a complex value, or an int past the float range, fails here
    return value


def compile_expression(text: str, variables: tuple[str, ...]) -> CompiledExpression:
    """Parse ``text`` over exactly the given variable names.

    A name outside ``variables``, ``pi``, ``E`` and the functions is rejected,
    so a typo in a config file fails at parse time, not at evaluation time.
    """
    index = {v: i for i, v in enumerate(variables)}

    def build(node):
        match node:
            case ast.Constant(value=value) if type(value) in (int, float):
                return _apply(operator.pos, value)
            case ast.Name(id=name) if name in index:
                return lambda args, i=index[name]: args[i]
            case ast.Name(id=name) if name in _CONSTANTS:
                return _CONSTANTS[name]
            case ast.UnaryOp(op=op) | ast.BinOp(op=op) if type(op) in _OPERATORS:
                parts = [build(c) for c in ast.iter_child_nodes(node) if c is not op]
                return _apply(_OPERATORS[type(op)], *parts)
            case ast.Call(func=ast.Name(id=name), args=[x], keywords=[]) if name in _FUNCTIONS:
                arg = build(x)  # a constant reaches numpy as a float: abs(-2) is 2.0
                return _apply(_FUNCTIONS[name], arg if callable(arg) else float(arg))
        raise ValueError(f"{ast.unparse(node)!r} is not allowed")

    try:
        tree = ast.parse(text, mode="eval").body
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        stray = names - index.keys() - _CONSTANTS.keys() - _FUNCTIONS.keys()
        fn = None if stray else build(tree)
    except (SyntaxError, TypeError, ValueError, ArithmeticError,
            RecursionError, MemoryError) as exc:
        reason = str(exc) or type(exc).__name__
        raise ValueError(f"cannot parse expression {text!r}: {reason}") from None
    if stray:
        raise ValueError(
            f"expression {text!r} uses unknown names {sorted(stray)}; "
            f"allowed: {list(variables)}"
        )
    run = fn if callable(fn) else lambda args: fn
    return CompiledExpression(text, tuple(variables), lambda *args: run(args))


def state_variables(d: int, m: int) -> tuple[str, ...]:
    """Names (t, x1..xd, a1..am) for instantaneous-state formulas."""
    return ("t",) + tuple(f"x{i + 1}" for i in range(d)) + tuple(
        f"a{k + 1}" for k in range(m)
    )


__all__ = ["CompiledExpression", "compile_expression", "state_variables"]
