"""The formula compiler: its grammar, its errors, and its bits.

Formulas come from config files and command lines, so the compiler must run
no code a formula names, must turn every construct outside its grammar into
bad input (exit 2), and must give the same bits as Python evaluating the
text over numpy arrays.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathwise_ito
from pathwise_ito.cli import cli_main
from pathwise_ito.expressions import compile_expression

VARIABLES = ("t", "x1", "x2", "x3", "a1", "a2")
FUNCTIONS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
    "tan": np.tan, "sinh": np.sinh, "cosh": np.cosh, "tanh": np.tanh,
    "asin": np.arcsin, "acos": np.arccos, "atan": np.arctan, "abs": np.abs,
}

# Python evaluating the text, with numpy functions applied to float64 values.
NAMESPACE = {
    name: (lambda v, f=f: f(np.asarray(v, dtype=np.float64)))
    for name, f in FUNCTIONS.items()
}
NAMESPACE.update(pi=math.pi, E=math.e)


def _reference(text, arrays):
    scope = dict(NAMESPACE, **dict(zip(VARIABLES, arrays)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.asarray(eval(text, {"__builtins__": {}}, scope), dtype=np.float64)
    out = np.where(np.isnan(out), np.nan, out)  # one canonical NaN, as the compiler gives
    return np.broadcast_to(out, arrays[0].shape)


def _cylinder_config(tmp_path, formula):
    doc = {
        "path": {"generator": {"kind": "brownian", "base_points": 64, "seed": 3}},
        "functional": {"cylinder": {"f": formula}},
        "levels": [2, 4],
    }
    p = tmp_path / "exp.json"
    p.write_text(json.dumps(doc))
    return str(p)


def _error_lines(err):
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


def test_code_in_a_formula_never_runs(tmp_path, capsys):
    marker = tmp_path / "ran"
    formula = f"__import__('pathlib').Path({str(marker)!r}).touch()*0 + x1"
    code = cli_main(["integrate", "-c", _cylinder_config(tmp_path, formula)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(_error_lines(err)) == 1 == len(err.splitlines())
    assert not marker.exists()


REJECTED = [
    "x1.__class__",
    "x1[0]",
    "x1 > 0",
    "x1 if 1 else 0",
    "(lambda: x1)()",
    "log(x1, 2)",
    "exp(x=x1)",
    "exp(*x1)",
    "gamma(x1)",
    "1j*x1",
    "I*x1",
    "oo",
    "x1^2",
    "'x1'",
    "True*x1",
    "y1",
    "exp + x1",
    "x1 +* 2",
    "1/0",
    "(-8)**0.5",
    "9**9**9",
    "10**400*x1",
    "-" * 100_000 + "x1",
]


@pytest.mark.parametrize("formula", REJECTED, ids=lambda f: f[:20])
def test_formula_outside_the_grammar_exits_two(formula, tmp_path, capsys):
    code = cli_main(["integrate", "-c", _cylinder_config(tmp_path, formula)])
    err = capsys.readouterr().err
    assert code == 2
    assert len(_error_lines(err)) == 1 == len(err.splitlines())
    assert "expression" in err


def test_unknown_names_are_listed_with_the_allowed_ones():
    with pytest.raises(ValueError) as info:
        compile_expression("zz * x1 + y1 + sin(zz)", ("t", "x1"))
    assert str(info.value) == (
        "expression 'zz * x1 + y1 + sin(zz)' uses unknown names ['y1', 'zz']; "
        "allowed: ['t', 'x1']"
    )


def test_constants_and_functions_are_not_unknown_names():
    fn = compile_expression("pi * E + abs(asin(x1)) + 2**-1", ("x1",))
    x = np.array([-0.5, 0.0, 1.0])
    assert fn(x).tobytes() == (math.pi * math.e + np.abs(np.arcsin(x)) + 0.5).tobytes()


def test_functions_take_int_constants_as_floats():
    # abs(-2) is 2.0, not an int64 that wraps at 2**64; atan of a wide int works.
    fn = compile_expression("abs(-2)**70 * x1 + atan(2**70)", ("x1",))
    assert fn(np.array([1.0])).tolist() == [2.0**70 + np.arctan(2.0**70)]


def test_config_commands_leave_no_sympy_loaded(tmp_path):
    config = _cylinder_config(tmp_path, "x1**2")
    runs = [
        ["integrate", "-c", config, "-o", str(tmp_path / "i.csv")],
        ["ito-check", "-c", config, "-o", str(tmp_path / "r.csv")],
        ["gen", "--kind", "smooth", "--n", "16", "--expression", "sin(t)",
         "-o", str(tmp_path / "p.csv")],
    ]
    script = (
        "import sys\n"
        "from pathwise_ito.cli import cli_main\n"
        f"codes = [cli_main(argv) for argv in {runs!r}]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    src = str(Path(pathwise_ito.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[0, 0, 0] []\n"


# ---------------------------------------------------------------------------
# Differential: compiled formulas against Python over numpy arrays

LEAVES = st.one_of(
    st.integers(0, 9).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-4, 4).map(repr),
    st.sampled_from(VARIABLES + ("pi", "E")),
)


def _extend(children):
    binary = st.tuples(
        children, st.sampled_from(["+", "-", "*", "/", "**"]), children, st.booleans()
    ).map(lambda p: f"({p[0]} {p[1]} {p[2]})" if p[3] else f"{p[0]} {p[1]} {p[2]}")
    unary = st.tuples(st.sampled_from(["-", "+"]), children).map("".join)
    call = st.tuples(st.sampled_from(sorted(FUNCTIONS)), children).map(
        lambda p: f"{p[0]}({p[1]})"
    )
    return st.one_of(binary, unary, call)


FORMULAS = st.recursive(LEAVES, _extend, max_leaves=10)


@settings(max_examples=300, deadline=None)
@given(text=FORMULAS, n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
@example(text="t ** 0.5 + -t ** 0.5", n=9, seed=0)  # NaNs whose sign differs by loop
def test_compiled_formula_matches_python_bit_for_bit(text, n, seed):
    try:
        fn = compile_expression(text, VARIABLES)
    except ValueError as exc:
        # Only constants can fail: a complex or out-of-range value, or x/0.
        assert str(exc).startswith(f"cannot parse expression {text!r}: ")
        assert "is not allowed" not in str(exc)
        return
    rng = np.random.default_rng(seed)
    arrays = list(rng.normal(scale=2.0, size=(len(VARIABLES), n)))
    arrays[1][0] = 0.0
    full = fn(*arrays)
    assert full.shape == (n,)
    assert full.tobytes() == _reference(text, arrays).tobytes()
    for k in range(n):
        row = fn(*[a[k : k + 1] for a in arrays])
        assert row.tobytes() == full[k : k + 1].tobytes()
