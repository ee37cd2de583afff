"""Loop references for the array forms of the sums in ``ito.py``.

The weighted [X] integrals behind the QV identity for Y, and the plain
Riemann sums, were once written as explicit loops: four deep over (i, j, k,
l) for the former, one dot product per cell for the latter.  Those loops are
kept here as references, and the array forms must give their bits, the sign
of a zero included, for d and the number of integrands from 1 to 3.

Every row dot product in the package goes through ``reduction.ordered_dot``,
which must give the bits of a left-to-right loop over Python floats; no BLAS
call, whose summation order follows the CPU, may appear in the package.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pathwise_ito
from pathwise_ito.functionals import Functional
from pathwise_ito.ito import AdmissibleIntegrand, _weighted_qv_paths, ito_integral
from pathwise_ito.paths import PartitionSequence, SampledPath
from pathwise_ito.qv import qv_measures
from pathwise_ito.reduction import ordered_dot, running_sum
from pathwise_ito.stieltjes import cumulative_stieltjes

NUM_LEVELS = 3
N_POINTS = 2**NUM_LEVELS + 1

# Zeros of both signs, ordinary values, and values whose products are
# subnormal, where halving and doubling a sum would not give it back.
ELEMENTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False),
    st.sampled_from([3e-160, -7e-161, 1e-155]),
)


def _weighted_qv_loop(sam, x, partition, level):
    nu, n_pts, d = sam.shape
    measures = qv_measures(x, partition, level)
    out = np.zeros((n_pts, nu, nu))
    for i in range(nu):
        for j in range(i, nu):
            acc = np.zeros(n_pts)
            for k in range(d):
                for l in range(d):
                    acc += cumulative_stieltjes(sam[i, :, k] * sam[j, :, l], measures[k][l])
            out[:, i, j] = acc
            out[:, j, i] = acc
    return out


def _loop_dot(u, v):
    acc = float(u[0]) * float(v[0])
    for k in range(1, len(u)):
        acc = acc + float(u[k]) * float(v[k])
    return acc


def _plain_sums_loop(xi, x, partition, level):
    idx = partition.indices(level)
    pts = x.times[idx]
    dx = x.values[idx[1:]] - x.values[idx[:-1]]
    terms = np.empty(idx.shape[0] - 1)
    for j in range(terms.shape[0]):
        terms[j] = _loop_dot(xi.xi(float(pts[j]), x), dx[j])
    return running_sum(terms)


def _array(draw, shape):
    flat = draw(st.lists(ELEMENTS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(flat, dtype=np.float64).reshape(shape)


def _path(draw, d):
    times = np.linspace(0.0, 1.0, N_POINTS)
    return SampledPath(times, _array(draw, (N_POINTS, d)))


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weighted_qv_paths_match_the_four_deep_loop(data):
    d = data.draw(st.integers(1, 3))
    nu = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, NUM_LEVELS))
    x = _path(data.draw, d)
    sam = _array(data.draw, (nu, N_POINTS, d))
    part = PartitionSequence(x.times, NUM_LEVELS)
    got = _weighted_qv_paths(sam, x, part, level)
    assert _bits(got) == _bits(_weighted_qv_loop(sam, x, part, level))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plain_sums_match_the_per_cell_dot_loop(data):
    d = data.draw(st.integers(1, 3))
    x = _path(data.draw, d)
    table = _array(data.draw, (N_POINTS, d))
    # reads its value off a table by grid time: no state form, so the plain
    # sums call it point by point
    F = Functional(
        evaluate=lambda t, x_, a: 0.0,
        d=d,
        vertical=lambda t, x_, a: table[x_.grid_index(t)],
    )
    assert not F._on_states
    xi = AdmissibleIntegrand(F)
    part = PartitionSequence(x.times, NUM_LEVELS)
    levels = sorted(data.draw(st.sets(st.integers(1, NUM_LEVELS), min_size=1)))
    got = ito_integral(xi, x, part, levels, plain_riemann=True)
    for row, n in enumerate(levels):
        want = _plain_sums_loop(xi, x, part, n)
        assert _bits(got.values[row, part.indices(n)]) == _bits(want), n


@st.composite
def _row_pairs(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 8)))
    return _array(draw, shape), _array(draw, shape)


@settings(max_examples=200, deadline=None)
@given(_row_pairs())
# a single -0.0 term keeps its sign (a sum that starts from +0.0 would not)
@example((np.array([[-0.0], [0.0]]), np.array([[3.0], [-2.0]])))
@example((np.array([[-0.0, 0.0, -0.0]]), np.array([[1.0, -1.0, 2.0]])))
def test_ordered_dot_matches_the_python_float_loop(pair):
    u, v = pair
    want = [_loop_dot(a, b) for a, b in zip(u, v)]
    assert _bits(ordered_dot(u, v)) == _bits(want)


_BLAS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def _blas_calls(source):
    """Line numbers of ``@``, ``@=`` and calls or numpy imports of a _BLAS name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _BLAS:
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            if _BLAS & {alias.name for alias in node.names}:
                lines.append(node.lineno)
    return lines


def test_the_package_calls_no_blas_reduction():
    probes = ["a @ b", "a @= b", "np.dot(a, b)", "numpy.matmul(a, b)", "a.dot(b)",
              "np.einsum('i,i', a, b)", "np.inner(a, b)", "np.vdot(a, b)",
              "np.tensordot(a, b, 1)", "from numpy import dot"]
    assert [bool(_blas_calls(p)) for p in probes] == [True] * len(probes)
    package = Path(pathwise_ito.__file__).parent
    found = {p.name: _blas_calls(p.read_text()) for p in sorted(package.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}
