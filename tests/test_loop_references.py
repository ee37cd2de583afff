"""Loop references for the array forms of the sums in ``ito.py``.

The weighted [X] integrals behind the QV identity for Y, and the plain
Riemann sums, were once written as explicit loops: four deep over (i, j, k,
l) for the former, one dot product per cell for the latter.  Those loops are
kept here as references, for d and the number of integrands from 1 to 3.
The plain sums must give the loop's bits, the sign of a zero included.  The
weighted integrals now sum (xi_i . v)(xi_j . v) - (xi_i . w)(xi_j . w) per
cell, in another order than the loop's entry-by-entry sums, so the two
must agree within the sum of their a-priori rounding bounds.  The
compensator's QV term is checked against its definition, one cell at a
time in Python floats, bit for bit.

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
from pathwise_ito.functionals import Functional, cylinder
from pathwise_ito.ito import AdmissibleIntegrand, _compensator, _weighted_qv_paths, ito_integral
from pathwise_ito.paths import PartitionSequence, SampledPath
from pathwise_ito.qv import _anchored_steps, _entry_rows, qv_measures
from pathwise_ito.reduction import ordered_dot, running_sum
from pathwise_ito.stieltjes import StieltjesMeasure, cumulative_stieltjes
from rounding import rounding_bound

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
    rows = qv_measures(x, partition, level).increments
    out = np.zeros((n_pts, nu, nu))
    for i in range(nu):
        for j in range(i, nu):
            acc = np.zeros(n_pts)
            for k in range(d):
                for l in range(d):
                    mu = StieltjesMeasure(x.times, rows[k * d + l])  # one scalar entry
                    acc += cumulative_stieltjes(sam[i, :, k] * sam[j, :, l], mu)
            out[:, i, j] = acc
            out[:, j, i] = acc
    return out


def _compensator_qv_loop(hess, x, partition, level):
    """1/2 the running sum of the cells +0.0 + sum_ij D2F_ij(u) (v_i v_j - w_i w_j), (i, j)
    row-major, over the base cells [u, u']: v = x(u') - x(s), w = x(u) - x(s), s the cell's
    level anchor (the last partition point strictly before u')."""
    stride = partition.stride(level)
    vals = x.values.tolist()
    d = x.d
    sums = [0.0]
    for j in range(x.n_points - 1):
        anchor = vals[j // stride * stride]
        v = [vals[j + 1][i] - anchor[i] for i in range(d)]
        w = [vals[j][i] - anchor[i] for i in range(d)]
        h = hess(float(x.times[j]), x.values[j], np.zeros(0)).tolist()
        cell = 0.0
        for i in range(d):
            for k in range(d):
                cell = cell + h[i][k] * (v[i] * v[k] - w[i] * w[k])
        sums.append(sums[-1] + cell)
    return np.array([0.5 * c for c in sums])


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


def _weighted_qv_bound(sam, x, partition, level, i, j):
    """Rounding bounds of the array form and of the four-deep loop, added.

    Both sum the cell terms xi_ik xi_jl (v_k v_l - w_k w_l) over k, l and the
    cells; per cell, |xi_i|.|v| |xi_j|.|v| + |xi_i|.|w| |xi_j|.|w| bounds them.
    A term takes at most 2d + 2 roundings in the array form (two dots, their
    product, the difference) and d^2 + 5 in the loop (the measure entry, the
    weight, their product, the d^2 entries added onto 0), plus one for each
    later cell of the running sums, and 2d + 2 to form its float here.  The
    subnormal inputs add an absolute error of at most 2^-1075 to each
    product that underflows (Higham section 2.1), times a later factor below
    1e3 here; every product of both forms is counted.
    """
    nu, n_pts, d = sam.shape
    v, w = _anchored_steps(x, partition, level)
    terms = np.sum(np.abs(sam[i, :-1]) * np.abs(v), axis=1) * np.sum(
        np.abs(sam[j, :-1]) * np.abs(v), axis=1
    ) + np.sum(np.abs(sam[i, :-1]) * np.abs(w), axis=1) * np.sum(
        np.abs(sam[j, :-1]) * np.abs(w), axis=1
    )
    cells = n_pts - 1
    later = cells - 1 + 2 * d + 2
    bound = rounding_bound(terms, 2 * d + 2 + later) + rounding_bound(terms, d * d + 5 + later)
    products = cells * ((4 * d + 2) + 4 * d * d)
    return bound + products * 500.0 * 2.0**-1074  # 1e3 * 2^-1075


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_weighted_qv_paths_match_the_four_deep_loop(data):
    d = data.draw(st.integers(1, 3))
    nu = data.draw(st.integers(1, 3))
    level = data.draw(st.integers(1, NUM_LEVELS))
    x = _path(data.draw, d)
    sam = _array(data.draw, (nu, N_POINTS, d))
    part = PartitionSequence(x.times, NUM_LEVELS)
    got = _weighted_qv_paths(sam, x, part, level)  # packed rows, one per pair i <= j
    want = _weighted_qv_loop(sam, x, part, level)
    rows = _entry_rows(nu)
    assert got.shape == (nu * (nu + 1) // 2, N_POINTS)
    for i in range(nu):
        for j in range(i, nu):
            gap = np.max(np.abs(got[rows[i, j]] - want[:, i, j]))
            assert gap <= _weighted_qv_bound(sam, x, part, level, i, j), (i, j)


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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compensator_qv_term_matches_its_per_cell_definition(data):
    d = data.draw(st.integers(1, 4))
    x = _path(data.draw, d)
    coeffs = _array(data.draw, (d, d))  # H_ij = c_ij x_j: not symmetric

    def hess(t, xv, av):
        return coeffs * xv[None, :]

    F = cylinder(lambda t, xv, av: 0.0, d=d, grad=lambda t, xv, av: np.zeros(d), hess=hess,
                 dt=lambda t, xv, av: 0.0, name="non-symmetric hess")
    part = PartitionSequence(x.times, NUM_LEVELS)
    levels = sorted(data.draw(st.sets(st.integers(1, NUM_LEVELS), min_size=1)))
    _, qv = _compensator([F], x, None, part, levels)
    for k, n in enumerate(levels):
        assert _bits(qv[k, 0]) == _bits(_compensator_qv_loop(hess, x, part, n)), n


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
