"""Loop references for the array forms of two sums in ``ito.py``.

The weighted [X] integrals behind the QV identity for Y, and the plain
Riemann sums, were once written as explicit loops: four deep over (i, j, k,
l) for the former, one ``np.dot`` per cell for the latter.  Those loops are
kept here as references, and the array forms must give their bits, the sign
of a zero included, for d and the number of integrands from 1 to 3.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.functionals import Functional
from pathwise_ito.ito import AdmissibleIntegrand, _weighted_qv_paths, ito_integral
from pathwise_ito.paths import PartitionSequence, SampledPath
from pathwise_ito.qv import qv_measures
from pathwise_ito.reduction import running_sum
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


def _plain_sums_loop(xi, x, partition, level):
    idx = partition.indices(level)
    pts = x.times[idx]
    dx = x.values[idx[1:]] - x.values[idx[:-1]]
    terms = np.empty(idx.shape[0] - 1)
    for j in range(terms.shape[0]):
        terms[j] = float(np.dot(xi.xi(float(pts[j]), x), dx[j]))
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
