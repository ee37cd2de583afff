"""The QV identity for Y at the grid's own level holds up to its rounding bound.

At the grid's own level a cell of Y_i is the one left-point term
t_i = xi_i . dX, and the cell's increment of [X] is v v^T with v = dX (its
w is 0), so [Y_i, Y_j] and the weighted sum of xi_i^T d[X] xi_j are the
same sum of t_i t_j in exact arithmetic.  Each ``qv_of_Y_check`` residual is
then rounding from three places, each bounded a priori (tests/rounding.py):

* Y's running sums.  A cell of the float Y is t_i, rounded through the dot
  product, plus the rounding of the running sum, at most u |S_i| with
  S_i = Y_i(u) + t_i.  So dY_i dY_j - t_i t_j is within gamma_(2d+1) of
  (3 A_i + |Y_i(u)|)(3 A_j + |Y_j(u)|) per cell, A_i = sum_k |xi_ik v_k|.
* The [Y] sums.  At the grid's own level every grid time is a partition
  point, so a cell of [Y_i, Y_j] is the one product dY_i dY_j of the float
  differences, through three roundings (two subtractions and the product),
  and the step from the anchor adds an exact 0.
* The rank-two weighted sums: (xi_i . v)(xi_j . v) - (xi_i . w)(xi_j . w),
  within gamma_(2d+2) of A_i A_j + A^w_i A^w_j per cell.

The running sums add one rounding per later cell, forming each term's float
here adds its own operations, and the residual's subtraction adds one.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.config import build_functional
from pathwise_ito.ito import AdmissibleIntegrand, _xi_samples, build_Y, qv_of_Y_check
from pathwise_ito.paths import PartitionSequence, SampledPath
from pathwise_ito.qv import _anchored_steps
from rounding import rounding_bound

COEF = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(lambda v: round(v, 3))


@st.composite
def _polynomial_cylinder(draw, d):
    """A config cylinder f = sum of c t^a x^e, total x-degree <= 3, with its exact grad."""
    exps = st.tuples(st.integers(0, 1), *[st.integers(0, 3) for _ in range(d)]).filter(
        lambda e: sum(e[1:]) <= 3
    )
    terms = draw(st.lists(st.tuples(COEF, exps), min_size=1, max_size=4))

    def formula(monomials):
        parts = []
        for c, e in monomials:
            factors = [f"({c!r})"] + (["t"] if e[0] else [])
            factors += [f"x{i + 1}**{p}" for i, p in enumerate(e[1:]) if p]
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"

    grad = []
    for i in range(d):
        lowered = [(c * e[1 + i], e[:1 + i] + (e[1 + i] - 1,) + e[2 + i:])
                   for c, e in terms if e[1 + i]]
        grad.append(formula(lowered))
    return {"cylinder": {"f": formula(terms), "grad": grad}}


@st.composite
def _cases(draw):
    d, nu = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    exponent = draw(st.integers(1, 8))
    n, T = 2**exponent, draw(st.sampled_from([0.5, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.standard_normal((n, d)) * draw(st.sampled_from([0.25, 1.0, 4.0])) * (T / n) ** 0.5
    start = np.array([draw(COEF) for _ in range(d)])
    x = SampledPath(np.linspace(0.0, T, n + 1), start + np.vstack([np.zeros(d), np.cumsum(steps, 0)]))
    specs = [draw(_polynomial_cylinder(d)) for _ in range(nu)]
    return x, PartitionSequence(x.times, exponent), specs


def _bounds(xis, x, part, level):
    """(nu, nu) a-priori bounds on the residuals, as in the module docstring."""
    sam = _xi_samples(xis, x)[:, :-1]
    nu, cells, d = sam.shape
    v, w = _anchored_steps(x, part, level)
    a_v = np.sum(np.abs(sam) * np.abs(v), axis=2)  # (nu, cells): A_i
    a_w = np.sum(np.abs(sam) * np.abs(w), axis=2)
    y = build_Y(xis, x, part, level).values.T  # (nu, N)
    dy = np.diff(y, axis=1)
    # each n below: the library's roundings of a term, those forming its float
    # here, and the residual's subtraction; ``later`` counts the additions of
    # the running sums after a term's cell
    later = cells - 1
    out = np.empty((nu, nu))
    for i in range(nu):
        for j in range(i, nu):
            weighted = rounding_bound(
                a_v[i] * a_v[j] + a_w[i] * a_w[j], later + (2 * d + 2) + (2 * d + 2) + 1
            )
            y_sums = rounding_bound(
                (3.0 * a_v[i] + np.abs(y[i, :-1])) * (3.0 * a_v[j] + np.abs(y[j, :-1])),
                (2 * d + 1) + (2 * d + 5) + 1,
            )
            direct = rounding_bound(np.abs(dy[i] * dy[j]), later + 3 + 3 + 1)
            out[i, j] = out[j, i] = weighted + y_sums + direct
    return out


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_qv_identity_residuals_lie_within_their_rounding_bound(case):
    x, part, specs = case
    xis = [AdmissibleIntegrand(build_functional(spec, x.d, 0)) for spec in specs]
    level = part.num_levels  # the grid's own level
    rep = qv_of_Y_check(xis, x, part, level)
    bounds = _bounds(xis, x, part, level)
    assert np.all(rep.residuals <= bounds), (rep.residuals, bounds, specs)
