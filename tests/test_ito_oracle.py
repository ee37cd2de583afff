"""A closed-form oracle for ``ito-check``.

For F(t, X, A) = Q(X(t)) + alpha t + sum_k c_k A_k(t) with Q quadratic and
no t-x or a-x terms, the discrete change-of-variables formula is exact on
every partition: across a cell, Q(x') - Q(x) = grad Q(x).dx + (1/2) dx' H dx
with H constant, and the t and A parts telescope on the base grid.  So
each ``ito-check`` residual is rounding, plus the rounding that a
finite-difference slot divides by its step.  The bounds below are fixed
from that error model, not from measured residuals:

* analytic slots: |residual| <= K eps S, where S sums the absolute values
  of every summand of the decomposition at that level;
* ``hess`` by finite differences adds K eps |F| [X]_abs / h_x^2, with the
  documented vertical step h_x = 1e-4 (1 + max |X|);
* ``dt`` or ``da`` by finite differences (either one sends the whole
  horizontal slot there) adds K eps |F| (T / h_t + 2 + (N - 1) m), with
  the documented horizontal step h_t = 1e-3 T, and 1e-14 max(1, |A|) |c_k|
  per cell for a cell where A_k is too flat to difference.

Here |F| is the largest sum of absolute monomial values of F on the grid.
A coupled F (``x1**2 + t*x1 + a1*x2``) misses the analytic bound at the
coarsest level, which shows the oracle can fail.
"""
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.cli import cli_main
from pathwise_ito.paths import PartitionSequence, default_num_levels

EPS = np.finfo(float).eps
K = 64
COEF = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(lambda v: round(v, 3))


def _components(x, comps):
    """The A_k the config names: trapezoid time average or running max of X_i."""
    t, cols = x[:, 0], []
    for kind, i in comps:
        v = x[:, 1 + i]
        if kind == "running-max":
            cols.append(np.maximum.accumulate(v))
        else:
            cum = np.concatenate([[0.0], np.cumsum(0.5 * (v[:-1] + v[1:]) * np.diff(t))])
            cols.append(np.concatenate([[v[0]], cum[1:] / t[1:]]))
    return np.column_stack(cols) if cols else np.zeros((t.shape[0], 0))


def _bound(x, a, level, F_abs, G, H, Hz, fd_hess, fd_horiz):
    """K eps times the error scale of one ``ito-check`` level.

    ``F_abs`` (N,) is the absolute-monomial size of F on the grid, ``G``
    (N, d) its gradient, ``H`` (d, d) its Hessian and ``Hz`` (N, 1 + m) its
    horizontal derivative in (t, A_1, ..., A_m).
    """
    t, xs = x[:, 0], x[:, 1:]
    idx = PartitionSequence(t, default_num_levels(t.shape[0])).indices(level)
    dx = np.diff(xs[idx], axis=0)
    outer = np.abs(dx[:, :, None] * dx[:, None, :])
    clock = np.column_stack([t, a])
    scale = (
        F_abs[0]
        + F_abs[-1]
        + np.sum(np.abs(G[idx[:-1]] * dx))
        + 0.5 * np.sum(np.abs(H) * outer)
        + np.sum(np.abs(Hz[:-1] * np.diff(clock, axis=0)))
    )
    if fd_hess:
        h_x = 1e-4 * (1.0 + np.max(np.abs(xs)))
        scale += F_abs.max() * 0.5 * np.sum(outer) / h_x**2
    if fd_horiz:
        T, n, m = t[-1], t.shape[0], a.shape[1]
        scale += F_abs.max() * (T / (1e-3 * T) + 2 + (n - 1) * m)
        flat = 1e-14 * max(1.0, float(np.max(np.abs(a), initial=0.0)))
        scale += (n - 1) * flat * np.sum(np.abs(Hz[0, 1:])) / EPS
    return K * EPS * scale


def _ito_check(workdir, path_args, comps, cylinder):
    """Run ``gen`` then ``ito-check`` in process; (path rows, residual per level)."""
    path = os.path.join(workdir, "x.csv")
    assert cli_main(["gen", "--kind", "brownian", *map(str, path_args), "-o", path]) == 0
    config = os.path.join(workdir, "c.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({
            "path": {"file": path},
            "components": [{"kind": kind, "component": i} for kind, i in comps],
            "functional": {"cylinder": cylinder},
        }, fh)
    table = os.path.join(workdir, "check.csv")
    assert cli_main(["ito-check", "-c", config, "-o", table]) == 0
    x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    rows = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)
    return x, rows[:, 0].astype(int), rows[:, -1]


@st.composite
def _quadratic_configs(draw):
    d = draw(st.integers(1, 3))
    comps = draw(st.lists(
        st.tuples(st.sampled_from(["time-average", "running-max"]), st.integers(0, d - 1)),
        max_size=2,
    ))
    upper = {(i, j): draw(COEF) for i in range(d) for j in range(i, d)}
    H = np.array([[upper[min(i, j), max(i, j)] * (2.0 if i == j else 1.0)
                   for j in range(d)] for i in range(d)])
    b = [draw(COEF) for _ in range(d)]
    alpha, q0 = draw(COEF), draw(COEF)
    c = [draw(COEF) for _ in comps]
    path_args = [
        "--n", draw(st.sampled_from([64, 256, 1024])),
        "--d", d,
        "--T", draw(st.sampled_from([0.5, 1.0, 3.0])),
        "--seed", draw(st.integers(0, 2**16)),
        "--drift", draw(COEF),
        "--scale", draw(st.sampled_from([0.25, 1.0, 4.0])),
    ]
    fd = draw(st.fixed_dictionaries({slot: st.booleans() for slot in ("hess", "dt", "da")}))
    return d, comps, upper, H, b, alpha, q0, c, path_args, fd


@settings(max_examples=30, deadline=None)
@given(_quadratic_configs())
def test_ito_check_residual_of_a_quadratic_is_rounding_only(case):
    d, comps, upper, H, b, alpha, q0, c, path_args, fd = case
    xn = [f"x{i + 1}" for i in range(d)]
    an = [f"a{k + 1}" for k in range(len(comps))]
    monomials = [f"({v!r})*{xn[i]}*{xn[j]}" for (i, j), v in upper.items()]
    monomials += [f"({v!r})*{xn[i]}" for i, v in enumerate(b)]
    monomials += [f"({alpha!r})*t", f"({q0!r})"]
    monomials += [f"({v!r})*{an[k]}" for k, v in enumerate(c)]
    grad = [
        " + ".join([f"({float(H[i, j])!r})*{xn[j]}" for j in range(d)] + [f"({b[i]!r})"])
        for i in range(d)
    ]
    cylinder = {"f": " + ".join(monomials), "grad": grad}
    if not fd["hess"]:
        cylinder["hess"] = [[repr(float(H[i, j])) for j in range(d)] for i in range(d)]
    if not fd["dt"]:
        cylinder["dt"] = repr(alpha)
    if not fd["da"]:
        cylinder["da"] = [repr(v) for v in c]
    with tempfile.TemporaryDirectory() as workdir:
        x, levels, residuals = _ito_check(workdir, path_args, comps, cylinder)
    xs, a = x[:, 1:], _components(x, comps)
    F_abs = (
        sum(abs(v) * np.abs(xs[:, i] * xs[:, j]) for (i, j), v in upper.items())
        + np.abs(xs) @ np.abs(b)
        + abs(alpha) * x[:, 0]
        + abs(q0)
        + np.abs(a) @ np.abs(c)
    )
    G = xs @ H.T + np.asarray(b)
    Hz = np.broadcast_to(np.array([alpha, *c]), (x.shape[0], 1 + len(c)))
    fd_horiz = fd["dt"] or (fd["da"] and len(c) > 0)
    for level, residual in zip(levels, residuals):
        bound = _bound(x, a, level, F_abs, G, H, Hz, fd["hess"], fd_horiz)
        assert abs(residual) <= bound, (level, residual, bound, cylinder)


def test_a_coupled_functional_misses_the_bound_at_the_coarsest_level():
    cylinder = {
        "f": "x1**2 + t*x1 + a1*x2",
        "grad": ["2*x1 + t", "a1"],
        "hess": [["2", "0"], ["0", "0"]],
        "dt": "x1",
        "da": ["x2"],
    }
    comps = [("time-average", 0)]
    with tempfile.TemporaryDirectory() as workdir:
        x, levels, residuals = _ito_check(
            workdir, ["--n", 1024, "--d", 2, "--seed", 5], comps, cylinder
        )
    t, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    a = _components(x, comps)
    F_abs = x1**2 + np.abs(t * x1) + np.abs(a[:, 0] * x2)
    G = np.column_stack([2 * x1 + t, a[:, 0]])
    H = np.array([[2.0, 0.0], [0.0, 0.0]])
    Hz = np.column_stack([x1, x2])
    assert levels[0] == 1
    assert abs(residuals[0]) > _bound(x, a, 1, F_abs, G, H, Hz, False, False)
