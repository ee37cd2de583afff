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

The same class is closed under the combinators that stay quadratic: a
product of two coordinates, and a quadratic outer composed with affine
inners.  Their ``ito-check`` residuals take the same bound, with every
monomial, gradient and Hessian entry replaced by the absolute-value form
of the chain and Leibniz rules that compute it.

``assoc-check`` is exact at the finest level for integrands in this class:
there a cell of Y is one left-point term xi . dX, and the recentered
functional equals Y at every grid time because the discrete formula is
exact.  So the finest residual is rounding, bounded by K eps times the sum
of |grad eta| (|dY| + |Y|) over the cells, where |Y| is the rounding of Y's
running sum that each difference of Y inherits, plus the shift of grad eta
that the recentered functionals' own rounding causes.
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


def _run(workdir, path_args, command, doc):
    """Run ``gen``, then ``command`` on doc and that path, in process; (path rows, table)."""
    path = os.path.join(workdir, "x.csv")
    assert cli_main(["gen", "--kind", "brownian", *map(str, path_args), "-o", path]) == 0
    config = os.path.join(workdir, "c.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"path": {"file": path}, **doc}, fh)
    table = os.path.join(workdir, "out.csv")
    assert cli_main([command, "-c", config, "-o", table]) == 0
    x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    # genfromtxt: the first assoc-check row leaves its ratio empty
    return x, np.genfromtxt(table, delimiter=",", skip_header=1, ndmin=2)


def _ito_check(workdir, path_args, comps, functional):
    """``ito-check`` of a functional spec; (path rows, levels, residual per level)."""
    components = [{"kind": kind, "component": i} for kind, i in comps]
    doc = {"components": components, "functional": functional}
    x, rows = _run(workdir, path_args, "ito-check", doc)
    return x, rows[:, 0].astype(int), rows[:, -1]


def _path_args(draw, d, sizes):
    """``gen`` options for a drawn Brownian path."""
    return [
        "--n", draw(st.sampled_from(sizes)),
        "--d", d,
        "--T", draw(st.sampled_from([0.5, 1.0, 3.0])),
        "--seed", draw(st.integers(0, 2**16)),
        "--drift", draw(COEF),
        "--scale", draw(st.sampled_from([0.25, 1.0, 4.0])),
    ]


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
    path_args = _path_args(draw, d, [64, 256, 1024])
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
        x, levels, residuals = _ito_check(workdir, path_args, comps, {"cylinder": cylinder})
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
            workdir, ["--n", 1024, "--d", 2, "--seed", 5], comps, {"cylinder": cylinder}
        )
    t, x1, x2 = x[:, 0], x[:, 1], x[:, 2]
    a = _components(x, comps)
    F_abs = x1**2 + np.abs(t * x1) + np.abs(a[:, 0] * x2)
    G = np.column_stack([2 * x1 + t, a[:, 0]])
    H = np.array([[2.0, 0.0], [0.0, 0.0]])
    Hz = np.column_stack([x1, x2])
    assert levels[0] == 1
    assert abs(residuals[0]) > _bound(x, a, 1, F_abs, G, H, Hz, False, False)


# ---------------------------------------------------------------------------
# Combinators that stay quadratic, and assoc-check


def _num(v: float) -> str:
    return f"({float(v)!r})"


@st.composite
def _quadratic(draw, k):
    """Q(y) = y' H y / 2 + b . y + q0 on k variables: (H, b, q0, cylinder spec)."""
    upper = {(i, j): draw(COEF) for i in range(k) for j in range(i, k)}
    H = np.array([[upper[min(i, j), max(i, j)] * (2.0 if i == j else 1.0)
                   for j in range(k)] for i in range(k)])
    b = np.array([draw(COEF) for _ in range(k)])
    q0 = draw(COEF)
    xn = [f"x{i + 1}" for i in range(k)]
    monomials = [f"{_num(v)}*{xn[i]}*{xn[j]}" for (i, j), v in upper.items()]
    monomials += [f"{_num(v)}*{xn[i]}" for i, v in enumerate(b)] + [_num(q0)]
    spec = {
        "f": " + ".join(monomials),
        "grad": [" + ".join([f"{_num(H[i, j])}*{xn[j]}" for j in range(k)] + [_num(b[i])])
                 for i in range(k)],
        "hess": [[_num(H[i, j]) for j in range(k)] for i in range(k)],
        "dt": "0",
    }
    return H, b, q0, spec


@st.composite
def _quadratic_functionals(draw, d):
    """A product of coordinates or a quadratic of affine inners, as a config
    spec and as absolute-value forms: fn(x) -> (F_abs, G_abs, xi), H_abs."""
    if draw(st.booleans()):
        i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
        spec = {"product": [{"coordinate": i}, {"coordinate": j}]}
        E = np.eye(d)
        H = np.outer(E[i], E[j]) + np.outer(E[j], E[i])

        def forms(xs):
            xi = xs[:, j:j + 1] * E[i] + xs[:, i:i + 1] * E[j]
            return np.abs(xs[:, i] * xs[:, j]), np.abs(xi), xi

        return spec, forms, np.abs(H)
    k = draw(st.integers(1, 3))
    W = np.array([[draw(COEF) for _ in range(d)] for _ in range(k)])
    c = np.array([draw(COEF) for _ in range(k)])
    HQ, b, q0, outer = draw(_quadratic(k))
    inners = [{"cylinder": {
        "f": " + ".join([f"{_num(W[r, i])}*x{i + 1}" for i in range(d)] + [_num(c[r])]),
        "grad": [_num(W[r, i]) for i in range(d)],
        "hess": [["0"] * d for _ in range(d)],
        "dt": "0",
    }} for r in range(k)]
    spec = {"compose": {"outer": {"cylinder": outer}, "inners": inners}}

    def forms(xs):
        y, y_abs = xs @ W.T + c, np.abs(xs) @ np.abs(W).T + np.abs(c)
        F_abs = 0.5 * np.sum((y_abs @ np.abs(HQ)) * y_abs, axis=1) + y_abs @ np.abs(b) + abs(q0)
        return F_abs, (y_abs @ np.abs(HQ) + np.abs(b)) @ np.abs(W), (y @ HQ + b) @ W

    return spec, forms, np.abs(W).T @ np.abs(HQ) @ np.abs(W)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_ito_check_of_a_quadratic_combinator_is_rounding_only(data):
    d = data.draw(st.integers(1, 3))
    spec, forms, H_abs = data.draw(_quadratic_functionals(d))
    path_args = _path_args(data.draw, d, [64, 256, 1024])
    with tempfile.TemporaryDirectory() as workdir:
        x, levels, residuals = _ito_check(workdir, path_args, [], spec)
    F_abs, G_abs, _ = forms(x[:, 1:])
    a, Hz = np.zeros((x.shape[0], 0)), np.zeros((x.shape[0], 1))
    for level, residual in zip(levels, residuals):
        bound = _bound(x, a, level, F_abs, G_abs, H_abs, Hz, False, False)
        assert abs(residual) <= bound, (level, residual, bound, spec)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_assoc_check_of_quadratic_combinators_is_exact_at_the_finest_level(data):
    d = data.draw(st.integers(1, 3))
    nu = data.draw(st.integers(1, 2))
    drawn = [data.draw(_quadratic_functionals(d)) for _ in range(nu)]
    H_eta, b_eta, _, eta = data.draw(_quadratic(nu))
    path_args = _path_args(data.draw, d, [64, 256])
    doc = {
        "outer": {"cylinder": eta},
        "integrands": [spec for spec, _, _ in drawn],
        "levels": [2, 4, 6],
        # the Y-QV gate is not under test here
        "qv_gate_tol": 1e300,
    }
    with tempfile.TemporaryDirectory() as workdir:
        x, table = _run(workdir, path_args, "assoc-check", doc)
    assert list(table[:, 0]) == [2, 4, 6]
    xs = x[:, 1:]
    dx = np.abs(np.diff(xs, axis=0))
    shift = np.zeros(nu)  # how far rounding can move each recentered value from Y
    dY_abs, Y_abs = [], []
    for ell, (_, forms, H_abs) in enumerate(drawn):
        F_abs, G_abs, xi = forms(xs)
        cell = np.sum(G_abs[:-1] * dx, axis=1)
        dY_abs.append(cell)
        Y_abs.append(np.cumsum(cell))
        qv = 0.5 * np.sum((dx @ H_abs) * dx)
        shift[ell] = 2.0 * F_abs.max() + cell.sum() + qv
    dY_abs, Y_abs = np.array(dY_abs).T, np.array(Y_abs).T
    grad_eta = Y_abs @ np.abs(H_eta) + np.abs(b_eta)
    Y_start = np.vstack([np.zeros((1, nu)), Y_abs[:-1]])
    scale = np.sum(grad_eta * (Y_start + dY_abs + Y_abs)) + np.sum((np.abs(H_eta) @ shift) * dY_abs)
    residual = table[-1, 3]
    assert residual <= K * EPS * scale, (residual, K * EPS * scale, doc)
