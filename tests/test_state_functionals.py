"""Differential tests: state-form functionals against per-point references.

A Python-API cylinder, coordinate, bv_coordinate and constant_functional
are each built from maps on stacked states, and their point slots run the
same map on a one-row stack.  The references below are bare Functionals
around hand-written point lambdas (the form these built-ins had before they
gained a state form), so they have no state form: their samples go point
by point and their integrals rebuild a pre-step path per cell.  Every slot
must give the same bits either way.

The combinators (product, compose and the recentered functionals of an
augmented system) are row rules over their parts.  Their references are
the point-only closures these combinators were before, copied below, with
``compose``'s chain-rule sums written as left-to-right loops over Python
floats; the rules must reproduce them bit for bit on all grid rows at once,
at every grid time and half-way between.  A point call of a slot with a
state form runs that form on one row and calls none of its parts.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import pathwise_ito.ito as ito
import pathwise_ito.reduction as reduction
from pathwise_ito.functionals import (
    Functional,
    _state_slot,
    bv_coordinate,
    compose,
    constant_functional,
    coordinate,
    cylinder,
    product,
    running_max_path,
    time_average_path,
)
from pathwise_ito.ito import AdmissibleIntegrand, _augmented_functional, ito_integral
from pathwise_ito.pathgen import GeneratorSpec, generate
from pathwise_ito.paths import (
    LINEAR,
    GridError,
    PartitionSequence,
    SampledPath,
    _check_domain,
    concat_components,
)

N_POINTS = 64
NUM_LEVELS = 5
SLOTS = ("evaluate", "vertical", "vertical2", "horizontal")


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


def _data(seed: int, d: int, m: int):
    x = generate(GeneratorSpec(kind="brownian", base_points=N_POINTS, d=d, seed=seed))
    part = PartitionSequence(x.times, num_levels=NUM_LEVELS)
    a = None
    for k in range(m):
        piece = (time_average_path if k % 2 == 0 else running_max_path)(x, k % d)
        a = piece if a is None else concat_components(a, piece)
    return x, part, a


# ---------------------------------------------------------------------------
# Per-point references


def _state_at(t, x, a):
    xv = np.atleast_1d(np.asarray(x.value(t), dtype=np.float64))
    av = np.atleast_1d(np.asarray(a.value(t), dtype=np.float64)) if a is not None else np.zeros(0)
    return xv, av


def _ref_cylinder(f, d, m, grad, hess, dt, da):
    def at_state(fn):
        return lambda t, x, a: fn(t, *_state_at(t, x, a))

    def horizontal(t, xv, av):
        tail = np.atleast_1d(da(t, xv, av)) if m else np.zeros(0)
        return np.concatenate([[dt(t, xv, av)], tail])

    return Functional(
        evaluate=at_state(f),
        d=d,
        m=m,
        vertical=at_state(grad),
        vertical2=at_state(hess),
        horizontal=at_state(horizontal),
    )


def _ref_coordinate(i, d, m):
    e_i = np.zeros(d)
    e_i[i] = 1.0
    zero_d2, zero_h = np.zeros((d, d)), np.zeros(m + 1)
    return Functional(
        evaluate=lambda t, x, a: x.value(t)[i],
        d=d,
        m=m,
        vertical=lambda t, x, a: e_i,
        vertical2=lambda t, x, a: zero_d2,
        horizontal=lambda t, x, a: zero_h,
    )


def _ref_bv_coordinate(k, m, d):
    zero_d, zero_d2 = np.zeros(d), np.zeros((d, d))
    h_vec = np.zeros(m + 1)
    h_vec[k + 1] = 1.0
    return Functional(
        evaluate=lambda t, x, a: a.value(t)[k],
        d=d,
        m=m,
        vertical=lambda t, x, a: zero_d,
        vertical2=lambda t, x, a: zero_d2,
        horizontal=lambda t, x, a: h_vec,
    )


def _ref_constant(c, d, m):
    zero_d, zero_d2, zero_h = np.zeros(d), np.zeros((d, d)), np.zeros(m + 1)
    return Functional(
        evaluate=lambda t, x, a: c,
        d=d,
        m=m,
        vertical=lambda t, x, a: zero_d,
        vertical2=lambda t, x, a: zero_d2,
        horizontal=lambda t, x, a: zero_h,
    )


def _python_partials(c: tuple[float, float, float], d: int, m: int):
    """f = c0 |x|^2 + sin(c1 t x_1) + c2 sum(a) and its partials, as scalar callables."""
    c0, c1, c2 = c

    def f(t, xv, av):
        return c0 * float(xv @ xv) + np.sin(c1 * t * xv[0]) + c2 * float(np.sum(av))

    def grad(t, xv, av):
        out = 2.0 * c0 * xv
        out[0] += c1 * t * np.cos(c1 * t * xv[0])
        return out

    def hess(t, xv, av):
        out = 2.0 * c0 * np.eye(d)
        out[0, 0] -= (c1 * t) ** 2 * np.sin(c1 * t * xv[0])
        return out

    def dt(t, xv, av):
        return c1 * xv[0] * np.cos(c1 * t * xv[0])

    def da(t, xv, av):
        return np.full(m, c2)

    return f, grad, hess, dt, da


@st.composite
def _cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    kind = draw(st.sampled_from(["cylinder", "coordinate", "bv_coordinate", "constant"]))
    if kind == "bv_coordinate":
        m = max(m, 1)
    coef = st.sampled_from((1.0, -3.0, 0.5, 0.3, 2.5))
    if kind == "cylinder":
        f, grad, hess, dt, da = _python_partials((draw(coef), draw(coef), draw(coef)), d, m)
        F = cylinder(f, d, m, grad, hess, dt, da)
        ref = _ref_cylinder(f, d, m, grad, hess, dt, da)
    elif kind == "coordinate":
        i = draw(st.integers(0, d - 1))
        F, ref = coordinate(i, d, m), _ref_coordinate(i, d, m)
    elif kind == "bv_coordinate":
        k = draw(st.integers(0, m - 1))
        F, ref = bv_coordinate(k, m, d), _ref_bv_coordinate(k, m, d)
    else:
        c = draw(coef)
        F, ref = constant_functional(c, d, m), _ref_constant(c, d, m)
    return F, ref, draw(st.integers(0, 2**16))


@settings(max_examples=40, deadline=None)
@given(_cases())
def test_state_form_matches_the_point_reference_bitwise(case):
    F, ref, seed = case
    assert set(F._on_states) == set(SLOTS) and not ref._on_states
    x, _, a = _data(seed, F.d, F.m)
    # half-way between grid times too, where the point form interpolates
    off_grid = 0.5 * (x.times[:-1] + x.times[1:])
    for slot in SLOTS:
        rows = _state_slot(F, slot, x, a)
        want = np.array([getattr(ref, slot)(float(t), x, a) for t in x.times])
        assert _bits(rows) == _bits(want), slot
        points = np.array([getattr(F, slot)(float(t), x, a) for t in x.times])
        assert _bits(points) == _bits(want), slot
        for t in off_grid:
            got, exp = getattr(F, slot)(float(t), x, a), getattr(ref, slot)(float(t), x, a)
            assert _bits(got) == _bits(exp), (slot, t)


def _refuse(*args, **kwargs):
    raise AssertionError("a state-only integrand must not run the per-cell fill")


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.data())
def test_coordinate_integrand_takes_the_state_route(d, m, data):
    i = data.draw(st.integers(0, d - 1))
    seed = data.draw(st.integers(0, 2**16))
    levels = sorted(data.draw(st.sets(st.integers(1, NUM_LEVELS), min_size=1)))
    x, part, a = _data(seed, d, m)
    ref = AdmissibleIntegrand(_ref_coordinate(i, d, m), a)
    xi = AdmissibleIntegrand(coordinate(i, d, m), a)
    for plain in (False, True):
        want = ito_integral(ref, x, part, levels, plain_riemann=plain)
        # a Hypothesis test runs many examples per call, so each opens its
        # own patch context rather than sharing the monkeypatch fixture
        with pytest.MonkeyPatch.context() as patch:
            for module in (ito, reduction):
                patch.setattr(module, "map_chunked", _refuse)
            got = ito_integral(xi, x, part, levels, plain_riemann=plain)
        assert _bits(got.values) == _bits(want.values)
        assert _bits(got.cauchy_diffs) == _bits(want.cauchy_diffs)


# ---------------------------------------------------------------------------
# Combinators: the point-only closures they were before, as references


def _ref_product(F, G):
    def _eval(t, x, a):
        return F.evaluate(t, x, a) * G.evaluate(t, x, a)

    def _vertical(t, x, a):
        return G.evaluate(t, x, a) * F.vertical(t, x, a) + F.evaluate(t, x, a) * G.vertical(t, x, a)

    def _vertical2(t, x, a):
        fv, gv = F.vertical(t, x, a), G.vertical(t, x, a)
        return (
            G.evaluate(t, x, a) * F.vertical2(t, x, a)
            + F.evaluate(t, x, a) * G.vertical2(t, x, a)
            + np.outer(fv, gv)
            + np.outer(gv, fv)
        )

    def _horizontal(t, x, a):
        return G.evaluate(t, x, a) * F.horizontal(t, x, a) + F.evaluate(t, x, a) * G.horizontal(t, x, a)

    return Functional(_eval, F.d, F.m, _vertical, _vertical2, _horizontal)


def _loop_dot(u, v):
    acc = float(u[0]) * float(v[0])
    for k in range(1, len(u)):
        acc = acc + float(u[k]) * float(v[k])
    return acc


def _ref_compose(outer, inners):
    d, m, q = inners[0].d, inners[0].m, outer.m

    def _split(ab):
        a = ab.slice_components(0, m) if m else None
        bb = ab.slice_components(m, m + q) if q else None
        return a, bb

    def _inner_path(x, a):
        cache = {}

        def value(t):
            key = float(t)
            vec = cache.get(key)
            if vec is None:
                vec = np.array([f.evaluate(key, x, a) for f in inners])
                _check_domain(vec[None, :], outer.x_domain)
                vec.setflags(write=False)
                cache[key] = vec
            return vec

        return SampledPath._make(
            times=x.times, d=len(inners), interpolation=LINEAR, domain=outer.x_domain,
            value=value, _row=lambda i: value(x.times[i]),
            _build=lambda: np.array([value(t) for t in x.times]),
        )

    def _eval(t, x, ab):
        a, bb = _split(ab)
        return outer.evaluate(t, _inner_path(x, a), bb)

    def _vertical(t, x, ab):
        a, bb = _split(ab)
        y = _inner_path(x, a)
        gout = outer.vertical(t, y, bb)
        jac = np.stack([f.vertical(t, x, a) for f in inners])
        return np.array([_loop_dot(jac[:, j], gout) for j in range(d)])

    def _vertical2(t, x, ab):
        a, bb = _split(ab)
        y = _inner_path(x, a)
        gout = outer.vertical(t, y, bb)
        g2 = outer.vertical2(t, y, bb)
        jac = np.stack([f.vertical(t, x, a) for f in inners])
        # (jac.T @ g2) @ jac, each sum over the inners left to right
        jac_g2 = [[_loop_dot(jac[:, i], g2[:, j]) for j in range(len(inners))] for i in range(d)]
        out = np.array([[_loop_dot(row, jac[:, j]) for j in range(d)] for row in jac_g2])
        for weight, f in zip(gout, inners):
            out = out + weight * f.vertical2(t, x, a)
        return 0.5 * (out + out.T)

    def _horizontal(t, x, ab):
        a, bb = _split(ab)
        y = _inner_path(x, a)
        gout = outer.vertical(t, y, bb)
        gh = outer.horizontal(t, y, bb)
        out = np.zeros(m + q + 1)
        out[0] = gh[0]
        for weight, f in zip(gout, inners):
            fh = f.horizontal(t, x, a)
            out[0] += weight * fh[0]
            out[1 : m + 1] += weight * fh[1:]
        out[m + 1 :] = gh[1:]
        return out

    return Functional(_eval, d, m + q, _vertical, _vertical2, _horizontal)


def _ref_recentered(F, ell, m, nu, c):
    def _inner(ab):
        return ab.slice_components(0, m) if m else None

    def _eval(t, x2, ab):
        return F.evaluate(t, x2, _inner(ab)) - c - float(ab.value(t)[m + ell])

    def _horizontal(t, x2, ab):
        out = np.zeros(m + nu + 1)
        out[: m + 1] = F.horizontal(t, x2, _inner(ab))
        out[m + 1 + ell] = -1.0
        return out

    return Functional(
        evaluate=_eval,
        d=F.d,
        m=m + nu,
        vertical=lambda t, x2, ab: F.vertical(t, x2, _inner(ab)),
        vertical2=lambda t, x2, ab: F.vertical2(t, x2, _inner(ab)),
        horizontal=_horizontal,
    )


def _bare(F):
    """F's point methods without its state form."""
    return Functional(d=F.d, m=F.m, **F._point)


# A tree is ("leaf", kind, args), ("product", A, B),
# ("compose", outer, [inners]) or ("recenter", F, ell, nu, c); every node
# knows the (d, m) it drives, and a recentered node appends nu components.


@st.composite
def _leaf(draw, d, m):
    kinds = ["cylinder", "cylinder", "coordinate", "constant"] + (["bv_coordinate"] if m else [])
    kind = draw(st.sampled_from(kinds))
    coef = st.sampled_from((1.0, -3.0, 0.5, 0.3, 2.5))
    if kind == "cylinder":
        args = ((draw(coef), draw(coef), draw(coef)), draw(st.booleans()), draw(st.booleans()))
    elif kind == "coordinate":
        args = draw(st.integers(0, d - 1))
    elif kind == "bv_coordinate":
        args = draw(st.integers(0, m - 1))
    else:
        args = draw(coef)
    return ("leaf", kind, args, d, m)


@st.composite
def _node(draw, d, m, depth):
    kinds = ["leaf"] if depth == 0 else ["product", "compose"] + (["recenter"] if m else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        return draw(_leaf(d, m))
    if kind == "product":
        return ("product", draw(_node(d, m, depth - 1)), draw(_node(d, m, depth - 1)))
    if kind == "compose":
        q = draw(st.integers(0, min(m, 1)))
        k = draw(st.integers(1, 3))
        outer = draw(_node(k, q, min(depth - 1, 1)))
        return ("compose", outer, [draw(_node(d, m - q, depth - 1)) for _ in range(k)])
    nu = draw(st.integers(1, m))
    F = draw(_node(d, m - nu, depth - 1))
    return ("recenter", F, draw(st.integers(0, nu - 1)), nu, draw(st.sampled_from((0.0, 1.5))))


def _build(tree, mode):
    """The tree's functional: ``new`` rules, ``twin`` rules over bare leaves, ``ref`` closures."""
    kind = tree[0]
    if kind == "leaf":
        _, leaf, args, d, m = tree
        if leaf == "cylinder":
            coef, has_hess, has_dt = args
            f, grad, hess, dt, da = _python_partials(coef, d, m)
            F = cylinder(f, d, m, grad, hess if has_hess else None, dt if has_dt else None, da)
        elif leaf == "coordinate":
            F = coordinate(args, d, m)
        elif leaf == "bv_coordinate":
            F = bv_coordinate(args, m, d)
        else:
            F = constant_functional(args, d, m)
        return _bare(F) if mode == "twin" else F
    if kind == "product":
        parts = [_build(p, mode) for p in tree[1:]]
        return (_ref_product if mode == "ref" else product)(*parts)
    if kind == "compose":
        outer, inners = _build(tree[1], mode), [_build(p, mode) for p in tree[2]]
        return (_ref_compose if mode == "ref" else compose)(outer, inners)
    _, sub, ell, nu, c = tree
    F = _build(sub, mode)
    return (_ref_recentered if mode == "ref" else _augmented_functional)(F, ell, F.m, nu, c)


def _leaves(tree):
    kind = tree[0]
    if kind == "leaf":
        return [tree]
    if kind == "product":
        subtrees = tree[1:]
    elif kind == "compose":
        subtrees = [tree[1], *tree[2]]
    else:
        subtrees = [tree[1]]
    return [leaf for sub in subtrees for leaf in _leaves(sub)]


def _state_slots(tree):
    """Slots with a state form: a cylinder leaf without hess or dt sends its
    slot to finite differences, and so every combinator above it."""
    cylinders = [leaf[2] for leaf in _leaves(tree) if leaf[1] == "cylinder"]
    slots = {"evaluate", "vertical"}
    if all(has_hess for _, has_hess, _ in cylinders):
        slots.add("vertical2")
    if all(has_dt for _, _, has_dt in cylinders):
        slots.add("horizontal")
    return slots


@st.composite
def _trees(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 3))
    return draw(_node(d, m, draw(st.integers(1, 2)))), d, m, draw(st.integers(0, 2**16))


# A failing tree is reported unshrunk: each shrink step rebuilds a tree and
# evaluates every slot at every time, minutes for one failing example.
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class _PartCalled(Exception):
    pass


def _refusing_parts_of(F):
    """``Functional._at`` that lets only F answer a point call."""
    at = Functional._at

    def guarded(self, slot, t, x, a):
        if self is not F:
            raise _PartCalled(f"{self.name}.{slot} at t={t}")
        return at(self, slot, t, x, a)

    return guarded


def _outcome(fn, *args):
    """The bits of fn(*args), or GridError: a finite difference needs a grid time."""
    try:
        return _bits(fn(*args))
    except GridError:
        return GridError


@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(_trees())
def test_combinator_rules_match_the_point_closures_bitwise(case):
    tree, d, m, seed = case
    F, ref = _build(tree, "new"), _build(tree, "ref")
    assert set(F._on_states) == _state_slots(tree) and not ref._on_states
    x, _, a = _data(seed, d, m)
    times = [*x.times.tolist(), *(0.5 * (x.times[:-1] + x.times[1:])).tolist()]
    wants = {}
    for slot in SLOTS:
        want = wants[slot] = [_outcome(getattr(ref, slot), t, x, a) for t in times]
        assert all(isinstance(w, bytes) for w in want[: x.n_points]), slot
        if slot in F._on_states:
            rows = _state_slot(F, slot, x, a)
            assert [_bits(row) for row in rows] == want[: x.n_points], slot
        with pytest.MonkeyPatch.context() as patch:
            if slot in F._on_states:
                # a slot with a state form answers from it, not from its parts
                patch.setattr(Functional, "_at", _refusing_parts_of(F))
            assert [_outcome(getattr(F, slot), t, x, a) for t in times] == want, slot
    twin = _build(tree, "twin")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Functional, "_at", _refusing_parts_of(twin))
        with pytest.raises(_PartCalled):
            twin.evaluate(times[1], x, a)
    assert _outcome(twin.evaluate, times[1], x, a) == wants["evaluate"][1]


@settings(max_examples=30, deadline=None, phases=_NO_SHRINK)
@given(_trees(), st.data())
def test_combinator_integrals_take_the_state_route_and_twins_the_per_cell_one(case, data):
    tree, d, m, seed = case
    levels = sorted(data.draw(st.sets(st.integers(1, NUM_LEVELS), min_size=1)))
    x, part, a = _data(seed, d, m)
    want = ito_integral(AdmissibleIntegrand(_build(tree, "ref"), a), x, part, levels)
    with pytest.MonkeyPatch.context() as patch:
        for module in (ito, reduction):
            patch.setattr(module, "map_chunked", _refuse)
        got = ito_integral(AdmissibleIntegrand(_build(tree, "new"), a), x, part, levels)
    assert _bits(got.values) == _bits(want.values)
    twin = _build(tree, "twin")
    assert not twin._on_states
    cells = []

    def counted(fill, out):
        cells.append(out.shape[0])
        return reduction.map_chunked(fill, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ito, "map_chunked", counted)
        per_cell = ito_integral(AdmissibleIntegrand(twin, a), x, part, levels)
    assert cells == [part.indices(n).size - 1 for n in reversed(levels)]
    assert _bits(per_cell.values) == _bits(want.values)
