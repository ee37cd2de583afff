"""Differential tests: the state path of cylinders against the per-cell path.

A cylinder reads only (t, X(t), A(t)), so its analytic slots run once on
the grid's state arrays.  The reference wraps the same cylinder's
per-point methods in a bare Functional, which has no state form: its
integral rebuilds a pre-step path per cell and its samples go point by
point.  Both must give the same bits, for config-built cylinders (compiled
array formulas) and Python-API cylinders (scalar callables) alike.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.config import build_functional
from pathwise_ito.expressions import compile_expression, state_variables
from pathwise_ito.functionals import (
    Functional,
    cylinder,
    running_max_path,
    time_average_path,
)
from pathwise_ito.ito import (
    AdmissibleIntegrand,
    _sampled,
    ito_formula_report,
    ito_integral,
)
from pathwise_ito.pathgen import GeneratorSpec, generate
from pathwise_ito.paths import BVPath, DomainError, PartitionSequence, concat_components

N_POINTS = 64
NUM_LEVELS = 5
SLOTS = ("evaluate", "vertical", "vertical2", "horizontal")

ATOMS = (
    "{v}",
    "{v}**2",
    "{v}*{w}",
    "{v}**2*{w}",
    "exp({v})",
    "log(1 + {v}**2)",
    "sin({v}*{w})",
)


def _reference(F: Functional) -> Functional:
    """F seen as a general functional: same values, no state form."""
    ref = Functional(
        evaluate=F.evaluate,
        d=F.d,
        m=F.m,
        vertical=F.vertical,
        vertical2=F.vertical2,
        horizontal=F.horizontal,
        name=F.name,
    )
    assert F._on_states and not ref._on_states
    return ref


def _python_api(spec: dict, d: int, m: int) -> Functional:
    """A cylinder() with scalar callables over the same compiled formulas."""
    variables = state_variables(d, m)

    def comp(text):
        return compile_expression(text, variables)

    def scalar(fn):
        return lambda t, xv, av: float(fn(t, *xv, *av))

    def vector(texts):
        fns = [comp(e) for e in texts]
        return lambda t, xv, av: np.array([float(fn(t, *xv, *av)) for fn in fns])

    def matrix(rows):
        rows = [vector(row) for row in rows]
        return lambda t, xv, av: np.array([row(t, xv, av) for row in rows])

    def optional(key, wrap):
        return None if spec.get(key) is None else wrap(spec[key])

    return cylinder(
        scalar(comp(spec["f"])),
        d=d,
        m=m,
        grad=optional("grad", vector),
        hess=optional("hess", matrix),
        dt=optional("dt", lambda e: scalar(comp(e))),
        da=optional("da", vector),
    )


def _data(seed: int, d: int, m: int):
    x = generate(GeneratorSpec(kind="brownian", base_points=N_POINTS, d=d, seed=seed))
    part = PartitionSequence(x.times, num_levels=NUM_LEVELS)
    a = None
    for k in range(m):
        piece = (time_average_path if k % 2 == 0 else running_max_path)(x, k % d)
        a = piece if a is None else concat_components(a, piece)
    return x, part, a


@st.composite
def _formula(draw, variables):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        atom = draw(st.sampled_from(ATOMS))
        v, w = draw(st.sampled_from(variables)), draw(st.sampled_from(variables))
        coef = draw(st.sampled_from(("1", "2", "-3", "1/2", "0.3")))
        terms.append(f"{coef}*" + atom.format(v=v, w=w))
    return " + ".join(terms)


@st.composite
def _cases(draw):
    d = draw(st.integers(1, 3))
    m = draw(st.integers(0, 2))
    variables = state_variables(d, m)
    formula = _formula(variables)
    spec = {"f": draw(formula), "grad": [draw(formula) for _ in range(d)]}
    # the other derivative slots are formulas or left to finite differences
    if draw(st.booleans()):
        spec["hess"] = [[draw(formula) for _ in range(d)] for _ in range(d)]
    if draw(st.booleans()):
        spec["dt"] = draw(formula)
        spec["da"] = [draw(formula) for _ in range(m)]
    levels = sorted(draw(st.sets(st.integers(1, NUM_LEVELS), min_size=1)))
    seed = draw(st.integers(0, 2**16))
    return d, m, spec, levels, seed


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=np.float64).tobytes()


@settings(max_examples=25, deadline=None)
@given(_cases(), st.sampled_from(["config", "python"]))
def test_state_path_matches_per_cell_path_bitwise(case, api):
    d, m, spec, levels, seed = case
    x, part, a = _data(seed, d, m)
    if api == "config":
        F = build_functional({"cylinder": spec}, d, m)
    else:
        F = _python_api(spec, d, m)
    ref = _reference(F)
    for plain in (False, True):
        got = ito_integral(AdmissibleIntegrand(F, a), x, part, levels, plain_riemann=plain)
        want = ito_integral(AdmissibleIntegrand(ref, a), x, part, levels, plain_riemann=plain)
        assert _bits(got.values) == _bits(want.values)
        assert _bits(got.cauchy_diffs) == _bits(want.cauchy_diffs)
    got = ito_formula_report(F, x, a, part, levels)
    want = ito_formula_report(ref, x, a, part, levels)
    for term in ("lhs", "ito_at_T", "horizontal_at_T", "qv_at_T", "residuals"):
        assert _bits(getattr(got, term)) == _bits(getattr(want, term)), term
    for slot in SLOTS:
        assert _bits(_sampled(F, slot, x, a)) == _bits(_sampled(ref, slot, x, a)), slot


@settings(max_examples=15, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(0, 2**16),
    st.integers(1, 7),
    st.sampled_from(["config", "python"]),
)
def test_non_finite_cell_names_the_same_level_and_time(d, seed, k, api):
    # log(k - 8t) is nan from t > k/8 on (-inf at t = k/8), finite before
    x, part, _ = _data(seed, d, 0)
    levels = [2, 4, 5]
    spec = {"f": "x1", "grad": [f"x1 + log({k} - 8*t)"] + ["x1"] * (d - 1)}
    F = build_functional({"cylinder": spec}, d, 0) if api == "config" else _python_api(spec, d, 0)
    lefts = part.points(levels[0])[:-1]
    first = float(lefts[lefts >= k / 8][0])
    for G in (F, _reference(F)):
        for plain in (False, True):
            with pytest.raises(DomainError) as info:
                ito_integral(AdmissibleIntegrand(G), x, part, levels, plain_riemann=plain)
            assert str(info.value) == f"non-finite ito term xi . dX at level 2, grid time {first}"


def test_wrong_gradient_length_raises_the_same_error():
    x, part, _ = _data(3, 2, 0)
    F = cylinder(lambda t, xv, av: xv[0], d=2, grad=lambda t, xv, av: np.array([1.0, 2.0, 3.0]))
    messages = []
    for G in (F, _reference(F)):
        with pytest.raises(ValueError) as info:
            ito_integral(AdmissibleIntegrand(G), x, part, [3])
        messages.append(str(info.value))
    assert messages[0] == messages[1] == "cylinder: derivative must have 2 entries"


def test_component_path_on_another_grid_falls_back_to_points():
    x, part, _ = _data(5, 1, 0)
    F = build_functional({"cylinder": {"f": "x1*a1", "grad": ["a1"]}}, 1, 1)
    fine = np.linspace(0.0, 1.0, 2 * N_POINTS - 1)
    a = BVPath(fine, fine**2)
    got = _sampled(F, "vertical", x, a)
    want = np.array([F.vertical(float(t), x, a) for t in x.times])
    assert _bits(got) == _bits(want)
