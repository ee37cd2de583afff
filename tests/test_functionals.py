import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathwise_ito.config import build_functional
from pathwise_ito.functionals import (
    Functional,
    ProbeSchedule,
    bv_coordinate,
    compose,
    constant_functional,
    coordinate,
    cylinder,
    fd_horizontal,
    fd_vertical,
    fd_vertical2,
    probe_regularity,
    product,
    quadratic_variation_path,
    running_max_path,
    time_average_path,
)
from pathwise_ito.paths import (
    LINEAR,
    BVPath,
    Box,
    DomainError,
    PartitionSequence,
    SampledPath,
    concat_components,
    positive_orthant,
    stop,
)


def _grid(n=257, horizon=1.0):
    return np.linspace(0.0, horizon, n)


def _wavy_path(n=257):
    t = _grid(n)
    return SampledPath(t, np.sin(2.0 * np.pi * t) + t, LINEAR)


def _two_component_path(n=257):
    t = _grid(n)
    vals = np.column_stack([np.sin(2.0 * np.pi * t) + t, np.cos(3.0 * t) - 0.5 * t])
    return SampledPath(t, vals, LINEAR)


def _square_cylinder(m=0):
    # f(t, x, a) = x^2 with full analytic data
    return cylinder(
        lambda t, xv, av: xv[0] ** 2,
        d=1,
        m=m,
        grad=lambda t, xv, av: np.array([2.0 * xv[0]]),
        hess=lambda t, xv, av: np.array([[2.0]]),
        dt=lambda t, xv, av: 0.0,
        da=(lambda t, xv, av: np.zeros(m)) if m else None,
        name="x^2",
    )


def test_coordinate_reads_the_path():
    x = _two_component_path()
    F = coordinate(1, d=2)
    assert F.evaluate(0.25, x) == x.value(0.25)[1]
    assert np.array_equal(F.vertical(0.25, x), np.array([0.0, 1.0]))
    assert np.array_equal(F.vertical2(0.25, x), np.zeros((2, 2)))


def test_bv_coordinate_reads_the_extra_component():
    x = _wavy_path()
    a = BVPath(x.times, x.times**2)
    G = bv_coordinate(0, m=1, d=1)
    assert G.evaluate(0.5, x, a) == 0.25
    assert np.array_equal(G.horizontal(0.5, x, a), np.array([0.0, 1.0]))


def test_argument_checks():
    x = _wavy_path()
    a = BVPath(x.times, x.times**2)
    F = coordinate(0, d=1, m=0)
    with pytest.raises(ValueError):
        F.evaluate(0.5, x, a)
    with pytest.raises(ValueError):
        coordinate(0, d=2).evaluate(0.5, x)
    with pytest.raises(ValueError):
        coordinate(3, d=2)


def test_non_anticipativity_of_builtins_is_exact():
    x = _two_component_path()
    a = BVPath(x.times, np.column_stack([x.times**2, np.sqrt(1.0 + x.times)]))
    sq = cylinder(
        lambda t, xv, av: xv[0] * av[1] + xv[1] ** 2,
        d=2,
        m=2,
        name="mix",
    )
    funcs = [
        coordinate(0, d=2, m=2),
        bv_coordinate(1, m=2, d=2),
        sq,
        product(coordinate(0, d=2, m=2), coordinate(1, d=2, m=2)),
    ]
    for t in (0.0, 0.25, 0.5, 0.625, 1.0):
        xs, As = stop(x, t), stop(a, t)
        for F in funcs:
            assert F.evaluate(t, x, a) == F.evaluate(t, xs, As)


def test_fd_vertical_of_coordinate_is_one():
    x = _wavy_path()
    out = fd_vertical(coordinate(0), 0.5, x)
    assert out.shape == (1,)
    assert math.isclose(out[0], 1.0, rel_tol=1e-12)


def test_fd_vertical_of_history_integral_is_exactly_zero():
    # F = integral of X over [0, t) with left sums never reads values at
    # times >= t, so the bump cancels identically.
    def hist(t, xp, ap):
        j = np.searchsorted(xp.times, t - 1e-12)
        return float(np.sum(xp.values[: j - 1, 0] * np.diff(xp.times[:j]))) if j > 1 else 0.0

    F = Functional(hist, d=1, name="hist")
    x = _wavy_path()
    out = fd_vertical(F, 0.5, x)
    assert out[0] == 0.0


def test_fd_vertical_of_square_near_analytic_value():
    # X(t0) = 2 by construction; derivative of x^2 there is 4
    t = _grid()
    x = SampledPath(t, 2.0 * np.ones_like(t) + 0.3 * (t - 0.5), LINEAR)
    out = fd_vertical(_square_cylinder(), 0.5, x, h=1e-4)
    assert math.isclose(out[0], 4.0, rel_tol=1e-9)


def test_fd_vertical_quadratic_error_trend():
    # central differences: error C h^2, so shrinking h tenfold cuts the
    # error by about 100; exp has all derivatives nonzero
    F = cylinder(lambda t, xv, av: math.exp(xv[0]), d=1, name="exp")
    x = _wavy_path()
    exact = math.exp(x.value(0.5)[0])
    errs = [abs(fd_vertical(F, 0.5, x, h=h)[0] - exact) for h in (1e-3, 1e-4)]
    assert errs[1] < errs[0] * 0.05
    assert errs[0] < exact * 1e-5


def test_fd_vertical_falls_back_to_one_sided_at_the_boundary():
    t = _grid(65)
    x = SampledPath(t, np.full_like(t, 0.05), LINEAR, domain=Box((0.0,), (np.inf,)))
    F = cylinder(
        lambda t_, xv, av: math.log(xv[0]),
        d=1,
        x_domain=Box((0.0,), (np.inf,)),
        name="log",
    )
    # h = 0.1 would push the down-bump to -0.05, outside the domain
    out = fd_vertical(F, 0.5, x, h=0.1)
    assert math.isclose(out[0], (math.log(0.15) - math.log(0.05)) / 0.1, rel_tol=1e-12)
    # both bumps violating is a genuine boundary hit
    tight = Box((0.04,), (0.06,))
    F_tight = cylinder(lambda t_, xv, av: xv[0], d=1, x_domain=tight, name="idt")
    with pytest.raises(DomainError):
        fd_vertical(F_tight, 0.5, x, h=0.1)


def test_fd_vertical2_matches_hessian_and_is_symmetric():
    F = cylinder(
        lambda t, xv, av: xv[0] ** 2 * xv[1],
        d=2,
        hess=lambda t, xv, av: np.array([[2.0 * xv[1], 2.0 * xv[0]], [2.0 * xv[0], 0.0]]),
        name="x1^2 x2",
    )
    x = _two_component_path()
    fd = fd_vertical2(Functional(F.evaluate, d=2, name="twin"), 0.5, x, h=1e-4)
    analytic = F.vertical2(0.5, x)
    assert np.array_equal(fd, fd.T)
    assert np.max(np.abs(fd - analytic)) < 1e-6


def test_fd_horizontal_of_bv_coordinate_is_zero_one():
    x = _wavy_path()
    a = BVPath(x.times, x.times**2)
    out = fd_horizontal(bv_coordinate(0, m=1), 0.5, x, a)
    assert out[0] == 0.0
    assert out[1] == 1.0


def test_fd_horizontal_of_clock_and_coordinate():
    x = _wavy_path()
    a = BVPath(x.times, x.times**2)
    clock = Functional(lambda t, xp, ap: t, d=1, m=1, name="t")
    out = fd_horizontal(clock, 0.5, x, a)
    assert math.isclose(out[0], 1.0, rel_tol=1e-9)
    assert out[1] == 0.0
    # the stopped path is constant past t, so the time quotient vanishes
    cx = Functional(lambda t, xp, ap: xp.value(t)[0], d=1, m=1, name="x")
    assert np.array_equal(fd_horizontal(cx, 0.5, x, a), np.zeros(2))


def test_fd_horizontal_flags_flat_components_and_vanishing_window():
    x = _wavy_path()
    flat = BVPath(x.times, np.ones_like(x.times))
    out, flags = fd_horizontal(bv_coordinate(0, m=1), 0.5, x, flat, return_flags=True)
    assert out[1] == 0.0 and flags[1] and not flags[0]
    out, flags = fd_horizontal(bv_coordinate(0, m=1), 1.0, x, BVPath(x.times, x.times), return_flags=True)
    assert np.array_equal(out, np.zeros(2)) and flags.all()


def test_fd_horizontal_linear_error_trend():
    # forward-in-time quotients converge at rate O(h)
    n = 2**12 + 1
    t = _grid(n)
    x = SampledPath(t, np.sin(t), LINEAR)
    a = BVPath(t, t**2)
    F = cylinder(lambda t_, xv, av: av[0] ** 2, d=1, m=1, name="a^2")
    exact = 2.0 * 0.25
    errs = [abs(fd_horizontal(F, 0.5, x, a, h=h)[1] - exact) for h in (1e-1, 1e-2)]
    assert errs[1] < errs[0] * 0.3


def _leibniz_vertical(F, G, t, x, a=None):
    return G.evaluate(t, x, a) * F.vertical(t, x, a) + F.evaluate(t, x, a) * G.vertical(t, x, a)


def test_product_rule_matches_independent_evaluation():
    x = _two_component_path()
    F = coordinate(0, d=2)
    G = cylinder(
        lambda t, xv, av: math.exp(xv[1]),
        d=2,
        grad=lambda t, xv, av: np.array([0.0, math.exp(xv[1])]),
        name="exp(x2)",
    )
    P = product(F, G)
    for t in (0.25, 0.5, 0.75):
        assert P.evaluate(t, x) == F.evaluate(t, x) * G.evaluate(t, x)
        assert np.array_equal(P.vertical(t, x), _leibniz_vertical(F, G, t, x))


def test_product_with_one_is_identity():
    x = _wavy_path()
    a = BVPath(x.times, x.times)
    G = _square_cylinder(m=1)
    P = product(constant_functional(1.0, d=1, m=1), G)
    for t in (0.0, 0.5, 1.0):
        assert P.evaluate(t, x, a) == G.evaluate(t, x, a)
        assert np.array_equal(P.vertical(t, x, a), G.vertical(t, x, a))
        assert np.array_equal(P.vertical2(t, x, a), G.vertical2(t, x, a))
        assert np.array_equal(P.horizontal(t, x, a), G.horizontal(t, x, a))


def test_product_vertical_against_finite_differences():
    x = _wavy_path()
    P = product(coordinate(0), coordinate(0))
    twin = Functional(P.evaluate, d=1, name="sq twin")
    t0 = 0.5
    exact = 2.0 * x.value(t0)[0]
    assert math.isclose(P.vertical(t0, x)[0], exact, rel_tol=1e-15)
    assert math.isclose(fd_vertical(twin, t0, x, h=1e-5)[0], exact, rel_tol=1e-8)


def test_product_requires_matching_shapes():
    with pytest.raises(ValueError):
        product(coordinate(0, d=1), coordinate(0, d=2))


def _inner_pair():
    F1 = cylinder(
        lambda t, xv, av: xv[0] * av[0] + xv[1],
        d=2,
        m=1,
        grad=lambda t, xv, av: np.array([av[0], 1.0]),
        hess=lambda t, xv, av: np.zeros((2, 2)),
        dt=lambda t, xv, av: 0.0,
        da=lambda t, xv, av: np.array([xv[0]]),
        name="x1 a + x2",
    )
    F2 = cylinder(
        lambda t, xv, av: xv[1] ** 2 + t,
        d=2,
        m=1,
        grad=lambda t, xv, av: np.array([0.0, 2.0 * xv[1]]),
        hess=lambda t, xv, av: np.array([[0.0, 0.0], [0.0, 2.0]]),
        dt=lambda t, xv, av: 1.0,
        da=lambda t, xv, av: np.array([0.0]),
        name="x2^2 + t",
    )
    return F1, F2


def _outer():
    return cylinder(
        lambda t, yv, bv: yv[0] ** 2 * yv[1] + bv[0] ** 2 + math.sin(t),
        d=2,
        m=1,
        grad=lambda t, yv, bv: np.array([2.0 * yv[0] * yv[1], yv[0] ** 2]),
        hess=lambda t, yv, bv: np.array([[2.0 * yv[1], 2.0 * yv[0]], [2.0 * yv[0], 0.0]]),
        dt=lambda t, yv, bv: math.cos(t),
        da=lambda t, yv, bv: np.array([2.0 * bv[0]]),
        name="g",
    )


def _compose_fixture(n=2**12 + 1):
    t = _grid(n)
    vals = np.column_stack([np.sin(2.0 * np.pi * t) + t, np.cos(3.0 * t) - 0.5 * t])
    x = SampledPath(t, vals, LINEAR)
    a = BVPath(t, t**2)
    b = BVPath(t, np.sqrt(1.0 + t))
    return x, a, b, concat_components(a, b)


def test_compose_identity_outer_reproduces_the_inner():
    x, a, _, _ = _compose_fixture(257)
    ident = cylinder(
        lambda t, yv, bv: yv[0],
        d=1,
        grad=lambda t, yv, bv: np.array([1.0]),
        hess=lambda t, yv, bv: np.zeros((1, 1)),
        dt=lambda t, yv, bv: 0.0,
        name="id",
    )
    F1, _ = _inner_pair()
    H = compose(ident, [F1])
    for t in (0.25, 0.5, 0.875):
        assert H.evaluate(t, x, a) == F1.evaluate(t, x, a)
        assert np.array_equal(H.vertical(t, x, a), F1.vertical(t, x, a))


def test_compose_square_outer_gives_two_x():
    x = _wavy_path()
    outer_sq = cylinder(
        lambda t, yv, bv: yv[0] ** 2,
        d=1,
        grad=lambda t, yv, bv: np.array([2.0 * yv[0]]),
        name="y^2",
    )
    H = compose(outer_sq, [coordinate(0)])
    t0 = 0.5
    assert math.isclose(H.vertical(t0, x)[0], 2.0 * x.value(t0)[0], rel_tol=1e-15)


def test_compose_all_five_formulas_against_direct_nesting():
    x, a, b, ab = _compose_fixture()
    F1, F2 = _inner_pair()
    H = compose(_outer(), [F1, F2])
    twin = Functional(H.evaluate, d=2, m=2, name="H twin")
    t0 = 0.5
    v = H.vertical(t0, x, ab)
    assert np.max(np.abs(v - fd_vertical(twin, t0, x, ab, h=1e-5))) < 1e-7
    v2 = H.vertical2(t0, x, ab)
    assert np.array_equal(v2, v2.T)
    assert np.max(np.abs(v2 - fd_vertical2(twin, t0, x, ab, h=1e-4))) < 1e-6
    hz = H.horizontal(t0, x, ab)
    fd = fd_horizontal(twin, t0, x, ab, h=1e-3)
    assert np.max(np.abs(hz - fd)) < 1e-2
    # the outer is quadratic in b, so its difference quotient sits O(h) off
    # the partial 2 b(t): (b(t+h)^2 - b(t)^2) / (b(t+h) - b(t)) = b(t+h) + b(t)
    assert abs(hz[2] - fd[2]) < 1e-3


def test_compose_outer_component_derivative_ignores_the_inners():
    # D_{m+j}H reads only the outer functional's data; changing the inner
    # functionals moves the other entries but not that one
    x, a, b, ab = _compose_fixture(2**10 + 1)
    F1, F2 = _inner_pair()
    F1_scaled = cylinder(
        lambda t, xv, av: 3.0 * xv[0] * av[0] - xv[1],
        d=2,
        m=1,
        grad=lambda t, xv, av: np.array([3.0 * av[0], -1.0]),
        hess=lambda t, xv, av: np.zeros((2, 2)),
        dt=lambda t, xv, av: 0.0,
        da=lambda t, xv, av: np.array([3.0 * xv[0]]),
        name="pert",
    )
    h1 = compose(_outer(), [F1, F2]).horizontal(0.5, x, ab)
    h2 = compose(_outer(), [F1_scaled, F2]).horizontal(0.5, x, ab)
    assert h1[2] == h2[2]
    assert h1[0] != h2[0] and h1[1] != h2[1]


def test_compose_validates_shapes():
    F1, F2 = _inner_pair()
    with pytest.raises(ValueError):
        compose(_outer(), [F1])
    with pytest.raises(ValueError):
        compose(_outer(), [F1, coordinate(0, d=2, m=0)])
    # a composed functional takes the inner and outer components as one path
    x, a, _, _ = _compose_fixture(257)
    with pytest.raises(ValueError):
        compose(_outer(), [F1, F2]).evaluate(0.625, x, a)


def test_compose_checks_the_outer_domain():
    x = _wavy_path()
    outer_log = cylinder(
        lambda t, yv, bv: math.log(yv[0]),
        d=1,
        x_domain=Box((0.0,), (np.inf,)),
        name="log",
    )
    H = compose(outer_log, [coordinate(0)])
    # the inner path dips negative on this x
    with pytest.raises(DomainError):
        H.evaluate(0.75, x)


def test_merged_domains_are_the_intersecting_box():
    # a config product of two positive cylinders merges two equal boxes
    spec = {"cylinder": {"f": "x1", "positive": True}}
    assert build_functional({"product": [spec, spec]}, 1, 0).x_domain == positive_orthant(1)
    lo = cylinder(lambda t, xv, av: xv[0], d=2, x_domain=Box((0.0, -1.0), (2.0, np.inf)))
    hi = cylinder(lambda t, xv, av: xv[1], d=2, x_domain=Box((-np.inf, 0.5), (1.0, 3.0)))
    v = np.array(np.meshgrid(*[[-1.0, 0.0, 0.25, 0.5, 0.75, 1.0, 2.0, 3.0, 4.0]] * 2)).T.reshape(-1, 2)
    both = lo.x_domain.contains(v) & hi.x_domain.contains(v)
    for H in (product(lo, hi), compose(coordinate(0, d=2), [lo, hi])):
        assert H.x_domain == Box((0.0, 0.5), (1.0, 3.0))
        assert np.array_equal(H.x_domain.contains(v), both)


def test_compose_cost_stays_linear():
    # evaluating H at one time must probe the inners O(1) times, not once
    # per grid point
    calls = {"n": 0}

    def counting(t, xp, ap):
        calls["n"] += 1
        return xp.value(t)[0]

    inner = Functional(counting, d=1, name="counted")
    outer_sq = cylinder(
        lambda t, yv, bv: yv[0] ** 2,
        d=1,
        grad=lambda t, yv, bv: np.array([2.0 * yv[0]]),
        name="y^2",
    )
    H = compose(outer_sq, [inner])
    x = _wavy_path(2**12 + 1)
    H.evaluate(0.5, x)
    H.vertical(0.5, x)
    assert calls["n"] < 20


def test_time_average_path_matches_trapezoid():
    x = _wavy_path(129)
    ta = time_average_path(x)
    assert ta.values[0, 0] == x.values[0, 0]
    k = 64
    t_k = x.times[: k + 1]
    v_k = x.values[: k + 1, 0]
    want = np.trapezoid(v_k, t_k) / x.times[k]
    assert math.isclose(ta.values[k, 0], want, rel_tol=1e-12)


def test_running_max_path_is_the_prefix_maximum():
    x = _wavy_path(129)
    rm = running_max_path(x)
    want = np.maximum.accumulate(x.values[:, 0])
    assert np.array_equal(rm.values[:, 0], want)


def test_quadratic_variation_path_component():
    from pathwise_ito.qv import qv_scalar

    t = _grid(2**8 + 1)
    rng = np.random.default_rng(5)
    x = SampledPath(t, np.concatenate([[0.0], np.cumsum(rng.normal(0, 2.0 ** -4, 2**8))]), LINEAR)
    part = PartitionSequence(x.times, num_levels=6)
    qvp = quadratic_variation_path(x, part, 6)
    assert qvp.m == 1
    assert qvp.values[-1, 0] == qv_scalar(x, part, 6)
    assert np.all(np.diff(qvp.values[:, 0]) > -1e-15)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_quadratic_variation_path_is_the_qv_matrix_diagonal_bitwise(data):
    from pathwise_ito.qv import qv_matrix

    d = data.draw(st.integers(1, 4))
    n_pts = data.draw(st.integers(2, 2**8 + 1))  # partial last cells included
    num_levels = data.draw(st.integers(1, 8))
    flat = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=n_pts * d, max_size=n_pts * d))
    x = SampledPath(_grid(n_pts), np.array(flat).reshape(n_pts, d), LINEAR)
    part = PartitionSequence(x.times, num_levels)
    for n in range(1, num_levels + 1):
        entries = qv_matrix(x, part, n)
        for i in range(d):
            got = quadratic_variation_path(x, part, n, i).values[:, 0]
            assert got.tobytes() == entries.entry_path(i, i).tobytes(), (n, i)


def test_quadratic_variation_path_ignores_another_components_overflow():
    # x2's squared jumps (1e310) overflow; x1's component reads only x1
    from pathwise_ito.qv import qv_scalar

    t = _grid(9)
    alternating = np.arange(9) % 2
    x = SampledPath(t, np.column_stack([0.1 * alternating, 1e155 * alternating]), LINEAR)
    part = PartitionSequence(t, 3)
    qvp = quadratic_variation_path(x, part, 3, 0)
    assert qvp.values[-1, 0] == qv_scalar(x, part, 3, component=0)
    assert math.isclose(qvp.values[-1, 0], 0.08, rel_tol=1e-12)
    with pytest.raises(DomainError, match=r"non-finite qv_22 at level 3, grid time 0\.125"):
        quadratic_variation_path(x, part, 3, 1)


def test_probe_regularity_accepts_a_coordinate():
    x = _wavy_path()
    rep = probe_regularity(coordinate(0), x)
    assert rep.ok
    assert rep.left_continuity_ok and rep.continuity_ok
    assert math.isfinite(rep.bound_constant)
    assert rep.left_moduli[-1] < rep.left_moduli[0]


def test_probe_regularity_flags_a_time_jump():
    x = _wavy_path()
    F = Functional(lambda t, xp, ap: 1.0 if t >= 0.5 else 0.0, d=1, name="jump")
    rep = probe_regularity(F, x, schedule=ProbeSchedule(times=(0.5, 0.75)))
    assert not rep.left_continuity_ok
    assert rep.continuity_ok  # fixed-time perturbations never see the jump


def test_probe_regularity_is_deterministic():
    x = _wavy_path()
    F = _square_cylinder()
    r1 = probe_regularity(F, x, schedule=ProbeSchedule(seed=11))
    r2 = probe_regularity(F, x, schedule=ProbeSchedule(seed=11))
    assert np.array_equal(r1.left_moduli, r2.left_moduli)
    assert np.array_equal(r1.fixed_time_moduli, r2.fixed_time_moduli)
    assert r1.bound_constant == r2.bound_constant


@settings(max_examples=40, deadline=None)
@given(
    c=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    k=st.integers(min_value=0, max_value=256),
)
def test_non_anticipativity_survives_products_and_shifts(c, k):
    t = _grid(257)
    x = SampledPath(t, np.sin(5.0 * t) + c * t, LINEAR)
    P = product(coordinate(0), _square_cylinder())
    t0 = float(t[k])
    assert P.evaluate(t0, x) == P.evaluate(t0, stop(x, t0))
