"""Acceptance suite: the eleven headline checks, one pass line each.

Each test prints ``criterion NN PASS`` with its runtime once its
assertions hold, so running ``pytest tests/test_acceptance.py -s -q``
gives one line per criterion.  Budgets are asserted per test and for
the suite as a whole.
"""

import json
import math
import time

import numpy as np

from pathwise_ito.cli import cli_main
from pathwise_ito.config import default_num_levels
from pathwise_ito.functionals import (
    bv_coordinate,
    compose,
    constant_functional,
    coordinate,
    cylinder,
    fd_horizontal,
    fd_vertical,
    fd_vertical2,
    product,
    time_average_path,
)
from pathwise_ito.ito import (
    AdmissibleIntegrand,
    associativity_check,
    augment,
    build_Y,
    corollary_decomposition,
    ito_formula_report,
    ito_integral,
    qv_of_Y_check,
)
from pathwise_ito.pathgen import GeneratorSpec, generate
from pathwise_ito.paths import (
    PartitionSequence,
    SampledPath,
    positive_orthant,
)
from pathwise_ito.qv import qv_matrix, qv_scalar
from pathwise_ito.stieltjes import StieltjesMeasure, cumulative_stieltjes

_ELAPSED: list[float] = []


def _finish(num: int, started: float, budget: float, text: str) -> None:
    elapsed = time.perf_counter() - started
    _ELAPSED.append(elapsed)
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"
    print(f"criterion {num:02d} PASS ({elapsed:.2f}s) {text}")


def _square():
    return cylinder(
        lambda t, xv, av: xv[0] ** 2,
        d=1,
        grad=lambda t, xv, av: np.array([2.0 * xv[0]]),
        hess=lambda t, xv, av: np.array([[2.0]]),
        name="x^2",
    )


def _exponential():
    return cylinder(
        lambda t, xv, av: math.exp(xv[0]),
        d=1,
        grad=lambda t, xv, av: np.array([math.exp(xv[0])]),
        hess=lambda t, xv, av: np.array([[math.exp(xv[0])]]),
        name="exp(x)",
    )


def _seed42_path():
    x = generate(GeneratorSpec(kind="brownian", base_points=2**14, seed=42))
    return x, PartitionSequence(x.times, num_levels=13)


def test_criterion_01_telescoping_for_every_generator_kind():
    started = time.perf_counter()
    specs = [
        GeneratorSpec(kind="brownian", base_points=2**10, seed=42),
        GeneratorSpec(kind="smooth", base_points=2**10, expression="sin(2*pi*t) + t/3"),
        GeneratorSpec(kind="monotone-bv", base_points=2**10, slope="2*t + 1/4"),
        GeneratorSpec(kind="takagi-like", base_points=2**10),
        GeneratorSpec(kind="constant", base_points=2**10, value=0.7),
    ]
    for spec in specs:
        x = generate(spec)
        part = PartitionSequence(x.times, num_levels=default_num_levels(x.n_points))
        res = ito_integral(AdmissibleIntegrand(coordinate(0)), x, part)
        for row, level in enumerate(res.levels):
            idx = part.indices(level)
            gap = np.abs(res.values[row, idx] - (x.values[idx, 0] - x.values[0, 0]))
            assert float(np.max(gap)) <= 1e-12, (spec.kind, level)
    _finish(1, started, 1.0, "integral of 1 dX telescopes on all five path kinds")


def test_criterion_02_square_decomposition_is_level_exact():
    started = time.perf_counter()
    x, part = _seed42_path()
    rep = ito_formula_report(_square(), x, None, part)
    assert float(np.max(np.abs(rep.residuals))) <= 1e-10
    finest_qv = qv_scalar(x, part, part.num_levels)
    assert math.isclose(rep.qv_at_T[-1], finest_qv, rel_tol=1e-12)
    _finish(2, started, 5.0, "x^2 decomposition exact per level, qv term matches")


def test_criterion_03_exponential_residual_converges():
    started = time.perf_counter()
    x, part = _seed42_path()
    rep = ito_formula_report(_exponential(), x, None, part, levels=(5, 9, 11, 13))
    errs = np.abs(rep.residuals)
    assert np.all(errs[-2:] < errs[-3:-1]), errs  # last three levels decrease
    assert errs[-1] / abs(rep.lhs) < 1e-3
    _finish(3, started, 10.0, "exp(x) residual decreasing, final relative below 1e-3")


def test_criterion_04_integral_agrees_with_stieltjes_on_bv_path():
    started = time.perf_counter()
    x = generate(GeneratorSpec(kind="monotone-bv", base_points=1024, slope="2*t + 1/4"))
    part = PartitionSequence(x.times, num_levels=9)
    res = ito_integral(AdmissibleIntegrand(_square()), x, part, levels=(5, 6, 7, 8, 9))
    mu = StieltjesMeasure(x.times, np.diff(x.values[:, 0]))
    oracle = cumulative_stieltjes(2.0 * x.values[:, 0], mu)
    diffs = [float(np.max(np.abs(res.values[r] - oracle))) for r in range(5)]
    for coarse, fine in zip(diffs, diffs[1:]):
        assert fine <= coarse / 1.5 + 1e-15
    assert diffs[-1] / abs(oracle[-1]) < 1e-6
    _finish(4, started, 2.0, "Stieltjes gap shrinks by 1.5x per level, finest exact")


def test_criterion_05_polarization_on_w_w_minus_w():
    started = time.perf_counter()
    w = generate(GeneratorSpec(kind="brownian", base_points=2**10, seed=5))
    col = w.values[:, 0]
    x = SampledPath(w.times, np.column_stack([col, col, -col]))
    part = PartitionSequence(x.times, num_levels=9)
    qm = qv_matrix(x, part, 9)
    e00 = qm.entry_path(0, 0)
    # same component twice: covariation collapses to the scalar qv
    np.testing.assert_allclose(qm.entry_path(0, 1), e00, rtol=1e-13, atol=0.0)
    # opposite sign: exactly mirrored, bit for bit
    assert np.array_equal(qm.entry_path(0, 2), -e00)
    for i in range(3):
        for j in range(3):
            assert np.array_equal(qm.entry_path(i, j), qm.entry_path(j, i))
    _finish(5, started, 2.0, "polarization identities on (W, W, -W)")


def _probe_bank(seed=2026, n=2**12, num_paths=10, per_path=5):
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, 1.0, n + 1)
    bank = []
    for _ in range(num_paths):
        z = rng.standard_normal((n, 2)) * math.sqrt(1.0 / n)
        x = SampledPath(times, np.vstack([np.zeros((1, 2)), np.cumsum(z, axis=0)]))
        a = time_average_path(x, 0)
        idx = rng.integers(n // 8, 7 * n // 8, size=per_path)
        bank.append((x, a, [float(times[k]) for k in idx]))
    return bank


def test_criterion_06_finite_differences_confirm_analytic_derivatives():
    started = time.perf_counter()
    bank = _probe_bank()
    mixed = cylinder(
        lambda t, xv, av: math.exp(xv[0]) * xv[1] + av[0] * math.sin(t),
        d=2,
        m=1,
        grad=lambda t, xv, av: np.array([math.exp(xv[0]) * xv[1], math.exp(xv[0])]),
        hess=lambda t, xv, av: np.array(
            [
                [math.exp(xv[0]) * xv[1], math.exp(xv[0])],
                [math.exp(xv[0]), 0.0],
            ]
        ),
        dt=lambda t, xv, av: av[0] * math.cos(t),
        da=lambda t, xv, av: np.array([math.sin(t)]),
        name="mixed",
    )

    def worst(F, h):
        ev = e2 = e0 = ek = 0.0
        for x, a, probe_times in bank:
            for t in probe_times:
                ev = max(ev, float(np.max(np.abs(
                    fd_vertical(F, t, x, a, h=h) - F.vertical(t, x, a)))))
                e2 = max(e2, float(np.max(np.abs(
                    fd_vertical2(F, t, x, a, h=h) - F.vertical2(t, x, a)))))
                fd = fd_horizontal(F, t, x, a, h=h)
                hz = F.horizontal(t, x, a)
                e0 = max(e0, abs(fd[0] - hz[0]))
                ek = max(ek, float(np.max(np.abs(fd[1:] - hz[1:]))))
        return ev, e2, e0, ek

    v3, s3, d03, dk3 = worst(mixed, 1e-3)
    v4, s4, d04, dk4 = worst(mixed, 1e-4)
    assert v4 < v3 * 0.05  # central differences: O(h^2)
    assert s4 < s3 * 0.5  # O(h^2) until the rounding floor of second diffs
    assert d04 < d03 * 0.3  # forward clock quotient: O(h)
    assert dk4 <= dk3 and dk3 < 5e-3  # grid-snapped component quotients
    # built-ins whose derivatives are exact: both step sizes at noise level
    exact = [
        coordinate(0, d=2, m=1),
        coordinate(1, d=2, m=1),
        bv_coordinate(0, m=1, d=2),
        constant_functional(3.5, d=2, m=1),
    ]
    for F in exact:
        for h in (1e-3, 1e-4):
            ev, e2, e0, ek = worst(F, h)
            assert ev < 1e-10 and e0 < 1e-10 and ek < 1e-10
            assert e2 < 1e-7  # cancellation noise over h^2, nothing more
    _finish(6, started, 10.0, "analytic derivatives confirmed with O(h^2)/O(h) trends")


def test_criterion_07_combinators_match_directly_nested_functionals():
    started = time.perf_counter()
    f1 = _square()
    f2 = cylinder(
        lambda t, xv, av: 0.5 * xv[0] ** 3,
        d=1,
        grad=lambda t, xv, av: np.array([1.5 * xv[0] ** 2]),
        hess=lambda t, xv, av: np.array([[3.0 * xv[0]]]),
        name="x^3/2",
    )
    g = cylinder(
        lambda t, yv, bv: yv[0] + 0.5 * yv[1] ** 2 + 0.25 * yv[0] * yv[1],
        d=2,
        grad=lambda t, yv, bv: np.array([1.0 + 0.25 * yv[1], yv[1] + 0.25 * yv[0]]),
        hess=lambda t, yv, bv: np.array([[0.0, 0.25], [0.25, 1.0]]),
        dt=lambda t, yv, bv: 0.0,
        name="g",
    )
    H = compose(g, [f1, f2])

    def nested(x1):
        y1, y2 = x1**2, 0.5 * x1**3
        return y1 + 0.5 * y2**2 + 0.25 * y1 * y2

    twin = cylinder(lambda t, xv, av: nested(xv[0]), d=1, name="twin")
    P = product(f1, f2)
    twin_p = cylinder(lambda t, xv, av: 0.5 * xv[0] ** 5, d=1, name="twin prod")

    rng = np.random.default_rng(9)
    n = 2**10
    times = np.linspace(0.0, 1.0, n + 1)
    z = rng.standard_normal(n) * math.sqrt(1.0 / n)
    x = SampledPath(times, np.concatenate([[0.0], np.cumsum(z)]))
    for k in rng.integers(n // 8, 7 * n // 8, size=20):
        t = float(times[k])
        for built, direct in ((H, twin), (P, twin_p)):
            av = built.vertical(t, x)
            fd = fd_vertical(direct, t, x, h=1e-5)
            assert np.max(np.abs(av - fd)) / max(1.0, np.max(np.abs(av))) < 1e-5
            a2 = built.vertical2(t, x)
            fd2 = fd_vertical2(direct, t, x, h=1e-3)
            assert np.max(np.abs(a2 - fd2)) / max(1.0, np.max(np.abs(a2))) < 1e-5
            # time-independent: both horizontal derivatives vanish exactly
            assert np.array_equal(built.horizontal(t, x), fd_horizontal(direct, t, x))
    # a time-dependent outer follows the forward-quotient O(h) trend instead
    g_t = cylinder(
        lambda t, yv, bv: math.sin(t) * yv[0] + 0.5 * yv[1] ** 2,
        d=2,
        grad=lambda t, yv, bv: np.array([math.sin(t), yv[1]]),
        hess=lambda t, yv, bv: np.array([[0.0, 0.0], [0.0, 1.0]]),
        dt=lambda t, yv, bv: math.cos(t) * yv[0],
        name="g_t",
    )
    H_t = compose(g_t, [f1, f2])
    twin_t = cylinder(
        lambda t, xv, av: math.sin(t) * xv[0] ** 2 + 0.125 * xv[0] ** 6, d=1, name="tt"
    )
    t = float(times[600])
    gaps = [
        abs(H_t.horizontal(t, x)[0] - fd_horizontal(twin_t, t, x, h=h)[0])
        for h in (1e-2, 1e-3)
    ]
    assert gaps[1] < gaps[0] * 0.3
    _finish(7, started, 10.0, "compose/product derivatives match the nested twins")


def test_criterion_08_augmentation_reproduces_the_integral_paths():
    started = time.perf_counter()
    x, part = _seed42_path()
    f_vec = [coordinate(0), _square(), _exponential()]
    aug = augment(f_vec, x, None, part, level=part.num_levels)
    rep = aug.representation_path(x)
    y = build_Y([AdmissibleIntegrand(F) for F in f_vec], x, part)
    gaps = np.max(np.abs(rep.values - y.values), axis=0)
    scales = np.maximum(np.max(np.abs(y.values), axis=0), 1e-30)
    assert float(np.max(gaps / scales)) < 1e-3
    # stored horizontal overrides: the appended component slots read back
    # as exactly minus one on the diagonal, zero elsewhere
    rng = np.random.default_rng(1)
    for ell, F in enumerate(aug.functionals):
        for k in rng.integers(1, x.n_points - 1, size=5):
            hz = F.horizontal(float(x.times[k]), x, aug.bv)
            expect = np.zeros(len(f_vec) + 1)
            expect[1 + ell] = -1.0
            assert np.array_equal(hz, expect)
    _finish(8, started, 20.0, "recentered functionals track their integral paths")


def test_criterion_09_qv_identity_for_y():
    started = time.perf_counter()
    x, part = _seed42_path()
    xi = AdmissibleIntegrand(_square())
    rels = [qv_of_Y_check([xi], x, part, level=lv).relative for lv in (11, 12, 13)]
    assert rels[1] < rels[0] and rels[2] < rels[1]
    assert rels[-1] < 5e-2
    _finish(9, started, 20.0, "[Y] matches the weighted [X] sums, residual shrinking")


def test_criterion_10_associativity_both_flavors():
    started = time.perf_counter()
    # (i) xi == 1 with eta = 2 Y(t): residual at integration tolerance
    w = generate(GeneratorSpec(kind="brownian", base_points=2**10, seed=42))
    part_w = PartitionSequence(w.times, num_levels=9)
    eta = AdmissibleIntegrand(
        cylinder(
            lambda t, yv, bv: yv[0] ** 2,
            d=1,
            grad=lambda t, yv, bv: np.array([2.0 * yv[0]]),
            hess=lambda t, yv, bv: np.array([[2.0]]),
            name="y^2",
        )
    )
    rep_i = associativity_check(eta, [AdmissibleIntegrand(coordinate(0))], w, part_w)
    assert float(np.max(np.abs(rep_i.residuals_at_T))) < 1e-8
    # (ii) the positive path, log functional, smooth cylinder outer
    w7 = generate(GeneratorSpec(kind="brownian", base_points=2**14, seed=7))
    xp = SampledPath(w7.times, np.exp(w7.values), domain=positive_orthant(1))
    part = PartitionSequence(xp.times, num_levels=13)
    logf = cylinder(
        lambda t, xv, av: math.log(xv[0]),
        d=1,
        grad=lambda t, xv, av: np.array([1.0 / xv[0]]),
        hess=lambda t, xv, av: np.array([[-1.0 / xv[0] ** 2]]),
        x_domain=positive_orthant(1),
        name="log",
    )
    smooth_eta = AdmissibleIntegrand(
        cylinder(
            lambda t, yv, bv: yv[0],
            d=1,
            grad=lambda t, yv, bv: np.array([1.0]),
            hess=lambda t, yv, bv: np.array([[0.0]]),
            name="y",
        )
    )
    rep_ii = corollary_decomposition(
        smooth_eta, [logf], xp, None, part, levels=(9, 11, 13)
    )
    errs = np.abs(rep_ii.residuals)
    assert np.all(errs[1:] < errs[:-1]), errs
    assert errs[-1] / abs(rep_ii.lhs_at_T[-1]) < 1e-2
    _finish(10, started, 60.0, "associativity holds; log example converges")


def test_criterion_11_reruns_are_byte_identical(tmp_path, capsys):
    started = time.perf_counter()
    base = {
        "path": {"generator": {"kind": "brownian", "base_points": 2**10, "seed": 42}},
        "components": [{"kind": "time-average", "component": 0}],
        "functional": {
            "cylinder": {
                "f": "x1**2 + a1",
                "grad": ["2*x1"],
                "hess": [["2"]],
                "dt": "0",
                "da": ["1"],
                "name": "sq+avg",
            }
        },
        "levels": [3, 5, 7, 9],
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(base))
    blobs = []
    for attempt in ("a", "b"):
        for cmd in ("integrate", "ito-check"):
            out = tmp_path / f"{cmd}-{attempt}.csv"
            code = cli_main([cmd, "-c", str(cfg), "-o", str(out)])
            assert code == 0
            blobs.append(out.read_bytes())
    assert blobs[0] == blobs[2] and blobs[1] == blobs[3]
    capsys.readouterr()
    _finish(11, started, 30.0, "experiment outputs byte-identical across runs")
    total = sum(_ELAPSED)
    assert total < 120.0, f"acceptance suite took {total:.1f}s"
    print(f"acceptance suite total {total:.1f}s")
