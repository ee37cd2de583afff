import math

import numpy as np
import pytest

from pathwise_ito.expressions import compile_expression, state_variables
from pathwise_ito.pathgen import GeneratorSpec, generate, tent_sum
from pathwise_ito.paths import LINEAR, PartitionSequence, SampledPath
from pathwise_ito.qv import qv_converged, qv_scalar


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="levy", base_points=16)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="brownian", base_points=100)  # not a power of two
    with pytest.raises(ValueError):
        GeneratorSpec(kind="brownian", base_points=16, horizon=0.0)
    with pytest.raises(ValueError, match="horizon"):
        GeneratorSpec(kind="brownian", base_points=16, horizon=math.inf)
    for name, bad in [("drift", math.nan), ("scale", math.inf), ("scale", math.nan),
                      ("value", -math.inf), ("value", math.nan)]:
        with pytest.raises(ValueError, match=f"generator '{name}' must be a finite number"):
            GeneratorSpec(kind="constant", base_points=16, **{name: bad})
    with pytest.raises(ValueError):
        GeneratorSpec(kind="smooth", base_points=16)  # missing expression
    with pytest.raises(ValueError):
        GeneratorSpec(kind="monotone-bv", base_points=16)  # missing slope


def test_identical_spec_gives_bit_identical_paths():
    spec = GeneratorSpec(kind="brownian", base_points=256, seed=1234, d=3, drift=0.5)
    a, b = generate(spec), generate(spec)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.times, b.times)
    c = generate(GeneratorSpec(kind="brownian", base_points=256, seed=1235, d=3, drift=0.5))
    assert not np.array_equal(a.values, c.values)


def test_grid_shape_and_tag():
    p = generate(GeneratorSpec(kind="constant", base_points=16, horizon=1.0, value=3.5))
    assert p.n_points == 16 and p.horizon == 1.0
    assert p.interpolation == LINEAR
    assert np.all(p.values == 3.5)
    part = PartitionSequence(p.times, num_levels=4)
    for lev in (1, 2, 3, 4):
        assert qv_scalar(p, part, lev) == 0.0


def test_brownian_increment_sanity_band():
    n = 2**14
    p = generate(GeneratorSpec(kind="brownian", base_points=n, seed=42))
    inc = np.diff(p.values[:, 0])
    step = 1.0 / n
    assert abs(float(inc.mean())) < 4.0 * math.sqrt(step) / math.sqrt(n)
    assert 0.8 * step < float(inc.var()) < 1.2 * step
    assert p.values[0, 0] == 0.0


def test_brownian_finest_qv_near_one():
    n = 2**14
    p = generate(GeneratorSpec(kind="brownian", base_points=n, seed=42))
    part = PartitionSequence(p.times, num_levels=14)
    q = qv_scalar(p, part, 14)
    assert 0.9 < q < 1.1
    # frozen regression constant for this seed
    assert math.isclose(q, 1.0064244104516589, rel_tol=1e-12)


def test_brownian_drift_and_scale():
    n = 2**12
    p = generate(
        GeneratorSpec(kind="brownian", base_points=n, seed=7, drift=3.0, scale=0.5)
    )
    # drift adds 3 t to the mean, scale multiplies the noise
    assert abs(float(p.values[-1, 0]) - 3.0) < 4 * 0.5
    part = PartitionSequence(p.times, num_levels=12)
    assert math.isclose(qv_scalar(p, part, 12), 0.25, rel_tol=0.1)


def test_smooth_identity_path_qv_levels():
    p = generate(GeneratorSpec(kind="smooth", base_points=1024, expression="t"))
    assert np.array_equal(p.values[:, 0], p.times)
    part = PartitionSequence(p.times, num_levels=10)
    # 2^-n per level, up to the non-dyadic 1023-cell grid spacing
    for lev in range(1, 11):
        assert math.isclose(qv_scalar(p, part, lev), 2.0**-lev, rel_tol=1e-2)


def test_smooth_multicomponent_expressions():
    p = generate(
        GeneratorSpec(kind="smooth", base_points=32, d=2, expression="sin(t); t**2")
    )
    assert np.allclose(p.values[:, 0], np.sin(p.times), atol=1e-15)
    assert np.allclose(p.values[:, 1], p.times**2, atol=1e-15)
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="smooth", base_points=32, d=3, expression="t; t**2"))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="smooth", base_points=32, expression="t + y"))


def test_monotone_bv_left_sums():
    p = generate(GeneratorSpec(kind="monotone-bv", base_points=16, slope="2*t"))
    assert np.all(np.diff(p.values[:, 0]) >= 0.0)
    # left sums of 2t undershoot t^2; exact value pinned by direct formula
    dt = np.diff(p.times)
    want = np.concatenate([[0.0], np.cumsum(2.0 * p.times[:-1] * dt)])
    assert np.array_equal(p.values[:, 0], want)
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="monotone-bv", base_points=16, slope="t - 0.5"))


def test_takagi_dyadic_qv_identity_on_exact_grid():
    # on a 2^K + 1 point grid every partition cell is exactly dyadic and the
    # level sums hit scale^2 T (1 - 2^-n) to rounding
    K = 10
    times = np.linspace(0.0, 1.0, 2**K + 1)
    x = SampledPath(times, tent_sum(times, depth=24))
    part = PartitionSequence(times, num_levels=K)
    for lev in (1, 2, 5, 8, 10):
        assert math.isclose(
            qv_scalar(x, part, lev), 1.0 - 2.0**-lev, rel_tol=0, abs_tol=1e-12
        )


def test_takagi_generator_path():
    p = generate(GeneratorSpec(kind="takagi-like", base_points=2**14))
    q = generate(GeneratorSpec(kind="takagi-like", base_points=2**14))
    assert np.array_equal(p.values, q.values)  # no randomness at all
    part = PartitionSequence(p.times, num_levels=14)
    fin = qv_scalar(p, part, 14)
    # the short final cell keeps this just below the full-dyadic value 1
    assert math.isclose(fin, 1.0, rel_tol=1e-2)
    assert math.isclose(fin, 0.9995887625825599, rel_tol=1e-10)
    r = qv_converged(p, part, tol=0.05)
    assert r.converged is True


def test_takagi_scale_and_horizon():
    p = generate(
        GeneratorSpec(kind="takagi-like", base_points=2**10, horizon=4.0, scale=0.5)
    )
    part = PartitionSequence(p.times, num_levels=10)
    # QV scales like scale^2 * T
    assert math.isclose(qv_scalar(p, part, 10), 0.25 * 4.0, rel_tol=2e-2)


def test_expression_helpers():
    fn = compile_expression("exp(x1) * a1 + t", ("t", "x1", "a1"))
    got = fn(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([2.0, 3.0]))
    assert np.allclose(got, [2.0, 4.0], atol=1e-15)
    assert state_variables(2, 1) == ("t", "x1", "x2", "a1")
    with pytest.raises(ValueError):
        compile_expression("t +* 2", ("t",))
    with pytest.raises(TypeError):
        fn(np.zeros(2))
    const = compile_expression("1", ("t",))
    assert const(np.zeros(5)).shape == (5,)
