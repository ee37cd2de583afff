"""End-to-end command line tests: files in, CSV out, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pathwise_ito
from pathwise_ito.cli import cli_main
from pathwise_ito.paths import PartitionSequence, SampledPath, load_sampled_path, write_path_csv
from pathwise_ito.qv import qv_matrix, qv_scalar
from pathwise_ito.pathgen import GeneratorSpec, generate


def _run(argv, capsys):
    code = cli_main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


def _write_config(tmp_path, doc, name="exp.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _brownian_config(extra, base_points=512, seed=42):
    doc = {
        "path": {
            "generator": {"kind": "brownian", "base_points": base_points, "seed": seed}
        }
    }
    doc.update(extra)
    return doc


SQUARE = {
    "cylinder": {"f": "x1**2", "grad": ["2*x1"], "hess": [["2"]], "dt": "0", "name": "sq"}
}


# ---------------------------------------------------------------------------
# gen


def test_gen_constant_path(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code, _, err = _run(
        ["gen", "--kind", "constant", "--n", "16", "--T", "1", "-o", str(out)], capsys
    )
    assert code == 0
    header, rows = _rows(out.read_text())
    assert header == ["t", "x1"]
    assert len(rows) == 16
    assert {row[1] for row in rows} == {"0"}


def test_gen_is_seed_deterministic(tmp_path, capsys):
    args = ["gen", "--kind", "brownian", "--n", "64", "--seed", "7", "-o"]
    code, _, _ = _run(args + [str(tmp_path / "a.csv")], capsys)
    assert code == 0
    _run(args + [str(tmp_path / "b.csv")], capsys)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    _run(
        ["gen", "--kind", "brownian", "--n", "64", "--seed", "8", "-o", str(tmp_path / "c.csv")],
        capsys,
    )
    assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_gen_rejects_bad_specs(capsys):
    code, _, _ = _run(["gen", "--kind", "nonsense", "--n", "16"], capsys)
    assert code == 2
    code, _, _ = _run(["gen", "--kind", "constant", "--n", "17"], capsys)
    assert code == 2
    code, _, err = _run(["gen", "--kind", "brownian", "--n", "16", "--T", "inf"], capsys)
    assert code == 2
    assert err.splitlines() == ["error: the horizon T must be finite and positive, got inf"]
    code, _, err = _run(["gen", "--kind", "takagi-like", "--n", "16", "--depth", "-1"], capsys)
    assert code == 2
    assert err.splitlines() == ["error: generator 'depth' must be nonnegative, got -1"]
    # argparse's float takes these; the spec names the option instead of
    # failing later on the generated values
    for kind, option, value in [
        ("takagi-like", "scale", "inf"), ("brownian", "drift", "nan"),
        ("brownian", "scale", "nan"), ("constant", "value", "nan"), ("constant", "value", "-inf"),
    ]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = _run(["gen", "--kind", kind, "--n", "64", f"--{option}={value}"], capsys)
        assert code == 2
        assert err.splitlines() == [f"error: generator '{option}' must be a finite number, got {value}"]


def test_gen_takagi_depth_past_the_grid_changes_no_byte(tmp_path, capsys):
    args = ["gen", "--kind", "takagi-like", "--n", "16", "-o"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for depth in ("24", "5000"):
            code, _, _ = _run(args + [str(tmp_path / f"{depth}.csv"), "--depth", depth], capsys)
            assert code == 0
    assert (tmp_path / "5000.csv").read_bytes() == (tmp_path / "24.csv").read_bytes()


def test_gen_round_trips_every_bit(tmp_path, capsys):
    out = tmp_path / "w.csv"
    _run(["gen", "--kind", "brownian", "--n", "32", "--seed", "3", "-o", str(out)], capsys)
    from pathwise_ito.pathgen import GeneratorSpec, generate

    direct = generate(GeneratorSpec(kind="brownian", base_points=32, seed=3))
    loaded = load_sampled_path(str(out))
    assert np.array_equal(loaded.values, direct.values)
    assert np.array_equal(loaded.times, direct.times)


# ---------------------------------------------------------------------------
# qv


def test_qv_constant_path_all_zeros(tmp_path, capsys):
    p = tmp_path / "p.csv"
    _run(["gen", "--kind", "constant", "--n", "16", "-o", str(p)], capsys)
    code, out, err = _run(["qv", "-i", str(p), "--levels", "3"], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ["t", "qv_11", "level_diff"]
    assert all(row[1] == "0" and row[2] == "0" for row in rows)
    assert "converged: yes" in err


def test_qv_two_dimensional_header_and_symmetry(tmp_path, capsys):
    p = tmp_path / "p2.csv"
    _run(["gen", "--kind", "brownian", "--n", "256", "--d", "2", "-o", str(p)], capsys)
    code, out, _ = _run(["qv", "-i", str(p), "--levels", "6"], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ["t", "qv_11", "qv_12", "qv_22", "level_diff"]
    x = load_sampled_path(str(p))
    part = PartitionSequence(x.times, num_levels=6)
    # final diagonal entries agree with the scalar sums
    last = rows[-1]
    assert math.isclose(float(last[1]), qv_scalar(x, part, 6, component=0), rel_tol=1e-12)
    assert math.isclose(float(last[3]), qv_scalar(x, part, 6, component=1), rel_tol=1e-12)


OVERFLOW_ROWS = "t,x1,x2\n0,0,0\n0.25,1e200,1\n0.5,-1e200,1\n0.75,1,2\n1,0,2\n"


def _subprocess_cli(argv):
    src = str(Path(pathwise_ito.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "pathwise_ito.cli"] + argv,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_qv_overflow_prints_only_the_error_line(tmp_path):
    # (1e200)^2 overflows: no warning, no inf/nan table, one error line, exit 1;
    # qv_12 there is 1e200 * 1, which is finite
    p = tmp_path / "huge.csv"
    p.write_text(OVERFLOW_ROWS)
    out = tmp_path / "qv.csv"
    proc = _subprocess_cli(["qv", "-i", str(p), "--levels", "2", "-o", str(out)])
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: non-finite qv_11 at level 1, grid time 0.25\n"
    assert not out.exists()


def test_qv_oversized_cell_is_an_input_error(tmp_path):
    # a cell past csv's field size limit (131072 characters) is malformed
    # input: exit 2 with one error line, not a csv traceback
    p = tmp_path / "big.csv"
    p.write_text("t,x1\n0,0\n0.5," + "0" * 131073 + "1\n1,2\n")
    proc = _subprocess_cli(["qv", "-i", str(p), "--levels", "1"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: line 3: field larger than field limit (131072)\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("levels", ["1", "3"])
def test_qv_overflow_exits_one_at_any_level_count(levels, tmp_path, capsys):
    p = tmp_path / "huge.csv"
    p.write_text(OVERFLOW_ROWS)
    code, out, err = _run(["qv", "-i", str(p), "--levels", levels], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: non-finite qv_11 at level 1, grid time 0.25\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("levels, first_bad", [("1", 1), ("2", 1), ("3", 1)])
def test_qv_overflowing_polarization_sum_prints_only_the_error_line(
    levels, first_bad, tmp_path, capsys
):
    # (1e308)^2 and 1e308 * 1e308 overflow in every entry
    p = tmp_path / "sum.csv"
    p.write_text("t,x1,x2\n0,0,0\n0.5,1e308,1e308\n1,0,0\n")
    code, out, err = _run(["qv", "-i", str(p), "--levels", levels], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: non-finite qv_11, qv_12, qv_22 at level {first_bad}, grid time 0.5\n"


# x = i * a on 9 points with 32 a^2 < float max < 36 a^2: the squared
# increments of levels 2 and up stay finite, but level 1 (one cell) overflows
# from grid time 0.75 on
MONOTONE_ROWS = "t,x1\n" + "".join(f"{i / 8!r},{i * 2.3e153!r}\n" for i in range(9))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("levels", ["4", "5"])
def test_qv_overflow_at_a_coarse_level_only_exits_one(levels, tmp_path, capsys):
    p = tmp_path / "mono.csv"
    p.write_text(MONOTONE_ROWS)
    code, out, err = _run(["qv", "-i", str(p), "--levels", levels], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: non-finite qv_11 at level 1, grid time 0.75\n"


GEN_D5 = str(Path(__file__).parent / "golden" / "gen_d5.csv")


@pytest.mark.parametrize(
    "argv, code, levels",
    [
        (["-i", GEN_D5, "--levels", "1"], 0, [1]),
        (["-i", GEN_D5, "--levels", "2"], 0, [1, 2]),
        (["-i", GEN_D5, "--levels", "3"], 0, [2, 3]),
        (["-i", GEN_D5], 0, [7, 8]),
        (["-i", "mono.csv", "--levels", "4"], 1, [1]),
        (["-i", "big.csv", "--levels", "4"], 0, [1, 2, 3, 4]),
    ],
    ids=["levels1", "levels2", "levels3", "default", "all-levels", "all-levels-finite"],
)
def test_qv_runs_one_anchored_step_pass_per_level(argv, code, levels, tmp_path, capsys,
                                                  monkeypatch):
    # the two-level route runs levels L - 1 and L; the all-levels route
    # (16 N max|x|^2 passes 2^1000) runs every level until one overflows
    from pathwise_ito import qv

    (tmp_path / "mono.csv").write_text(MONOTONE_ROWS)
    x = load_sampled_path(GEN_D5)
    write_path_csv(SampledPath(x.times, x.values * 1e150), str(tmp_path / "big.csv"))
    monkeypatch.chdir(tmp_path)
    runs = []
    real = qv._entry_paths
    monkeypatch.setattr(qv, "_entry_paths",
                        lambda cols, part, level, out=None: runs.append(level)
                        or real(cols, part, level, out))
    assert _run(["qv"] + argv, capsys)[0] == code
    assert runs == levels


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_qv_gives_a_constant_path_near_the_float_maximum_a_zero_qv(tmp_path, capsys):
    # x1 + x2 = 1.8e308 overflows, but no step from an anchor does: every
    # entry, and the whole table, is 0
    p = tmp_path / "flat.csv"
    p.write_text("t,x1,x2\n0,9e307,9e307\n0.5,9e307,9e307\n1,9e307,9e307\n")
    x = load_sampled_path(str(p))
    part = PartitionSequence(x.times, num_levels=1)
    assert not np.any(qv_matrix(x, part, 1).entries)
    code, out, err = _run(["qv", "-i", str(p)], capsys)
    assert code == 0
    _, rows = _rows(out)
    assert [row[1:] for row in rows] == [["0", "0", "0", "0"]] * 3
    assert err == "converged: n/a (need at least 3 levels)\n"


def test_qv_missing_input_is_an_io_error(capsys, tmp_path):
    code, _, err = _run(["qv", "-i", str(tmp_path / "nope.csv")], capsys)
    assert code == 2
    assert "error" in err


# ---------------------------------------------------------------------------
# integrate


def test_integrate_telescopes_along_partition_points(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        _brownian_config({"functional": {"coordinate": 0}, "levels": [3, 6]}),
    )
    code, out, err = _run(["integrate", "-c", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ["level", "t", "I"]
    assert {row[0] for row in rows} == {"3", "6"}
    from pathwise_ito.pathgen import GeneratorSpec, generate

    x = generate(GeneratorSpec(kind="brownian", base_points=512, seed=42))
    for level, t_text, i_text in rows:
        k = int(np.searchsorted(x.times, float(t_text)))
        expect = x.values[k, 0] - x.values[0, 0]
        assert math.isclose(float(i_text), expect, rel_tol=0.0, abs_tol=1e-12)
    # convergence is judged uniformly over the base grid, where coarse
    # levels are only interpolated, so the flag is honest rather than "yes"
    assert "converged:" in err


def test_integrate_output_resolution(tmp_path, capsys, monkeypatch):
    # -o beats the config entry; both beat stdout; relative paths land in
    # the directory named by the environment variable
    doc = _brownian_config(
        {"functional": SQUARE, "levels": [4], "output": str(tmp_path / "from_cfg.csv")},
        base_points=64,
    )
    cfg = _write_config(tmp_path, doc)
    code, out, _ = _run(["integrate", "-c", cfg], capsys)
    assert code == 0
    assert out == ""
    assert (tmp_path / "from_cfg.csv").exists()

    code, _, _ = _run(["integrate", "-c", cfg, "-o", str(tmp_path / "flag.csv")], capsys)
    assert code == 0
    assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "from_cfg.csv").read_bytes()

    outdir = tmp_path / "outdir"
    monkeypatch.setenv("PATHWISE_ITO_OUT_DIR", str(outdir))
    code, _, _ = _run(["integrate", "-c", cfg, "-o", "rel.csv"], capsys)
    assert code == 0
    assert (outdir / "rel.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_integrate_without_functional_is_a_config_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, _brownian_config({}, base_points=64))
    code, _, err = _run(["integrate", "-c", cfg], capsys)
    assert code == 2
    assert "functional" in err


def test_numbers_round_trip_through_the_csv(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        _brownian_config({"functional": SQUARE, "levels": [6]}, base_points=64),
    )
    code, out, _ = _run(["integrate", "-c", cfg], capsys)
    assert code == 0
    from pathwise_ito.pathgen import GeneratorSpec, generate
    from pathwise_ito.functionals import cylinder
    from pathwise_ito.ito import AdmissibleIntegrand, ito_integral

    x = generate(GeneratorSpec(kind="brownian", base_points=64, seed=42))
    part = PartitionSequence(x.times, num_levels=6)
    sq = cylinder(
        lambda t, xv, av: xv[0] ** 2,
        d=1,
        grad=lambda t, xv, av: np.array([2.0 * xv[0]]),
        hess=lambda t, xv, av: np.array([[2.0]]),
    )
    res = ito_integral(AdmissibleIntegrand(sq), x, part, levels=6)
    _, rows = _rows(out)
    # 17 significant digits reproduce each float bit for bit
    for (level, t_text, i_text), k in zip(rows, part.indices(6)):
        assert float(i_text) == res.values[0, k]


# ---------------------------------------------------------------------------
# ito-check


def test_ito_check_square_residuals(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, _brownian_config({"functional": SQUARE, "levels": [4, 6, 9]})
    )
    code, out, err = _run(["ito-check", "-c", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ["level", "term_lhs", "term_ito", "term_horiz", "term_qv", "residual"]
    assert [row[0] for row in rows] == ["4", "6", "9"]
    from pathwise_ito.pathgen import GeneratorSpec, generate

    x = generate(GeneratorSpec(kind="brownian", base_points=512, seed=42))
    part = PartitionSequence(x.times, num_levels=9)
    lhs = x.values[-1, 0] ** 2 - x.values[0, 0] ** 2
    for row in rows:
        assert math.isclose(float(row[1]), lhs, rel_tol=1e-12)
        assert float(row[3]) == 0.0
        assert abs(float(row[5])) < 1e-12
    assert math.isclose(float(rows[-1][4]), qv_scalar(x, part, 9), rel_tol=1e-12)
    assert "worst residual" in err


# ---------------------------------------------------------------------------
# assoc-check


def test_assoc_check_unit_integrands(tmp_path, capsys):
    # xi == 1 and eta == 1: both sides telescope, residuals stay below 1e-12
    cfg = _write_config(
        tmp_path,
        _brownian_config(
            {"outer": {"coordinate": 0}, "integrands": [{"coordinate": 0}], "levels": [3, 5, 7]}
        ),
    )
    code, out, err = _run(["assoc-check", "-c", cfg], capsys)
    assert code == 0
    header, rows = _rows(out)
    assert header == ["level", "lhs", "rhs", "abs_residual", "ratio"]
    assert rows[0][4] == ""
    for row in rows:
        assert float(row[3]) < 1e-12
        assert math.isclose(float(row[1]), float(row[2]), rel_tol=0.0, abs_tol=1e-12)
    assert "gate residual" in err


def test_assoc_check_gate_failure_exits_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path,
        _brownian_config(
            {
                "outer": {"coordinate": 0},
                "integrands": [SQUARE],
                "levels": [3, 5],
                "qv_gate_tol": 0.0,
            },
            base_points=256,
        ),
    )
    code, _, err = _run(["assoc-check", "-c", cfg], capsys)
    assert code == 1
    assert "gate" in err


def test_assoc_check_requires_outer_and_integrands(tmp_path, capsys):
    cfg = _write_config(tmp_path, _brownian_config({}, base_points=64))
    code, _, _ = _run(["assoc-check", "-c", cfg], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# error mapping and reproducibility


def test_domain_violation_exits_one(tmp_path, capsys):
    doc = {
        "path": {
            "generator": {"kind": "smooth", "base_points": 64, "expression": "t - 1/2"}
        },
        "functional": {"cylinder": {"f": "log(x1)", "positive": True}},
        "levels": [4],
    }
    cfg = _write_config(tmp_path, doc)
    code, _, err = _run(["integrate", "-c", cfg], capsys)
    assert code == 1
    assert "error" in err


LOG_REPRO = {
    "functional": {"cylinder": {"f": "log(x1)", "grad": ["1/x1"], "hess": [["-1/x1**2"]]}},
    "levels": [4, 6, 8],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["integrate", "ito-check"])
def test_non_finite_term_exits_one(command, tmp_path, capsys):
    # log(x1) on a Brownian path started at 0: the integrand 1/x1 is infinite
    # in the first cell, so no table with nan/inf rows may be written
    doc = _brownian_config(LOG_REPRO, base_points=256)
    out = tmp_path / "out.csv"
    code, _, err = _run([command, "-c", _write_config(tmp_path, doc), "-o", str(out)], capsys)
    assert code == 1
    assert "non-finite ito term" in err and "level 4" in err
    assert not out.exists()


# |x|^1.5 on a Brownian path from 0: its second derivative is infinite at 0,
# so the qv term is non-finite from the first grid cell on
ABS_POWER = {"f": "abs(x1)**1.5", "grad": ["1.5*sqrt(abs(x1))"], "dt": "0"}
FIRST_CELL = 1.0 / 255.0  # the second grid time at base_points 256
QV_TERM = "non-finite qv term 1/2 D2F : d[X] at level 4"
ASSOC_REPRO = {
    "path": {"generator": {"kind": "brownian", "base_points": 256, "d": 2, "seed": 11}},
    "outer": {"cylinder": {"f": "x1*x2", "grad": ["x2", "x1"],
                           "hess": [["0", "1"], ["1", "0"]], "dt": "0"}},
    "integrands": [
        # the first compensator holds the infinite qv term of |x1|^1.5
        {"cylinder": {"f": "abs(x1)**1.5", "grad": ["1.5*sqrt(abs(x1))", "0"],
                      "hess": [["0.75/sqrt(abs(x1))", "0"], ["0", "0"]], "dt": "0"}},
        {"cylinder": {"f": "x2**2", "grad": ["0", "2*x2"],
                      "hess": [["0", "0"], ["0", "2"]], "dt": "0"}},
    ],
    "levels": [4, 6, 8],
}
NON_FINITE_CASES = [  # (command, config, the one stderr line without "error: ")
    (
        "ito-check",
        _brownian_config(LOG_REPRO, base_points=256),
        "non-finite ito term xi . dX at level 4, grid time 0.0",
    ),
    (
        "ito-check",
        _brownian_config(
            {"functional": {"cylinder": dict(ABS_POWER, hess=[["0.75/sqrt(abs(x1))"]])},
             "levels": [4, 6, 8]},
            base_points=256, seed=11,
        ),
        f"{QV_TERM}, grid time {FIRST_CELL!r}",
    ),
    (
        # +inf and -inf terms meet in the running sum: no numpy warning either
        "ito-check",
        _brownian_config(
            {"functional": {"cylinder": dict(ABS_POWER, hess=[["1/(t-t)"]])},
             "levels": [4, 6, 8]},
            base_points=256, seed=11,
        ),
        f"{QV_TERM}, grid time {FIRST_CELL!r}",
    ),
    (
        "assoc-check",
        ASSOC_REPRO,
        f"non-finite compensator a1 of abs(x1)**1.5 at level 8, grid time {FIRST_CELL!r}",
    ),
]


def test_non_finite_term_prints_only_the_error_line(tmp_path):
    # Formulas and term sums run under np.errstate, so no RuntimeWarning (with
    # a line of source) precedes the error in a real process.
    for command, doc, message in NON_FINITE_CASES:
        proc = _subprocess_cli([command, "-c", _write_config(tmp_path, doc)])
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["integrate", "ito-check"])
@pytest.mark.parametrize("state_route", [True, False], ids=["state-route", "per-cell"])
def test_compose_names_the_time_its_inner_values_leave_the_outer_domain(
    command, state_route, tmp_path, capsys
):
    # x1 + 1 on this path first drops to <= 0 at grid index 66, a left point
    # of level 8.  With an analytic inner gradient the composition runs on all
    # grid rows at once; without one it runs cell by cell from the finest
    # level.  Both name that row, not level 4's later first bad left point.
    gen = {"kind": "brownian", "base_points": 256, "seed": 3, "scale": 3.0}
    inner = {"f": "x1 + 1", "grad": ["1"]} if state_route else {"f": "x1 + 1"}
    outer = {"f": "log(x1)", "grad": ["1/x1"], "positive": True}
    doc = {
        "path": {"generator": gen},
        "functional": {"compose": {"outer": {"cylinder": outer}, "inners": [{"cylinder": inner}]}},
        "levels": [4, 6, 8],
    }
    x = generate(GeneratorSpec(**gen))
    bad = x.values[:, 0] + 1.0 <= 0.0
    first = int(np.argmax(bad))
    coarse = PartitionSequence(x.times, 8).indices(4)
    assert first == 66 and coarse[np.argmax(bad[coarse])] > first
    code, out, err = _run([command, "-c", _write_config(tmp_path, doc)], capsys)
    assert code == 1 and out == ""
    t = float(x.times[first])
    assert err == f"error: log(x1)(x1 + 1): inner values at t={t!r} leave the domain of log(x1)\n"


def test_malformed_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = _run(["integrate", "-c", str(bad)], capsys)
    assert code == 2


@pytest.mark.parametrize("key", ["typo", "threads"])
def test_unknown_config_key_exits_two(key, tmp_path, capsys):
    cfg = _write_config(tmp_path, _brownian_config({key: 1}, base_points=64))
    code, _, err = _run(["integrate", "-c", cfg], capsys)
    assert code == 2
    assert key in err


@pytest.mark.parametrize(
    "generator",
    [
        {"kind": "smooth", "base_points": 64, "expression": 5},
        {"kind": "monotone-bv", "base_points": 64, "slope": 5},
    ],
)
def test_non_string_generator_formula_exits_two(generator, tmp_path, capsys):
    doc = {"path": {"generator": generator}, "functional": SQUARE}
    code, out, err = _run(["integrate", "-c", _write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    key = "expression" if "expression" in generator else "slope"
    assert err == f"error: generator '{key}' must be a formula string, got 5\n"


GOLDEN = Path(__file__).parent / "golden"


def _set(doc, keys, value):
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


@pytest.mark.parametrize(
    "golden, keys, value",
    [
        # each of these once ran as something else, or failed as a domain error
        ("cylinder_d1.json", ("path", "positive"), "false"),
        ("cylinder_d1.json", ("path", "positive"), 0),
        ("cylinder_d1.json", ("functional", "cylinder", "positive"), "false"),
        ("cylinder_d1.json", ("levels",), [2.5, 4.9]),
        ("cylinder_d1.json", ("levels",), ["3", "5"]),
        ("cylinder_d1.json", ("components", 0, "component"), 0.7),
        ("cylinder_d1.json", ("components", 0, "component"), False),
        ("cylinder_d1.json", ("path", "generator", "base_points"), 512.9),
        ("cylinder_d1.json", ("path", "generator", "seed"), 1.5),
        ("cylinder_d1.json", ("path", "generator", "seed"), "42"),
        ("cylinder_d1.json", ("path", "generator", "d"), 1.7),
        ("cylinder_d1.json", ("path", "generator", "depth"), 24.0),
        ("cylinder_d3.json", ("components", 1, "component"), 2.0),
        ("percell_d2.json", ("functional", "product", 1, "compose", "inners", 1, "coordinate"), 1.0),
        # each of these once ran, or ended in a traceback or another key's error
        ("cylinder_d1.json", ("path", "generator", "horizon"), "1.0"),
        ("cylinder_d1.json", ("path", "generator", "horizon"), math.inf),
        ("cylinder_d1.json", ("tolerance",), None),
        ("cylinder_d1.json", ("tolerance",), "0.5"),
        ("cylinder_d1.json", ("tolerance",), math.nan),
        ("cylinder_d1.json", ("qv_gate_tol",), "0.05"),
        ("cylinder_d1.json", ("path", "generator", "drift"), True),
        ("cylinder_d1.json", ("path", "generator", "scale"), True),
        ("cylinder_d1.json", ("functional", "cylinder", "f"), 2),
        ("cylinder_d1.json", ("functional", "cylinder", "dt"), 0),
        ("cylinder_d1.json", ("functional", "cylinder", "hess"), "2"),
        ("cylinder_d1.json", ("functional", "cylinder", "grad"), "2*x1"),
        ("cylinder_d1.json", ("functional", "cylinder", "da"), [1]),
        ("cylinder_d1.json", ("functional", "cylinder", "name"), 7),
        ("cylinder_d1.json", ("output",), 5),
    ],
)
def test_non_integer_or_non_boolean_field_exits_two(golden, keys, value, tmp_path, capsys):
    doc = json.loads((GOLDEN / golden).read_text())
    _set(doc, keys, value)
    code, out, err = _run(["integrate", "-c", _write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"'{keys[-1]}'" in err


def test_qv_component_level_must_be_an_integer(tmp_path, capsys):
    doc = json.loads((GOLDEN / "cylinder_d1.json").read_text())
    doc["components"] = [{"kind": "qv", "component": 0, "level": 3.0}]
    code, _, err = _run(["integrate", "-c", _write_config(tmp_path, doc)], capsys)
    assert code == 2
    assert err == "error: component 'level' must be an integer, got 3.0\n"


def test_no_arguments_exits_two(capsys):
    assert cli_main([]) == 2
    capsys.readouterr()


def test_full_experiment_reruns_byte_identical(tmp_path, capsys):
    doc = _brownian_config({"functional": SQUARE, "levels": [3, 5, 7, 9]})
    cfg = _write_config(tmp_path, doc)
    for name in ("s1.csv", "s2.csv"):
        code, _, _ = _run(["integrate", "-c", cfg, "-o", str(tmp_path / name)], capsys)
        assert code == 0
    assert (tmp_path / "s1.csv").read_bytes() == (tmp_path / "s2.csv").read_bytes()
