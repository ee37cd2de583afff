"""Golden CLI outputs: each command reproduces its pinned CSV byte for byte.

The CSVs under ``tests/golden/`` were written by the CLI before any refactor
that keeps the summation order, so a change that moves a single bit of a
reported number fails here.  Inputs stay at N <= 2^9 with polynomial
formulas only, and no sum goes through BLAS, so the bytes do not depend on
the platform's libm or on the OpenBLAS kernel picked for the CPU.  One
exception: ``gen_smooth_d4.csv``'s ``t**7`` and ``t**60`` run numpy's SIMD
``power``, whose last bit can follow the CPU's vector extensions.

To pin a deliberate change of summation order, run

    PYTHONPATH=src python tests/test_golden.py --repin NAME...

which rewrites each named file from the command lines below and prints its
largest absolute and relative cell change against the old bytes; state the
deviation bound in CHANGES.md.
"""
import argparse
import contextlib
import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathwise_ito
from pathwise_ito.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gen_d2.csv": ["gen", "--kind", "brownian", "--n", "256", "--d", "2", "--seed", "7"],
    "qv_d2.csv": ["qv", "-i", str(GOLDEN / "gen_d2.csv")],
    "gen_d5.csv": ["gen", "--kind", "brownian", "--n", "512", "--d", "5", "--seed", "11"],
    "qv_d5.csv": ["qv", "-i", str(GOLDEN / "gen_d5.csv")],
    "qv_d5_levels2.csv": ["qv", "-i", str(GOLDEN / "gen_d5.csv"), "--levels", "2"],
    "qv_d5_levels1.csv": ["qv", "-i", str(GOLDEN / "gen_d5.csv"), "--levels", "1"],
    # 300 points: no stride divides the 299 cells, and at 12 levels the
    # coarsest strides pass the grid, so those levels degrade to {0, T}.
    "qv_n300_d4.csv": ["qv", "-i", str(GOLDEN / "path_n300_d4.csv")],
    "qv_n300_d4_levels12.csv": ["qv", "-i", str(GOLDEN / "path_n300_d4.csv"), "--levels", "12"],
    "integrate_d1.csv": ["integrate", "-c", str(GOLDEN / "cylinder_d1.json")],
    "ito_check_d1.csv": ["ito-check", "-c", str(GOLDEN / "cylinder_d1.json")],
    "integrate_d3.csv": ["integrate", "-c", str(GOLDEN / "cylinder_d3.json")],
    "ito_check_d3.csv": ["ito-check", "-c", str(GOLDEN / "cylinder_d3.json")],
    # d = 16: the QV term sums 256 entries of [X], the horizontal term the
    # clock and one component.
    "ito_check_d16.csv": ["ito-check", "-c", str(GOLDEN / "cylinder_d16.json")],
    "assoc_check_d2.csv": ["assoc-check", "-c", str(GOLDEN / "assoc_d2.json")],
    # d = 16 and nu = 16: the QV gate weighs [X] with 136 pairs of integrands.
    "assoc_check_d16.csv": ["assoc-check", "-c", str(GOLDEN / "assoc_d16.json")],
    # A product and a composition with finite-difference slots: vertical
    # and evaluate run on all grid rows at once, while the vertical2 and
    # horizontal slots that finite differences reach run point by point on
    # stopped and bumped paths.
    "integrate_percell_d2.csv": ["integrate", "-c", str(GOLDEN / "percell_d2.json")],
    "ito_check_percell_d2.csv": ["ito-check", "-c", str(GOLDEN / "percell_d2.json")],
    # Finite differences at the edge of a positive domain: the path starts
    # 5e-5 above 0, so at t = 0 the down bump of fd_vertical leaves the
    # domain (a one-sided quotient) and fd_vertical2 halves its step.
    "ito_check_positive_fd_d1.csv": ["ito-check", "-c", str(GOLDEN / "positive_fd_d1.json")],
    # Every layout of the CSV writer: fixed with leading zeros, with an
    # integer part and integer-valued; scientific with 2- and 3-digit
    # exponents; -0; cells of 1e17 and more and cells below 1e-11.
    "gen_smooth_d4.csv": [
        "gen", "--kind", "smooth", "--n", "512", "--d", "4",
        "--expression", "1e25*t**7 ; 1e-6*t - 3e-6*t**2 ; t**60 ; -(0*t) - 12345*t",
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert cli_main(CASES[name] + ["-o", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_path_n300_d4_is_the_head_of_a_gen_path(tmp_path, capsys):
    # gen only writes power-of-two grids; this input keeps the first 300
    # rows of one
    out = tmp_path / "g.csv"
    argv = ["gen", "--kind", "brownian", "--n", "512", "--d", "4", "--seed", "13"]
    assert cli_main(argv + ["-o", str(out)]) == 0
    capsys.readouterr()
    head = out.read_bytes().splitlines(keepends=True)[:301]
    assert b"".join(head) == (GOLDEN / "path_n300_d4.csv").read_bytes()


@pytest.mark.parametrize("threads", [None, "2"], ids=["default", "openblas2"])
@pytest.mark.parametrize(
    "name",
    ["integrate_percell_d2.csv", "ito_check_percell_d2.csv", "assoc_check_d2.csv",
     "assoc_check_d16.csv"],
)
def test_cli_process_bytes_do_not_depend_on_blas_threads(name, threads, tmp_path):
    # These cases sum per-cell and chain-rule dot products, in a fixed order
    # and outside BLAS.  A CLI process runs one OpenBLAS thread unless the
    # environment picks a count; neither set-up may move a byte.
    src = str(Path(pathwise_ito.__file__).resolve().parents[1])
    thread_vars = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in thread_vars}
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "pathwise_ito.cli", *CASES[name], "-o", str(out)],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def _cells(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode())))


def _cell_change(old: bytes, new: bytes) -> tuple[float, float]:
    """Largest absolute and relative change over the numeric cells of two tables."""
    old_rows, new_rows = _cells(old), _cells(new)
    if [len(r) for r in old_rows] != [len(r) for r in new_rows]:
        raise ValueError("the table's layout changed")
    worst_abs = worst_rel = 0.0
    for old_row, new_row in zip(old_rows, new_rows):
        for a, b in zip(old_row, new_row):
            try:
                fa, fb = float(a), float(b)
            except ValueError:
                if a != b:
                    raise ValueError(f"text cell changed: {a!r} -> {b!r}") from None
                continue
            change = abs(fb - fa)
            worst_abs = max(worst_abs, change)
            if change:
                worst_rel = max(worst_rel, change / abs(fa) if fa else float("inf"))
    return worst_abs, worst_rel


def repin(names: list[str]) -> None:
    """Rewrite the named goldens from CASES and print each file's cell change."""
    for name in names:
        target = GOLDEN / name
        old = target.read_bytes() if target.exists() else None
        err = io.StringIO()
        with contextlib.redirect_stdout(err), contextlib.redirect_stderr(err):
            code = cli_main(CASES[name] + ["-o", str(target)])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}: {err.getvalue().strip()}")
        if old is None:
            print(f"{name}: new")
        else:
            worst_abs, worst_rel = _cell_change(old, target.read_bytes())
            print(f"{name}: max abs change {worst_abs:.3e}, max rel change {worst_rel:.3e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite golden CLI outputs.")
    parser.add_argument("--repin", nargs="+", required=True, choices=sorted(CASES),
                        metavar="NAME", help="golden files to rewrite")
    repin(parser.parse_args().repin)
