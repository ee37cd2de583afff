"""Golden CLI outputs: each command reproduces its pinned CSV byte for byte.

The CSVs under ``tests/golden/`` were written by the CLI before any refactor
that keeps the summation order, so a change that moves a single bit of a
reported number fails here.  Inputs stay at N <= 2^9 with polynomial
formulas only, so the bytes do not depend on the platform's libm.

To pin a deliberate change of summation order, rerun the command lines below
with ``-o tests/golden/<file>`` and state the deviation bound in CHANGES.md.
"""
from pathlib import Path

import pytest

from pathwise_ito.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "gen_d2.csv": ["gen", "--kind", "brownian", "--n", "256", "--d", "2", "--seed", "7"],
    "qv_d2.csv": ["qv", "-i", str(GOLDEN / "gen_d2.csv")],
    "gen_d5.csv": ["gen", "--kind", "brownian", "--n", "512", "--d", "5", "--seed", "11"],
    "qv_d5.csv": ["qv", "-i", str(GOLDEN / "gen_d5.csv")],
    "qv_d5_levels2.csv": ["qv", "-i", str(GOLDEN / "gen_d5.csv"), "--levels", "2"],
    "qv_d5_levels1.csv": ["qv", "-i", str(GOLDEN / "gen_d5.csv"), "--levels", "1"],
    "integrate_d1.csv": ["integrate", "-c", str(GOLDEN / "cylinder_d1.json")],
    "ito_check_d1.csv": ["ito-check", "-c", str(GOLDEN / "cylinder_d1.json")],
    "integrate_d3.csv": ["integrate", "-c", str(GOLDEN / "cylinder_d3.json")],
    "ito_check_d3.csv": ["ito-check", "-c", str(GOLDEN / "cylinder_d3.json")],
    "assoc_check_d2.csv": ["assoc-check", "-c", str(GOLDEN / "assoc_d2.json")],
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
