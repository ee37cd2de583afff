"""The benchmark's traced run wraps library names and binds their parameters.

``perfbench/spans.py`` patches spans around public functions by name and
binds some of their arguments by parameter name (``ito_integral``'s
``plain_riemann``, the qv functions' ``x``, ``qv_converged``'s ``levels``,
the CSV functions' ``src`` and ``dest``).  A removed name or a renamed
parameter breaks only that traced run, so a tiny pass of it runs here, in
its own process, with ``spans.py`` imported as it is: every command, with
``qv`` on both of its routes (one level runs ``qv_matrix``).
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pathwise_ito

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from spans import SpanRecorder, install
import pathwise_ito.cli
recorder = SpanRecorder()
install(recorder)
codes = [pathwise_ito.cli.cli_main(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "calls": sorted(recorder.calls)}))
"""


def test_a_traced_pass_runs_under_the_benchmark_spans(tmp_path):
    config = {
        "path": {"generator": {"kind": "brownian", "base_points": 64, "seed": 1}},
        "components": [{"kind": "time-average", "component": 0}],
        "functional": {
            "cylinder": {
                "f": "x1**2 + a1", "grad": ["2*x1"], "hess": [["2"]], "dt": "0", "da": ["1"],
            }
        },
        "levels": [3, 4, 5],
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(config))
    assoc = json.loads((ROOT / "tests" / "golden" / "assoc_d2.json").read_text())
    assoc["path"]["generator"]["base_points"] = 64
    assoc["levels"] = [3, 4, 5]
    assoc_cfg = tmp_path / "assoc.json"
    assoc_cfg.write_text(json.dumps(assoc))
    path = str(tmp_path / "x.csv")
    plan = [
        ["gen", "--kind", "brownian", "--n", "64", "--d", "2", "-o", path],
        ["qv", "-i", path, "--levels", "4", "-o", str(tmp_path / "qv.csv")],
        ["qv", "-i", path, "--levels", "1", "-o", str(tmp_path / "qv1.csv")],
        ["integrate", "-c", str(cfg), "-o", str(tmp_path / "int.csv")],
        ["ito-check", "-c", str(cfg), "-o", str(tmp_path / "ito.csv")],
        ["assoc-check", "-c", str(assoc_cfg), "-o", str(tmp_path / "assoc.csv")],
    ]
    src = str(Path(pathwise_ito.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), json.dumps(plan)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0] * len(plan)
    for name in ("ito.ito_integral", "qv.qv_converged", "qv.qv_matrix", "ito.augment",
                 "ito.associativity_check", "paths.read_path_table",
                 "paths.write_path_csv", "cli.cli_main"):
        assert name in result["calls"]
