"""What a CLI process imports, and the lazily resolved package names.

``pathwise_ito`` resolves its public names on first access, and each
subcommand imports only the modules it runs, so ``gen`` and ``qv`` never pay
for the functional, formula and integral layers.  Checked in a fresh
interpreter, since the test session itself has imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pathwise_ito

_SCRIPT = """
import json, sys
from pathwise_ito.cli import cli_main

heavy = {"pathwise_ito." + m for m in ("config", "functionals", "ito", "expressions")}
path, table = sys.argv[1:]
report = {"codes": [cli_main(["gen", "--kind", "brownian", "--n", "64", "--d", "2", "-o", path])]}
report["after_gen"] = sorted(heavy & set(sys.modules))
report["codes"].append(cli_main(["qv", "-i", path, "-o", table]))
report["after_qv"] = sorted(heavy & set(sys.modules))
report["modules"] = sorted(m for m in sys.modules if m.startswith("pathwise_ito"))

import pathwise_ito
report["not_in_dir"] = sorted(set(pathwise_ito.__all__) - set(dir(pathwise_ito)))
names = {}
exec("from pathwise_ito import *", names)
report["not_bound"] = sorted(set(pathwise_ito.__all__) - set(names))
report["unknown_resolves"] = hasattr(pathwise_ito, "no_such_name")

import pathwise_ito.config, pathwise_ito.ito, pathwise_ito.paths
from pathwise_ito.config import default_num_levels
report["same_hypothesis_error"] = (
    pathwise_ito.HypothesisError is pathwise_ito.ito.HypothesisError is pathwise_ito.paths.HypothesisError
)
report["same_default_num_levels"] = default_num_levels is pathwise_ito.paths.default_num_levels
print(json.dumps(report))
"""


def test_gen_and_qv_import_only_what_they_run(tmp_path):
    src = str(Path(pathwise_ito.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "x.csv"), str(tmp_path / "qv.csv")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["after_gen"] == []
    assert report["after_qv"] == []
    assert report["modules"] == [
        "pathwise_ito",
        "pathwise_ito._g17",
        "pathwise_ito.cli",
        "pathwise_ito.pathgen",
        "pathwise_ito.paths",
        "pathwise_ito.qv",
        "pathwise_ito.reduction",
        "pathwise_ito.stieltjes",
    ]
    assert report["not_in_dir"] == []
    assert report["not_bound"] == []
    assert report["unknown_resolves"] is False
    assert report["same_hypothesis_error"] is True
    assert report["same_default_num_levels"] is True
