"""What a CLI process imports, its BLAS threads, and the lazy package names.

``pathwise_ito`` resolves its public names on first access, and each
subcommand imports only the modules it runs, so ``gen`` and ``qv`` never pay
for the functional, formula and integral layers, and a config that names a
path file never loads the generators.  The CLI asks OpenBLAS for one thread
unless the environment picks a count; the library leaves ``os.environ`` alone.
Checked in a fresh interpreter, since the test session itself has imported
everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pathwise_ito

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run(script, *args, **preset):
    """Run ``script`` in a fresh interpreter with only ``preset`` of THREAD_VARS set."""
    src = str(Path(pathwise_ito.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


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
    report = _run(_SCRIPT, tmp_path / "x.csv", tmp_path / "qv.csv")
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


# FIRST is what the fresh interpreter imports first: the CLI, numpy and then
# the CLI, or the library modules alone.  With a config argument the CLI then
# integrates it.
_ENV_SCRIPT = """
import json, os, sys
first = sys.argv[1]
before = dict(os.environ)
if first == "numpy":
    import numpy
if first == "library":
    import pathwise_ito, pathwise_ito.config, pathwise_ito.ito
else:
    from pathwise_ito.cli import cli_main
keys = set(before) | set(os.environ)
report = {
    "changed": sorted(k for k in keys if before.get(k) != os.environ.get(k)),
    "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")},
    "tasks": len(os.listdir("/proc/self/task")) if sys.platform.startswith("linux") else None,
}
if len(sys.argv) > 2:
    report["code"] = cli_main(["integrate", "-c", sys.argv[2], "-o", sys.argv[3]])
    report["pathgen"] = "pathwise_ito.pathgen" in sys.modules
print(json.dumps(report))
"""


def test_cli_runs_openblas_on_one_thread_and_a_path_file_loads_no_generator(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("t,x1\n" + "".join(f"{i / 8!r},{(i % 3) / 4!r}\n" for i in range(9)))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "path": {"file": str(path)},
        "functional": {"cylinder": {"f": "x1**2", "grad": ["2*x1"], "hess": [["2"]], "dt": "0"}},
    }))
    report = _run(_ENV_SCRIPT, "cli", config, tmp_path / "out.csv")
    assert report["changed"] == ["OPENBLAS_NUM_THREADS"]
    assert report["env"] == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    assert report["code"] == 0
    assert report["pathgen"] is False
    if report["tasks"] is None:
        pytest.skip("thread count read from /proc/self/task on Linux only")
    assert report["tasks"] == 1


@pytest.mark.parametrize(
    "preset",
    [{"OPENBLAS_NUM_THREADS": "3"}, {"OMP_NUM_THREADS": "2"}, {"GOTO_NUM_THREADS": "2"}],
    ids=lambda preset: next(iter(preset)),
)
def test_cli_keeps_a_thread_count_the_environment_picked(preset):
    report = _run(_ENV_SCRIPT, "cli", **preset)
    assert report["changed"] == []
    assert report["env"] == {k: preset.get(k) for k in THREAD_VARS}


@pytest.mark.parametrize("first", ["numpy", "library"])
def test_library_and_a_cli_imported_after_numpy_leave_the_environment_alone(first):
    report = _run(_ENV_SCRIPT, first)
    assert report["changed"] == []
    assert report["env"] == dict.fromkeys(THREAD_VARS)
