"""Benchmark harness for the pathwise-ito command line.

    python3 perfbench/run.py --workload state-ito --seed 1 --seconds 58 --trace 0

Runs one workload (or ``all``) through the real CLI, ``python -m
pathwise_ito.cli`` from the checkout's ``src/``, as a closed loop with one
client: one CLI process at a time, each pass running the workload's commands
in order until ``--seconds`` are used up.  Every output is checked against an
independent numpy reference (workloads.py) and against the same command's
first repetition in the run; a failed invocation counts as a failure, never
as a time.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead runs the
passes in-process (inproc.py), alternating untraced and traced ones, and
prints the per-layer metrics of spans.py.  Tracing never runs during the
end-to-end timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric, including those not registered in BENCHMARK.json, and the
run's facts.  ``--record FILE`` appends the full record as one JSON line, for
compare.py.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

from spans import layer_metrics
from workloads import WORKLOADS, Workload, prepare

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_PROBES = 5  # set-up probes per run; setup_s is their median
MIN_PASSES = 3  # end-to-end passes per run, at least
MIN_PAIRS = 1  # untraced + traced pass pairs per traced run, at least
RUN_LIMIT_S = 170.0  # a run ends within this, whatever --seconds says

# Metrics registered in BENCHMARK.json, in print order.
END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "level_points_per_s": "1/s",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PATHWISE_ITO_OUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes


def run_child(argv: list[str], log_prefix: str, timeout: float) -> Child:
    """Run one child process; wall, CPU and max RSS come from its wait4 rusage."""
    out_path, err_path = log_prefix + ".out", log_prefix + ".err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(max(timeout, 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=stdout,
    )


# ---------------------------------------------------------------------------
# Passes and their verdicts


@dataclass
class Invocation:
    """One CLI command of one pass, with its verdict."""

    metric: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    digest: str | None  # sha256 of the output; None when nothing was written
    failed: bool = False
    why: str = ""


@dataclass
class Pass:
    invocations: list[Invocation]
    wall_s: float  # the pass's own wall time (one child for in-process passes)
    traced: bool = False
    spans: dict | None = None

    @property
    def ok(self) -> bool:
        return not any(inv.failed for inv in self.invocations)


def _read_output(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def first_outputs(wl: Workload) -> dict[str, bytes]:
    """What each command wrote in the pass just run; empty bytes if nothing."""
    return {cmd.metric: _read_output(cmd.output) or b"" for cmd in wl.commands}


def _digest(path: str) -> str | None:
    data = _read_output(path)
    return None if data is None else hashlib.sha256(data).hexdigest()


def _clear_outputs(wl: Workload) -> None:
    for cmd in wl.commands:
        if os.path.exists(cmd.output):
            os.remove(cmd.output)


def cli_pass(wl: Workload, workdir: str, index: int, deadline: float) -> Pass:
    """Each command of the workload as its own CLI subprocess, in order."""
    _clear_outputs(wl)
    invocations = []
    for k, cmd in enumerate(wl.commands):
        argv = [sys.executable, "-m", "pathwise_ito.cli", *cmd.argv]
        child = run_child(argv, os.path.join(workdir, f"pass{index}-{k}"), deadline - time.monotonic())
        invocations.append(
            Invocation(cmd.metric, child.wall_s, child.cpu_s, child.rss_mb, child.code, _digest(cmd.output))
        )
    return Pass(invocations, sum(inv.wall_s for inv in invocations))


def inproc_pass(wl: Workload, workdir: str, index: int, deadline: float, traced: bool) -> Pass:
    """All commands through cli_main in one child process, maybe traced."""
    _clear_outputs(wl)
    plan = os.path.join(workdir, "plan.json")
    if not os.path.exists(plan):
        with open(plan, "w", encoding="utf-8") as fh:
            json.dump([list(c.argv) for c in wl.commands], fh)
    argv = [sys.executable, os.path.join(HERE, "inproc.py"), "pass", plan]
    spans_path = os.path.join(workdir, f"spans{index}.json")
    if traced:
        argv += ["--spans", spans_path]
    child = run_child(argv, os.path.join(workdir, f"inproc{index}"), deadline - time.monotonic())
    # a child that did not finish fails every command of the pass
    codes = [child.code] * len(wl.commands)
    spans = None
    if child.code == 0:
        codes = json.loads(child.stdout.decode().strip().splitlines()[-1])["codes"]
        if traced:
            with open(spans_path, encoding="utf-8") as fh:
                spans = json.load(fh)
    invocations = [
        Invocation(cmd.metric, 0.0, 0.0, 0.0, code, _digest(cmd.output))
        for cmd, code in zip(wl.commands, codes)
    ]
    return Pass(invocations, child.wall_s, traced=traced, spans=spans)


def judge(wl: Workload, passes: list[Pass], first: dict[str, bytes]) -> None:
    """Mark every invocation that failed.

    An invocation fails on a nonzero exit, a missing output, output bytes
    that differ from the same command's first repetition in the run, or a
    failed parse or reference check of that first repetition.
    """
    problems = wl.check(first)
    reference = {inv.metric: inv.digest for inv in passes[0].invocations}
    for p in passes:
        for inv in p.invocations:
            if inv.code != 0:
                inv.failed, inv.why = True, f"exit code {inv.code}"
            elif inv.digest is None:
                inv.failed, inv.why = True, "no output written"
            elif inv.digest != reference[inv.metric]:
                inv.failed, inv.why = True, "output differs from the first repetition"
            elif problems.get(inv.metric):
                inv.failed, inv.why = True, "; ".join(problems[inv.metric])


# ---------------------------------------------------------------------------
# Summaries


def high_percentile(values: list[float]) -> tuple[float, float] | None:
    """The highest of p99.9/p99/p95/p90/p75/p50 with at least ten samples
    above it, as (p, value by nearest rank), or None if there is none."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            ranked = sorted(values)
            return p, ranked[min(n - 1, int(np.ceil(p / 100.0 * n)) - 1)]
    return None


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def counts(passes: list[Pass]) -> tuple[int, int]:
    invs = [inv for p in passes for inv in p.invocations]
    return len(invs), sum(inv.failed for inv in invs)


def end_to_end(wl: Workload, passes: list[Pass], setups: list[float]) -> tuple[dict, dict]:
    """(registered metrics, further metrics) of an end-to-end run."""
    good = [p for p in passes if p.ok]
    wall = _median([p.wall_s for p in good])
    metrics = {
        "wall_s": wall,
        "cpu_s": _median([sum(i.cpu_s for i in p.invocations) for p in good]),
        "peak_rss_mb": _median([max(i.rss_mb for i in p.invocations) for p in good]),
        "setup_s": _median(setups),
        "level_points_per_s": None if not wall else wl.level_points / wall,
    }
    attempted, failed = counts(passes)
    extra = {
        "wall_s.samples": (len(good), "count"),
        "setup_s.samples": (len(setups), "count"),
        "failed_frac": (failed / attempted if attempted else 1.0, "ratio"),
        "level_points": (wl.level_points, "count"),
    }
    hp = high_percentile([p.wall_s for p in good])
    if hp is not None:
        extra[f"wall_s.p{hp[0]:g}"] = (hp[1], "s")
    for cmd in wl.commands:
        walls = [i.wall_s for p in passes for i in p.invocations if i.metric == cmd.metric and not i.failed]
        extra[cmd.metric] = (_median(walls), "s")
        extra[cmd.metric + ".samples"] = (len(walls), "count")
        hp = high_percentile(walls)
        if hp is not None:
            extra[f"{cmd.metric}.p{hp[0]:g}"] = (hp[1], "s")
    return metrics, extra


def per_layer(passes: list[Pass]) -> tuple[dict, dict]:
    """(registered metrics, further metrics) of a traced run."""
    traced = [p for p in passes if p.traced and p.ok]
    plain = [p for p in passes if not p.traced and p.ok]
    per_pass = [layer_metrics(p.spans) for p in traced]
    metrics, units = {}, {}
    for name, (_, unit) in layer_metrics(None).items():
        values = [m[name][0] for m in per_pass]
        # counts stay whole numbers: the lower median is one pass's count
        pick = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = pick(values) if values else None
        units[name] = unit
    t_wall, u_wall = _median([p.wall_s for p in traced]), _median([p.wall_s for p in plain])
    metrics["trace.overhead_s"] = None if t_wall is None or u_wall is None else t_wall - u_wall
    units["trace.overhead_s"] = "s"
    extra = {
        "traced_pass_s": (t_wall, "s"),
        "untraced_pass_s": (u_wall, "s"),
        "traced_passes": (len(traced), "count"),
        "untraced_passes": (len(plain), "count"),
    }
    return {k: (v, units[k]) for k, v in metrics.items()}, extra


# ---------------------------------------------------------------------------
# Facts


def _git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_files() -> list[str]:
    found = []
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        found += [os.path.join(base, f) for f in sorted(files) if f.endswith(".py")]
    return found


def facts(wl: Workload) -> dict:
    lines, digest = 0, hashlib.sha256()
    for path in _src_files():
        with open(path, "rb") as fh:
            data = fh.read()
        lines += data.count(b"\n")
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + data)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "workload": wl.name,
        **wl.facts,
        "commands": [c.argv[0] for c in wl.commands],
        "level_points": wl.level_points,
    }


# ---------------------------------------------------------------------------
# One run


class HarnessError(Exception):
    """The benchmark cannot run here (no sources, wrong package, bad set-up)."""


def setup_probe(wl: Workload, workdir: str, index: int, deadline: float) -> float:
    argv = [sys.executable, os.path.join(HERE, "inproc.py"), *wl.setup_argv]
    log = os.path.join(workdir, f"setup{index}")
    child = run_child(argv, log, deadline - time.monotonic())
    if child.code != 0:
        with open(log + ".err", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise HarnessError(f"set-up probe exited {child.code}:\n{tail}")
    module = json.loads(child.stdout.decode().strip().splitlines()[-1])["module"]
    if not os.path.abspath(module).startswith(SRC + os.sep):
        raise HarnessError(f"measured {module}, not the checkout's own src/")
    return child.wall_s


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-s{seed}-", dir=WORK_ROOT)
    try:
        wl = prepare(name, seed, workdir)
        passes: list[Pass] = []
        setups: list[float] = []
        t0 = time.monotonic()
        while True:
            if trace:
                # an untraced and a traced pass, alternating, for the overhead
                for traced in (False, True):
                    passes.append(inproc_pass(wl, workdir, len(passes), deadline, traced))
                    if len(passes) == 1:
                        first = first_outputs(wl)
                done, minimum = len(passes) // 2, MIN_PAIRS
            else:
                # SETUP_PROBES set-up probes spread evenly over the run, so
                # setup_s samples all of it and the passes get the rest
                due = len(setups) * seconds / SETUP_PROBES
                if len(setups) < SETUP_PROBES and time.monotonic() - start >= due:
                    setups.append(setup_probe(wl, workdir, len(setups), deadline))
                passes.append(cli_pass(wl, workdir, len(passes), deadline))
                if len(passes) == 1:
                    first = first_outputs(wl)
                done, minimum = len(passes), MIN_PASSES
            now = time.monotonic()
            step = (now - t0) / done
            # start another pass only if it should end less than half a pass
            # past --seconds, counted from the start of the run
            if now + step > deadline or (done >= minimum and now - start + step / 2 > seconds):
                break
        while not trace and len(setups) < SETUP_PROBES:
            setups.append(setup_probe(wl, workdir, len(setups), deadline))
        judge(wl, passes, first)
        if trace:
            metrics, extra = per_layer(passes)
        else:
            registered, extra = end_to_end(wl, passes, setups)
            metrics = {k: (v, END_TO_END[k]) for k, v in registered.items()}
        attempted, failed = counts(passes)
        problems = sorted({f"{i.metric}: {i.why}" for p in passes for i in p.invocations if i.failed})
        return {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "facts": facts(wl),
            "correct": failed == 0 and all(v is not None for v, _ in metrics.values()),
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "metrics": metrics,
            "extra": extra,
            "run_s": time.monotonic() - start,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_record(rec: dict) -> None:
    kind = "per-layer (traced)" if rec["trace"] else "end-to-end"
    print(f"== {rec['workload']} seed={rec['seed']} {kind}: "
          f"{rec['attempted']} invocations, {rec['failed']} failed")
    for name, (value, unit) in rec["metrics"].items():
        print(f"  {name:36s} {_fmt(value):>14s} {unit}")
    for name, (value, unit) in rec["extra"].items():
        print(f"  {name:36s} {_fmt(value):>14s} {unit}   (not gated)")
    for problem in rec["problems"]:
        print(f"  FAILED {problem}")
    print("facts: " + json.dumps(rec["facts"], sort_keys=True))


def result_line(rec: dict) -> dict:
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()},
    }


def _terminate(signum, frame):
    # unwind, so the running child is killed and reaped and the work dir removed
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description="pathwise-ito CLI benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "pathwise_ito", "cli.py")):
        print(f"error: no pathwise_ito sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print_record(rec)
        if args.record is not None:
            with open(args.record, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        results[name] = result_line(rec)
    last = results[names[0]] if len(names) == 1 else results
    print(json.dumps(last), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
