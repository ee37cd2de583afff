"""Negative check of the harness: a tampered output and a nonzero exit must
each count as a failure, never as a time.

    python3 perfbench/selfcheck.py

Runs tiny state-ito passes (N = 2^8) through the real CLI, then feeds the
harness's verdict and summary code three cases: an output whose bytes
differ from the first repetition, a first repetition whose numbers were
tampered with, and a pass whose commands exit nonzero.  Prints one line per
expectation and exits 1 if any fails.
"""
from __future__ import annotations

import copy
import hashlib
import os
import shutil
import sys
import tempfile
import time

import run
from workloads import prepare


def _tamper(data: bytes) -> bytes:
    """Nudge the last number of a CSV by one part in a million."""
    head, _, last = data.rstrip(b"\n").rpartition(b",")
    return head + b"," + repr(float(last) * (1.0 + 1e-6)).encode() + b"\n"


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "pathwise_ito", "cli.py")):
        print(f"error: no pathwise_ito sources under {run.SRC}", file=sys.stderr)
        return 2
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK_ROOT)
    failures = 0

    def expect(what: str, ok: bool) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    try:
        wl = prepare("state-ito", 7, workdir, log2_n=8)
        deadline = time.monotonic() + 120.0
        passes = [run.cli_pass(wl, workdir, 0, deadline)]
        first = run.first_outputs(wl)
        passes.append(run.cli_pass(wl, workdir, 1, deadline))

        clean = copy.deepcopy(passes)
        run.judge(wl, clean, first)
        expect("untouched passes are all correct", run.counts(clean) == (4, 0))

        # A repetition whose bytes differ from the first one.
        differ = copy.deepcopy(passes)
        differ[1].invocations[0].digest = hashlib.sha256(_tamper(first["integrate_s"])).hexdigest()
        run.judge(wl, differ, first)
        _, extra = run.end_to_end(wl, differ, [1.0])
        expect("a differing repetition is counted as failed", run.counts(differ) == (4, 1))
        expect("its pass gives no wall_s sample", extra["wall_s.samples"][0] == 1)
        expect("its command gives no integrate_s sample", extra["integrate_s.samples"][0] == 1)

        # A first repetition whose numbers were tampered with.
        bad_first = dict(first, integrate_s=_tamper(first["integrate_s"]))
        tampered = copy.deepcopy(passes)
        run.judge(wl, tampered, bad_first)
        failed = {inv.metric for p in tampered for inv in p.invocations if inv.failed}
        expect("a tampered output fails its reference check", "integrate_s" in failed)
        metrics, _ = run.end_to_end(wl, tampered, [1.0])
        expect("a tampered run reports no wall_s", metrics["wall_s"] is None)

        # Commands that exit nonzero: the config is no longer valid JSON.
        config = wl.commands[0].argv[2]
        with open(config, "w", encoding="ascii") as fh:
            fh.write("{not json")
        broken = passes + [run.cli_pass(wl, workdir, 2, deadline)]
        run.judge(wl, broken, first)
        codes = [inv.code for inv in broken[2].invocations]
        _, extra = run.end_to_end(wl, broken, [1.0])
        expect(f"nonzero exits (codes {codes}) are counted as failed", run.counts(broken) == (6, 2))
        expect("the failed pass gives no wall_s sample", extra["wall_s.samples"][0] == 2)
        expect("failed_frac reads 2/6", abs(extra["failed_frac"][0] - 2 / 6) < 1e-12)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
