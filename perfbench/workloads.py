"""The benchmark's workloads: seeded inputs, the CLI commands of one pass, and
the independent numpy checks of every output.

Each workload exists to load different layers of the library:

* ``state-ito``: ``integrate`` then ``ito-check`` of a cylinder functional
  with every derivative analytic.  The ito, functionals and expressions
  layers do almost all the work, once per grid point and level; qv, pathgen
  and the finite differences do almost none.
* ``qv-wide``: ``gen`` of a 16-dimensional path, then ``qv`` on that file.
  QV polarization (136 column passes per level), CSV reading and writing and
  the CLI's table output do the work; ito, functionals and expressions do
  none, so a change to the integral must read "no change" here.
* ``assoc-fd``: ``assoc-check`` with composed, non-cylinder integrands whose
  horizontal and second vertical derivatives come from finite differences.
  It drives the ito layer through built Y paths, ``stop`` copies and bumped
  paths, so a cylinder-only fast path bypasses it.

The harness writes every input (path CSV, config JSON) from the seed; the
program sees only those files.
"""
from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

WORKLOADS = ("state-ito", "qv-wide", "assoc-fd")

# Default sizes (log2 of the number of grid points).
STATE_LOG2_N = 14
QV_LOG2_N = 13
QV_D = 16
ASSOC_LOG2_N = 11

# Reference tolerances, fixed before measuring.
ITO_RESIDUAL_RTOL = 1e-9
INTEGRAL_RTOL = 1e-12
QV_RTOL = 1e-12
GEN_RTOL = 1e-12
ASSOC_RTOL = 1e-3


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass."""

    metric: str  # per-subcommand metric name, e.g. "integrate_s"
    argv: tuple[str, ...]  # arguments after ``python -m pathwise_ito.cli``
    output: str  # the file the command writes
    level_points: int  # partition points summed over the levels it evaluates


@dataclass(frozen=True)
class Workload:
    """A prepared workload: its commands, its set-up, its checks and facts."""

    name: str
    commands: tuple[Command, ...]
    setup_argv: tuple[str, ...]  # arguments to ``inproc.py setup``
    facts: dict
    # check(outputs) -> {command metric: [problems]}; outputs maps each
    # command's metric to the bytes it wrote.
    check: Callable[[dict[str, bytes]], dict[str, list[str]]]

    @property
    def level_points(self) -> int:
        return sum(c.level_points for c in self.commands)


# ---------------------------------------------------------------------------
# Inputs


def brownian(seed: int, n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Scaled random walk on [0, 1] with n grid points, from a PCG64 seed."""
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    z = rng.standard_normal((n - 1, d))
    x = np.vstack([np.zeros((1, d)), np.cumsum(np.sqrt(1.0 / n) * z, axis=0)])
    return np.linspace(0.0, 1.0, n), x


def write_path(fname: str, t: np.ndarray, x: np.ndarray) -> None:
    """Path CSV with shortest round-trip floats, so the program reads x exactly."""
    with open(fname, "w", encoding="ascii", newline="") as fh:
        fh.write(",".join(["t"] + [f"x{i + 1}" for i in range(x.shape[1])]) + "\n")
        for k in range(t.shape[0]):
            fh.write(",".join(repr(float(v)) for v in (t[k], *x[k])) + "\n")


def level_points(n_points: int, levels, num_levels: int) -> int:
    """Partition points summed over levels of a dyadic sequence on n_points."""
    total = 0
    for level in levels:
        stride = 2 ** (num_levels - level)
        total += len(range(0, n_points - 1, stride)) + 1
    return total


def _cli(*args) -> tuple[str, ...]:
    return tuple(str(a) for a in args)


# ---------------------------------------------------------------------------
# Parsing


class CheckError(Exception):
    """An output failed to parse or failed its reference check."""


def parse_table(data: bytes) -> tuple[list[str], np.ndarray]:
    """A numeric CSV table: header names and an (rows, columns) float array."""
    try:
        lines = data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        raise CheckError(f"not ASCII: {exc}") from None
    if len(lines) < 2:
        raise CheckError("no data rows")
    header = lines[0].split(",")
    cells = ",".join(lines[1:]).split(",")
    if len(cells) != len(header) * (len(lines) - 1):
        raise CheckError("ragged rows")
    try:
        values = np.array(cells, dtype=np.float64)
    except ValueError as exc:
        raise CheckError(f"unparsable number: {exc}") from None
    return header, values.reshape(len(lines) - 1, len(header))


def _parse_records(data: bytes, header: list[str]) -> list[dict[str, str]]:
    try:
        rows = list(csv.DictReader(io.StringIO(data.decode("ascii"))))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise CheckError(f"unparsable CSV: {exc}") from None
    if not rows or list(rows[0].keys()) != header:
        raise CheckError(f"expected header {header}")
    return rows


def _float(text: str) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        raise CheckError(f"unparsable number {text!r}") from None


def _guarded(fn: Callable[[], list[str]]) -> list[str]:
    try:
        return fn()
    except CheckError as exc:
        return [str(exc)]


# ---------------------------------------------------------------------------
# state-ito


_STATE_FUNCTIONAL = {
    "cylinder": {
        "f": "x1**2 + a1",
        "grad": ["2*x1"],
        "hess": [["2"]],
        "dt": "0",
        "da": ["1"],
    }
}


def _state_ito(seed: int, workdir: str, log2_n: int) -> Workload:
    n = 2**log2_n
    num_levels = log2_n - 1  # default_num_levels: floor(log2(n - 1))
    t, x = brownian(seed, n, 1)
    path_csv = os.path.join(workdir, "path.csv")
    write_path(path_csv, t, x)
    config = os.path.join(workdir, "state.json")
    with open(config, "w", encoding="ascii") as fh:
        json.dump(
            {
                "path": {"file": path_csv},
                "components": [{"kind": "time-average", "component": 0}],
                "functional": _STATE_FUNCTIONAL,
            },
            fh,
        )
    levels = range(1, num_levels + 1)
    pts = level_points(n, levels, num_levels)
    integ_out = os.path.join(workdir, "integral.csv")
    ito_out = os.path.join(workdir, "ito.csv")
    commands = (
        Command("integrate_s", _cli("integrate", "-c", config, "-o", integ_out), integ_out, pts),
        Command("ito_check_s", _cli("ito-check", "-c", config, "-o", ito_out), ito_out, pts),
    )
    xs = x[:, 0]
    # The finest level is the base grid, so the integral at T is the plain
    # left-point sum of 2 X dX in grid order.
    ref_T = float(np.cumsum(2.0 * xs[:-1] * np.diff(xs))[-1])

    def integral_at_T(data: bytes) -> float:
        header, table = parse_table(data)
        if header != ["level", "t", "I"]:
            raise CheckError(f"unexpected integrate header {header}")
        if table[-1, 0] != num_levels or table[-1, 1] != t[-1]:
            raise CheckError("last integrate row is not the finest level at T")
        return float(table[-1, 2])

    def check_integrate(out: dict[str, bytes]) -> list[str]:
        got = integral_at_T(out["integrate_s"])
        if abs(got - ref_T) > INTEGRAL_RTOL * max(1.0, abs(ref_T)):
            return [f"integral at T {got!r} != numpy sum {ref_T!r}"]
        return []

    def check_ito(out: dict[str, bytes]) -> list[str]:
        header, table = parse_table(out["ito_check_s"])
        if header != ["level", "term_lhs", "term_ito", "term_horiz", "term_qv", "residual"]:
            raise CheckError(f"unexpected ito-check header {header}")
        problems = []
        if list(table[:, 0]) != list(levels):
            problems.append("ito-check levels differ from the configured ones")
        lhs = float(table[0, 1])
        worst = float(np.max(np.abs(table[:, 5])))
        if not worst <= ITO_RESIDUAL_RTOL * max(1.0, abs(lhs)):
            problems.append(f"residual {worst!r} above {ITO_RESIDUAL_RTOL} * max(1, |lhs|)")
        term_ito = float(table[-1, 2])
        if abs(term_ito - ref_T) > INTEGRAL_RTOL * max(1.0, abs(ref_T)):
            problems.append(f"term_ito {term_ito!r} != numpy sum {ref_T!r}")
        try:
            integ = integral_at_T(out["integrate_s"])
        except (CheckError, KeyError):
            integ = None  # integrate's own check reports that failure
        if integ is not None and integ != term_ito:
            problems.append(f"term_ito {term_ito!r} != integrate's I(T) {integ!r}")
        return problems

    def check(out):
        return {
            "integrate_s": _guarded(lambda: check_integrate(out)),
            "ito_check_s": _guarded(lambda: check_ito(out)),
        }

    return Workload(
        name="state-ito",
        commands=commands,
        setup_argv=_cli("setup", "--config", config, "--d", 1, "--m", 1),
        facts={"N": n, "d": 1, "levels": list(levels), "seed": seed},
        check=check,
    )


# ---------------------------------------------------------------------------
# qv-wide


def _qv_wide(seed: int, workdir: str, log2_n: int) -> Workload:
    n, d = 2**log2_n, QV_D
    num_levels = log2_n - 1
    path_csv = os.path.join(workdir, "path.csv")
    qv_out = os.path.join(workdir, "qv.csv")
    gen_argv = _cli("gen", "--kind", "brownian", "--n", n, "--d", d, "--seed", seed, "-o", path_csv)
    commands = (
        Command("gen_s", gen_argv, path_csv, n),
        Command(
            "qv_s",
            _cli("qv", "-i", path_csv, "-o", qv_out),
            qv_out,
            level_points(n, range(1, num_levels + 1), num_levels),
        ),
    )
    t_ref, x_ref = brownian(seed, n, d)
    pairs = [(i, j) for i in range(d) for j in range(i, d)]

    def parse_path(data: bytes) -> np.ndarray:
        header, table = parse_table(data)
        if header != ["t"] + [f"x{i + 1}" for i in range(d)] or table.shape[0] != n:
            raise CheckError("gen output has the wrong header or row count")
        return table

    def check_gen(out: dict[str, bytes]) -> list[str]:
        table = parse_path(out["gen_s"])
        scale = max(1.0, float(np.max(np.abs(x_ref))))
        gap = float(np.max(np.abs(table[:, 1:] - x_ref)))
        if not np.array_equal(table[:, 0], t_ref) or gap > GEN_RTOL * scale:
            return [f"gen path differs from the numpy reference by {gap!r}"]
        return []

    def check_qv(out: dict[str, bytes]) -> list[str]:
        header, table = parse_table(out["qv_s"])
        want = ["t"] + [f"qv_{i + 1}{j + 1}" for i, j in pairs] + ["level_diff"]
        if header != want or table.shape[0] != n:
            raise CheckError("qv output has the wrong header or row count")
        try:
            x = parse_path(out["gen_s"])[:, 1:]
        except (CheckError, KeyError):
            raise CheckError("no readable gen output to check qv against") from None
        dx = np.diff(x, axis=0)
        problems = []
        for col, (i, j) in enumerate(pairs, start=1):
            ref = float(np.sum(dx[:, i] * dx[:, j]))
            scale = max(1.0, float(np.sum(dx[:, i] ** 2) + np.sum(dx[:, j] ** 2)))
            if abs(table[-1, col] - ref) > QV_RTOL * scale:
                problems.append(f"qv_{i + 1}{j + 1} at T {table[-1, col]!r} != numpy {ref!r}")
        return problems

    def check(out):
        return {
            "gen_s": _guarded(lambda: check_gen(out)),
            "qv_s": _guarded(lambda: check_qv(out)),
        }

    return Workload(
        name="qv-wide",
        commands=commands,
        setup_argv=_cli("setup"),
        facts={"N": n, "d": d, "levels": list(range(1, num_levels + 1)), "seed": seed},
        check=check,
    )


# ---------------------------------------------------------------------------
# assoc-fd

# Both integrands are quadratic in x and additive in a1, so the discrete Ito
# formula behind the augmented system is exact at the finest level and the
# finest associativity residual is rounding only: the 1e-3 * |lhs| bound then
# holds for every seed.  A coupled term such as x1*a1 leaves an O(N^-1/2)
# residual that no fixed relative bound can gate across seeds.
_ASSOC_OUTER = {
    "cylinder": {"f": "x1*x2", "grad": ["x2", "x1"], "hess": [["0", "1"], ["1", "0"]], "dt": "0"}
}
_ASSOC_INTEGRANDS = [
    # no dt/da: the horizontal derivative comes from fd_horizontal via stop()
    {"cylinder": {"f": "x1**2 + a1", "grad": ["2*x1", "0"], "hess": [["2", "0"], ["0", "0"]]}},
    # no hess: the second vertical comes from fd_vertical2 via bumped copies
    {"cylinder": {"f": "x1*x2 + 0.5*x2**2 + a1", "grad": ["x2", "x1 + x2"], "dt": "0", "da": ["1"]}},
]


def _assoc_fd(seed: int, workdir: str, log2_n: int) -> Workload:
    n = 2**log2_n
    num_levels = log2_n
    levels = [num_levels - 4, num_levels - 2, num_levels]
    t, x = brownian(seed, n, 2)
    path_csv = os.path.join(workdir, "path.csv")
    write_path(path_csv, t, x)
    config = os.path.join(workdir, "assoc.json")
    with open(config, "w", encoding="ascii") as fh:
        json.dump(
            {
                "path": {"file": path_csv},
                "components": [{"kind": "time-average", "component": 0}],
                "levels": levels,
                "outer": _ASSOC_OUTER,
                "integrands": _ASSOC_INTEGRANDS,
            },
            fh,
        )
    out_csv = os.path.join(workdir, "assoc.csv")
    commands = (
        Command(
            "assoc_check_s",
            _cli("assoc-check", "-c", config, "-o", out_csv),
            out_csv,
            level_points(n, levels, num_levels),
        ),
    )
    header = ["level", "lhs", "rhs", "abs_residual", "ratio"]

    def check_assoc(out: dict[str, bytes]) -> list[str]:
        rows = _parse_records(out["assoc_check_s"], header)
        if [_float(r["level"]) for r in rows] != levels:
            return ["assoc-check levels differ from the configured ones"]
        coarse = _float(rows[0]["abs_residual"])
        fine = _float(rows[-1]["abs_residual"])
        lhs = _float(rows[-1]["lhs"])
        for r in rows:
            _float(r["rhs"])
        problems = []
        if not fine < coarse:
            problems.append(f"finest residual {fine!r} not below the coarsest {coarse!r}")
        if not fine <= ASSOC_RTOL * abs(lhs):
            problems.append(f"finest residual {fine!r} above {ASSOC_RTOL} * |lhs| = {ASSOC_RTOL * abs(lhs)!r}")
        return problems

    def check(out):
        return {"assoc_check_s": _guarded(lambda: check_assoc(out))}

    return Workload(
        name="assoc-fd",
        commands=commands,
        setup_argv=_cli("setup", "--config", config, "--d", 2, "--m", 1),
        facts={"N": n, "d": 2, "levels": levels, "seed": seed},
        check=check,
    )


_BUILDERS = {
    "state-ito": (_state_ito, STATE_LOG2_N),
    "qv-wide": (_qv_wide, QV_LOG2_N),
    "assoc-fd": (_assoc_fd, ASSOC_LOG2_N),
}


def prepare(name: str, seed: int, workdir: str, log2_n: int | None = None) -> Workload:
    """Write the workload's inputs for ``seed`` into workdir and describe it.

    ``log2_n`` overrides the default size; the harness self-check uses it to
    run tiny passes.
    """
    build, default = _BUILDERS[name]
    return build(int(seed), workdir, default if log2_n is None else int(log2_n))
