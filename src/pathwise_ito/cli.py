"""Command line front end.

Five subcommands tie the library into reproducible experiments:

* ``gen``          write a synthetic path as CSV
* ``qv``           quadratic variation table of a path file
* ``integrate``    pathwise integral of a configured integrand
* ``ito-check``    change-of-variables decomposition per level
* ``assoc-check``  both sides of the associativity identity per level

Data goes to ``-o`` (file) or stdout; human-readable summaries go to
stderr.  Relative output paths resolve against $PATHWISE_ITO_OUT_DIR.
Exit codes: 0 success, 1 domain failure (including a NaN or infinite
term) or convergence-gate failure, 2 bad input (I/O, CSV, JSON, config).
All numbers print with 17 significant digits so outputs are bit-stable
across runs.  Each subcommand imports only the modules it runs.  OpenBLAS
runs on one thread unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set: no route here calls BLAS, and idle pool workers
spin on CPU while numpy loads.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

# Set before numpy loads OpenBLAS; a process that loaded numpy first, or a user
# who picked a count, keeps its own set-up.
if "numpy" not in sys.modules and not {
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"
} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .paths import (
    DomainError,
    HypothesisError,
    PartitionSequence,
    PathFormatError,
    _format,
    _write_table,
    default_num_levels,
    default_output_dir,
    load_sampled_path,
    write_path_csv,
)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


@contextlib.contextmanager
def _open_output(dest: str | None):
    """Yield a writable text stream: a resolved file, or stdout."""
    if dest is None or dest == "-":
        yield sys.stdout
        return
    if not os.path.isabs(dest):
        dest = os.path.join(default_output_dir(), dest)
    parent = os.path.dirname(dest)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(dest, "w", newline="", encoding="utf-8") as fh:
        yield fh


def _resolve_dest(args, config) -> str | None:
    if args.output is not None:
        return args.output
    if config is not None and config.output is not None:
        return config.output
    return None


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    from .pathgen import GeneratorSpec, generate

    given = {k: v for k, v in vars(args).items() if k not in ("command", "run", "output")}
    path = generate(GeneratorSpec(**given))
    with _open_output(args.output) as fh:
        write_path_csv(path, fh)
    _say(f"wrote {path.n_points} samples, {path.d} component(s), T={_format(path.horizon)}")
    return 0


def _cmd_qv(args) -> int:
    from .qv import _entry_names, qv_converged, qv_matrix

    x = load_sampled_path(args.input)
    levels = args.levels if args.levels is not None else default_num_levels(x.n_points)
    part = PartitionSequence(x.times, num_levels=levels)
    # The table and the verdict read only the last two levels.  Each product
    # of two anchored steps is at most 4 B^2, so 16 N B^2 < 2^1000 leaves no
    # level room to overflow and qv_converged runs only those two.  Otherwise
    # it runs every level, coarsest first, and the coarsest overflow is named.
    b = float(np.max(np.abs(x.values)))
    if levels >= 2:
        run = (levels - 1, levels) if 16 * x.n_points * b * b < 2.0**1000 else None
        rep = qv_converged(x, part, levels=run)
        entries, level_diff = rep.entries, rep.last_gap
    else:
        entries, level_diff = qv_matrix(x, part, levels).entries, np.zeros(x.n_points)
    table = np.column_stack([x.times, entries.T, level_diff])
    header = ["t", *_entry_names(x.d), "level_diff"]
    with _open_output(_resolve_dest(args, None)) as fh:
        _write_table(fh, header, table)
    if levels >= 3:
        _say(f"converged: {'yes' if rep.converged else 'no'}")
    else:
        _say("converged: n/a (need at least 3 levels)")
    return 0


def _experiment_objects(args):
    from .config import build_components, load_config, partition_for, resolve_path

    config = load_config(args.config)
    x = resolve_path(config)
    part = partition_for(config, x)
    a = build_components(config, x, part)
    return config, x, part, a, 0 if a is None else a.m


def _cmd_integrate(args) -> int:
    from .config import build_functional
    from .ito import AdmissibleIntegrand, ito_integral

    config, x, part, a, m = _experiment_objects(args)
    if config.functional is None:
        raise ValueError("integrate needs a 'functional' entry in the config")
    xi = AdmissibleIntegrand(build_functional(config.functional, x.d, m), a)
    result = ito_integral(xi, x, part, levels=config.levels, tol=config.tolerance)
    blocks = []
    for level, values in zip(result.levels, result.values):
        k = part.indices(level)
        blocks.append(np.column_stack([np.full(k.size, level), x.times[k], values[k]]))
    with _open_output(_resolve_dest(args, config)) as fh:
        _write_table(fh, ["level", "t", "I"], np.concatenate(blocks))
    if result.converged is None:
        _say("converged: n/a (single level)")
    else:
        _say(f"converged: {'yes' if result.converged else 'no'}")
    return 0


def _cmd_ito_check(args) -> int:
    from .config import build_functional
    from .ito import ito_formula_report

    config, x, part, a, m = _experiment_objects(args)
    if config.functional is None:
        raise ValueError("ito-check needs a 'functional' entry in the config")
    F = build_functional(config.functional, x.d, m)
    rep = ito_formula_report(F, x, a, part, levels=config.levels)
    terms = (rep.levels, rep.lhs, rep.ito_at_T, rep.horizontal_at_T, rep.qv_at_T)
    table = np.column_stack(np.broadcast_arrays(*terms, rep.residuals))
    header = ["level", "term_lhs", "term_ito", "term_horiz", "term_qv", "residual"]
    with _open_output(_resolve_dest(args, config)) as fh:
        _write_table(fh, header, table)
    worst = max(abs(float(r)) for r in rep.residuals)
    _say(f"worst residual: {_format(worst)}")
    return 0


def _cmd_assoc_check(args) -> int:
    from .config import build_functional
    from .ito import AdmissibleIntegrand, associativity_check

    config, x, part, a, m = _experiment_objects(args)
    if config.outer is None or not config.integrands:
        raise ValueError("assoc-check needs 'outer' and 'integrands' in the config")
    xis = [
        AdmissibleIntegrand(build_functional(spec, x.d, m), a)
        for spec in config.integrands
    ]
    eta = AdmissibleIntegrand(build_functional(config.outer, len(xis), 0))
    rep = associativity_check(
        eta,
        xis,
        x,
        part,
        levels=config.levels,
        tol=config.tolerance,
        qv_gate_tol=config.qv_gate_tol,
    )
    terms = (rep.levels, rep.lhs_at_T, rep.rhs_at_T, np.abs(rep.residuals_at_T))
    cells = np.column_stack(terms)
    with _open_output(_resolve_dest(args, config)) as fh:
        # the first level has no ratio, so it is written with the header
        fh.write("level,lhs,rhs,abs_residual,ratio\r\n")
        _write_table(fh, [*map(_format, cells[0]), ""], np.column_stack([cells[1:], rep.ratios]))
    _say(f"gate residual (relative): {_format(rep.qv_report.relative)}")
    return 0


# ---------------------------------------------------------------------------
# Entry points


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathwise-ito",
        description="pathwise quadratic variation, integrals, and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # An option left out takes GeneratorSpec's default.
    gen = sub.add_parser(
        "gen", help="write a synthetic path as CSV", argument_default=argparse.SUPPRESS
    )
    gen.add_argument("--kind", required=True)
    gen.add_argument("--n", dest="base_points", metavar="N", type=int, required=True,
                     help="base points (power of two)")
    gen.add_argument("--T", dest="horizon", metavar="T", type=float, help="horizon")
    gen.add_argument("--d", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--drift", type=float)
    gen.add_argument("--scale", type=float)
    gen.add_argument("--expression", help="formula in t (smooth kind)")
    gen.add_argument("--slope", help="slope formula in t (monotone-bv)")
    gen.add_argument("--value", type=float, help="constant kind value")
    gen.add_argument("--depth", type=int, help="takagi-like tent depth")
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(run=_cmd_gen)

    qv = sub.add_parser("qv", help="quadratic variation table of a path file")
    qv.add_argument("-i", "--input", required=True)
    qv.add_argument("--levels", type=int, default=None)
    qv.add_argument("-o", "--output", default=None)
    qv.set_defaults(run=_cmd_qv)

    for name, runner, text in (
        ("integrate", _cmd_integrate, "pathwise integral of a configured integrand"),
        ("ito-check", _cmd_ito_check, "change-of-variables decomposition per level"),
        ("assoc-check", _cmd_assoc_check, "associativity identity per level"),
    ):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("-c", "--config", required=True)
        cmd.add_argument("-o", "--output", default=None)
        cmd.set_defaults(run=runner)

    return parser


def cli_main(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (DomainError, HypothesisError) as exc:
        _say(f"error: {exc}")
        return 1
    except (PathFormatError, ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


def main() -> None:
    raise SystemExit(cli_main())


__all__ = ["cli_main", "main"]


if __name__ == "__main__":
    main()
