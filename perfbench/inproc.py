"""In-process child of the benchmark harness.

``setup``: the set-up a config run pays before any numeric layer is called:
interpreter start, ``import pathwise_ito``, ``load_config`` and
``build_functional`` for every functional the config names (which imports
sympy and compiles the formulas).  Without ``--config`` only the import.
Prints the imported package's file so the harness can confirm it measured
the checkout's own sources.

``pass PLAN``: runs each argv list of the JSON plan through ``cli_main`` in
this process, in order.  With ``--spans FILE`` every public library function
runs inside a span (see spans.py) and the aggregated spans are written to
FILE.  Prints the exit codes as JSON.
"""
from __future__ import annotations

import argparse
import json
import sys


def _setup(args) -> None:
    import pathwise_ito
    from pathwise_ito.config import build_functional, load_config

    if args.config is not None:
        config = load_config(args.config)
        if config.functional is not None:
            build_functional(config.functional, args.d, args.m)
        for spec in config.integrands:
            build_functional(spec, args.d, args.m)
        if config.outer is not None:
            build_functional(config.outer, len(config.integrands), 0)
    print(json.dumps({"module": pathwise_ito.__file__}))


def _pass(args) -> None:
    import pathwise_ito.cli

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    recorder = None
    if args.spans is not None:
        from spans import SpanRecorder, install

        recorder = SpanRecorder()
        install(recorder)
    # looked up on the module so the traced run calls the wrapped function
    codes = [pathwise_ito.cli.cli_main(list(argv)) for argv in plan]
    if recorder is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(recorder.snapshot(), fh)
    print(json.dumps({"codes": codes}))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--config", default=None)
    setup.add_argument("--d", type=int, default=1)
    setup.add_argument("--m", type=int, default=0)
    setup.set_defaults(run=_setup)
    one = sub.add_parser("pass")
    one.add_argument("plan")
    one.add_argument("--spans", default=None)
    one.set_defaults(run=_pass)
    args = parser.parse_args(argv)
    args.run(args)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
