"""Command-line interface.

Subcommands:
    generate   write dataset files + manifest from a config or preset
    run        run configured solvers against generated dataset files
    eval       correlation-error report of an estimate vs a truth matrix
    gcc        empirical correlation bounds and moments of a weight sample

Exit codes: 0 success, 1 validation error (a usage error such as an unknown
option, a bad config, bad values, a solver refusing its preconditions), 2
runtime error or solver divergence (including a solver's "error" status), 3
I/O or file-format error. `--help` exits 0. `run` exits with the largest
code of its solvers' statuses (`STATUS_EXIT`).

Every `andnmf` process runs OpenBLAS on one thread: the command sets
`OPENBLAS_NUM_THREADS=1` before numpy loads, unless the environment already
sets it, in which case the user's value wins. At one thread, `run` writes
the same bits at every `--jobs`.
"""

from __future__ import annotations

import argparse
import os
import sys

# OpenBLAS reads this once, when numpy loads it, so it must run before the
# imports below load numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .config import PRESETS, load_config, preset_config, validate_config
from .harness import evaluate, gcc_report, generate, run
from .matio import MatrixFormatError, json_text

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_IO = 3
STATUS_EXIT = {"ok": EXIT_OK, "refused": EXIT_VALIDATION,
               "diverged": EXIT_RUNTIME, "error": EXIT_RUNTIME}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, so that they exit 1 like
    every other validation error rather than with argparse's 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="andnmf",
        description="Staged pseudo-inverse/threshold NMF solver and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_ in (
        ("generate", "generate dataset files and a manifest"),
        ("run", "run configured solvers on a generated dataset"),
    ):
        p = sub.add_parser(name, help=help_)
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--config", help="path to a JSON experiment config")
        source.add_argument("--preset", help=f"dataset preset ({', '.join(PRESETS)})")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the dataset seed")
        if name == "run":
            p.add_argument("--jobs", type=int, default=1,
                           help="run independent solvers in parallel")

    p = sub.add_parser("eval", help="evaluate an estimate against a ground truth")
    p.add_argument("estimate", help="estimate matrix (.mat)")
    p.add_argument("truth", help="ground-truth matrix (.mat)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")

    p = sub.add_parser("gcc", help="correlation bounds and moments of weights")
    p.add_argument("weights", help="weight sample matrix (.mat), D x n")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def _load(args):
    if args.config is not None:
        cfg = load_config(args.config, seed_override=args.seed)
    else:
        cfg = validate_config(preset_config(args.preset), seed_override=args.seed)
    return cfg, args.out


def _emit(report, out_path):
    text = json_text(report)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "generate":
            cfg, out = _load(args)
            generate(cfg, out)
            return EXIT_OK
        if args.command == "run":
            cfg, out = _load(args)
            summary = run(cfg, out, jobs=args.jobs)
            return max((STATUS_EXIT[s["status"]] for s in summary["solvers"]), default=EXIT_OK)
        if args.command == "eval":
            _emit(evaluate(args.estimate, args.truth), args.out)
            return EXIT_OK
        if args.command == "gcc":
            _emit(gcc_report(args.weights), args.out)
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
