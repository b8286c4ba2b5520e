"""Command-line front end.

Subcommands: ``fit`` (path only), ``infer`` (full inference report),
``simulate`` (coverage study from a scenario file), and ``tie-demo``
(the mid-path tie construction).  Exit codes: 0 ok, 2 parse error, invalid
option value or unreadable input file, 3 numeric/shape error or out of
memory, 4 simulation budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import io as reports
from .bootstrap import BootstrapConfig, interval_sets
from .exceptions import CsvParseError, LarInferError, RejectionBudgetExceeded
from .inference import build_inference_report
from .path import _standardize_owned, lar_path
from .simulate import ScenarioSpec, run_coverage, tie_demo

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3
EXIT_BUDGET = 4


def _out_stream(path: str | None):
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_report(args, doc: dict, write_csv) -> int:
    """Write ``doc`` to ``--out`` as JSON, or with ``write_csv`` for ``--format csv``."""
    with _out_stream(args.out) as out:
        (reports.write_json if args.format == "json" else write_csv)(doc, out)
    return EXIT_OK


def _load_standardized(args):
    center = not args.no_center
    # read in the layout that standardize copies to, which fixes the bits of
    # the column sums, and standardize that one copy in place
    names, X, y = reports.read_csv(args.csv, args.response, order="F" if center else "C")
    return names, _standardize_owned(X, y, center)


def cmd_fit(args) -> int:
    names, data = _load_standardized(args)
    start, gram = data.X.T @ data.y, data.gram
    n, p, centered = data.n, data.p, data.centered
    # the path needs only X'y and X'X, and the report only the path: free the
    # design and its factor before the path's p x p work
    del data
    path = lar_path(start, gram, zero_tol=args.zero_tol)
    doc = reports.path_report_dict(path, n, p, centered, names, args.response)
    return _write_report(args, doc, reports.write_fit_csv)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")


def cmd_infer(args) -> int:
    if args.zero_tol != 0.0:
        raise ValueError(
            f"--zero-tol must be 0 for infer, got {args.zero_tol}: the stopping "
            "rule needs the tail sums of all p steps"
        )
    _check_seed(args.seed)
    cfg = BootstrapConfig(draws=args.draws, alpha=args.alpha, seed=args.seed)
    names, data = _load_standardized(args)
    path = lar_path(data.X.T @ data.y, data.gram)
    inference = build_inference_report(data, path)
    # the bootstrap reuses the stopping rule's sigma-hat instead of refitting
    intervals = next(interval_sets(data, data.y[None], [path], [inference.m_bar],
                                   [inference.sigma_hat], [cfg]))
    doc = reports.infer_report_dict(path, data.n, data.p, data.centered, names,
                                    args.response, inference, intervals, cfg)
    return _write_report(args, doc, reports.write_infer_csv)


def cmd_simulate(args) -> int:
    with open(args.scenario, encoding="utf-8") as fh:
        raw = json.load(fh)
    try:
        spec = ScenarioSpec(**raw)
    except TypeError as exc:
        raise ValueError(f"invalid scenario {args.scenario}: {exc}") from None

    def progress(done: int, total: int) -> None:
        batch = max(1, total // 10)
        if done % batch == 0 or done == total:
            print(f"replication {done}/{total}", file=sys.stderr)

    out_path = Path(args.out)
    write_header = not out_path.exists() or out_path.stat().st_size == 0
    # opened before the study, so an unwritable --out fails before the work
    with open(out_path, "a", encoding="utf-8", newline="") as fh:
        result = run_coverage(spec, progress=progress)
        writer = csv.writer(fh)
        keys = ["n", "p", "m", "delta0", "reps", "boot_draws", "seed"]
        if write_header:
            writer.writerow(keys + [f.name for f in fields(result)])
        writer.writerow([getattr(spec, key) for key in keys] + list(astuple(result)))
    return EXIT_OK


def cmd_tie_demo(args) -> int:
    _check_seed(args.seed)
    if args.n < 5:
        raise ValueError(f"--n must be at least 5 (the design has 4 columns), got {args.n}")
    if args.reps < 1:
        raise ValueError(f"--reps must be at least 1, got {args.reps}")
    rng = np.random.default_rng(np.random.SeedSequence([args.seed]))
    correlations, second, population_path = tie_demo(args.n, args.reps, rng)
    with _out_stream(args.out) as out:
        writer = csv.writer(out)
        writer.writerow(["draw", "C1", "C2", "C3", "C4", "second_entrant"])
        for i in range(args.reps):
            writer.writerow([i, *correlations[i].tolist(), f"x{second[i] + 1}"])
    tallies = {f"x{j + 1}": int(np.sum(second == j)) for j in range(4)}
    print(
        f"population tie steps: {population_path.tie_steps}; "
        f"step-2 entrant tallies: {tallies}",
        file=sys.stderr,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="larinfer",
        description="Least-angle regression paths with bootstrap inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("csv", help="input CSV with a header row")
        p.add_argument("--response", required=True, help="response column name or index")
        p.add_argument("--no-center", action="store_true",
                       help="skip centering of columns and response")
        p.add_argument("--zero-tol", type=float, default=0.0,
                       help="relative zero threshold for stopping (default 0; "
                       "infer accepts only 0)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    fit = sub.add_parser("fit", help="compute the sample path")
    add_common(fit)
    fit.set_defaults(func=cmd_fit)

    infer = sub.add_parser("infer", help="full inference report")
    add_common(infer)
    infer.add_argument("--alpha", type=float, default=0.05)
    infer.add_argument("--draws", type=int, default=500)
    infer.add_argument("--seed", type=int, default=0)
    infer.add_argument("--threads", type=int, default=1,
                       help="deprecated and ignored: replicas run in lockstep")
    infer.set_defaults(func=cmd_infer)

    sim = sub.add_parser("simulate", help="run a coverage study")
    sim.add_argument("scenario", help="scenario JSON file")
    sim.add_argument("--out", required=True, help="results CSV (appended)")
    sim.add_argument("--threads", type=int, default=None,
                     help="deprecated and ignored: replicas run in lockstep")
    sim.set_defaults(func=cmd_simulate)

    tie = sub.add_parser("tie-demo", help="mid-path tie demonstration")
    tie.add_argument("--n", type=int, default=500)
    tie.add_argument("--reps", type=int, default=2000)
    tie.add_argument("--seed", type=int, default=0)
    tie.add_argument("--out", default=None, help="samples CSV (default stdout)")
    tie.set_defaults(func=cmd_tie_demo)
    return parser


# What to lower when a command runs out of memory; the bootstrap keeps every
# replica's statistics, since exact quantiles need them all.
_MEMORY_HINTS = {
    "fit": "the input design is too large",
    "infer": "lower --draws (the bootstrap keeps every replica's statistics)",
    "simulate": "lower the scenario's reps * boot_draws (each bootstrap keeps "
                "every replica's statistics)",
    "tie-demo": "lower --n or --reps",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CsvParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except RejectionBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except LarInferError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError:
        print(f"error: out of memory; {_MEMORY_HINTS[args.command]}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
