"""Command-line frontend for single swaps, Monte Carlo experiments,
dual-path oracle checks and ensemble sampling.

Exit codes: 0 when every hard assertion passed, 1 on a bound violation
(or an impossible measurement outcome, or a derived state that failed an
invariant check), 2 on usage, parse or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import ensembles, experiments
from .qstate import (
    DEFAULT_RANK_TOL,
    BellLabel,
    DensityMatrix,
    ValidationError,
    concurrence,
    matrix_from_json_dict,
    matrix_to_json_dict,
    numerical_rank,
    validate_batch,
)
from .swap import ImpossibleOutcome, swap_general
from .optics import NoCoincidence

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _default_seed() -> int:
    raw = os.environ.get("ENTSWAP_SEED")
    if raw is None:
        return 42
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"entswap: invalid ENTSWAP_SEED value {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Entanglement swapping of arbitrary two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--samples", type=int, default=10_000,
                       help="number of Monte Carlo samples (default 10000)")
        p.add_argument("--seed", type=int, default=_default_seed(),
                       help="RNG seed (default 42, or ENTSWAP_SEED)")
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default 1)")
        p.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL,
                       help="relative eigenvalue cutoff for ranks")

    p_swap = sub.add_parser("swap", help="swap two states from JSON files")
    p_swap.add_argument("state_a", help="JSON file with the modes (1,2) state")
    p_swap.add_argument("state_b", help="JSON file with the modes (3,4) state")
    p_swap.add_argument("--outcome", default="psi-",
                        choices=[l.value for l in BellLabel],
                        help="Bell measurement outcome (default psi-)")
    p_swap.add_argument("--rank-tol", type=float, default=DEFAULT_RANK_TOL)
    p_swap.add_argument("--out", help="write the result JSON here as well")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("name", choices=experiments.EXPERIMENT_NAMES,
                       help="experiment to run; for 'rank' --samples counts "
                            "pairs per rank combination, for 'rank2-selfswap' "
                            "it is the mixing-grid size")
    add_common(p_exp)
    p_exp.add_argument("--ensemble", default="bures",
                       choices=ensembles.STATE_ENSEMBLES,
                       help="input ensemble for 'conserve' (default bures)")
    p_exp.add_argument("--eta", type=float, default=0.5,
                       help="beamsplitter reflectivity for 'oracle-equiv'")
    p_exp.add_argument("--out", help="records file (default <name>.csv)")
    p_exp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv", help="records format (default csv)")
    p_exp.add_argument("--strict", action="store_true",
                       help="fail the exit code on empirical-bound "
                            "violations too")

    p_oracle = sub.add_parser("oracle-check",
                              help="compare the closed-form psi- swap with "
                                   "the beamsplitter model")
    add_common(p_oracle)
    p_oracle.add_argument("--eta", type=float, default=0.5)

    p_sample = sub.add_parser("sample", help="draw states from an ensemble")
    p_sample.add_argument("ensemble", choices=ensembles.STATE_ENSEMBLES)
    add_common(p_sample)
    p_sample.add_argument("--out", help="write JSON lines here instead of stdout")

    return parser


def _load_state(path: str) -> DensityMatrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise _UsageFailure(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _UsageFailure(f"parse error in {path}: {exc}")
    try:
        return matrix_from_json_dict(obj)
    except (ValidationError, ValueError) as exc:
        raise _UsageFailure(f"invalid state in {path}: {exc}")


class _UsageFailure(Exception):
    pass


def _cmd_swap(args) -> int:
    rho_a = _load_state(args.state_a)
    rho_b = _load_state(args.state_b)
    outcome = BellLabel.from_string(args.outcome)
    result = swap_general(rho_a, rho_b, outcome)
    payload = {
        "outcome": outcome.value,
        "probability": result.probability,
        "concurrence": concurrence(result.state),
        "rank": numerical_rank(result.state, args.rank_tol),
        "state": matrix_to_json_dict(result.state),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_OK


def _summary_path(records_path: Path) -> Path:
    return records_path.with_suffix(".summary.json")


def _cmd_experiment(args) -> int:
    try:
        records, report = experiments.run_experiment(
            args.name, args.samples, args.seed,
            ensemble=args.ensemble, eta=args.eta,
            rank_tol=args.rank_tol, workers=args.workers,
        )
    except ValidationError:
        raise  # a drawn or derived state, not the usage
    except ValueError as exc:
        raise _UsageFailure(str(exc))
    out = Path(args.out) if args.out else Path(f"{args.name}.{args.fmt}")
    try:
        experiments.write_records(records, out, fmt=args.fmt)
        experiments.write_summary(report, _summary_path(out))
    except OSError as exc:
        raise _UsageFailure(f"cannot write output: {exc}")
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    failed = report.hard_violations > 0
    if args.strict:
        failed = failed or report.soft_violations > 0
    return EXIT_VIOLATION if failed else EXIT_OK


def _cmd_oracle_check(args) -> int:
    try:
        _, report = experiments.run_experiment(
            "oracle-equiv", args.samples, args.seed, eta=args.eta,
            rank_tol=args.rank_tol, workers=args.workers,
        )
    except ValidationError:
        raise  # a drawn or derived state, not the usage
    except ValueError as exc:
        raise _UsageFailure(str(exc))
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_VIOLATION if report.hard_violations > 0 else EXIT_OK


def _cmd_sample(args) -> int:
    stream = ensembles.RngStream(args.seed, stream_id=0)
    draw = ensembles.STATE_ENSEMBLES[args.ensemble]
    mats = np.concatenate([draw(rng, hi - lo) for lo, hi, rng
                           in experiments.draw_chunks(stream, 0, args.samples)])
    validate_batch(mats, lambda n: f"sample {n}")
    lines = [json.dumps(matrix_to_json_dict(DensityMatrix(m, validate=False))) for m in mats]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise _UsageFailure(f"cannot write output: {exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "swap": _cmd_swap,
        "experiment": _cmd_experiment,
        "oracle-check": _cmd_oracle_check,
        "sample": _cmd_sample,
    }
    try:
        if getattr(args, "samples", 1) < 1:
            raise _UsageFailure(f"--samples must be at least 1, got {args.samples}")
        if getattr(args, "seed", 0) < 0:
            raise _UsageFailure(f"--seed must be non-negative, got {args.seed}")
        return handlers[args.command](args)
    except _UsageFailure as exc:
        print(f"entswap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ImpossibleOutcome, NoCoincidence) as exc:
        print(f"entswap: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
