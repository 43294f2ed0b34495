"""Command-line frontend for single swaps, Monte Carlo experiments and
ensemble sampling.

Exit codes: 0 when every hard assertion passed, 1 on a bound violation
(or an impossible measurement outcome, or a derived state that failed an
invariant check), 2 on usage, parse or I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import ensembles, experiments
from .qstate import (
    BellLabel,
    DensityMatrix,
    ImpossibleOutcome,
    ValidationError,
    concurrence,
    matrix_from_json_dict,
    matrix_to_json_dict,
    numerical_rank,
    validate_batch,
)
from .swap import swap_general

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _seed(flag: "int | None") -> int:
    """--seed's value, else ENTSWAP_SEED's, else 42."""
    if flag is not None:
        return flag
    raw = os.environ.get("ENTSWAP_SEED")
    if raw is None:
        return 42
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise _UsageFailure(f"invalid ENTSWAP_SEED value {raw!r}")
    return seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process (parsing leaves it
    as it was)."""
    parser = argparse.ArgumentParser(
        prog="entswap",
        description="Entanglement swapping of arbitrary two-qubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--samples", type=int, default=10_000,
                       help="number of Monte Carlo samples (default 10000)")
        # None is resolved at parse time, so ENTSWAP_SEED is read on each call
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default 42, or ENTSWAP_SEED)")
        p.add_argument("--workers", type=int, default=1,
                       help="processes that run the draw chunks, this one "
                            "included (default 1)")

    p_swap = sub.add_parser("swap", help="swap two states from JSON files")
    p_swap.add_argument("state_a", help="JSON file with the modes (1,2) state")
    p_swap.add_argument("state_b", help="JSON file with the modes (3,4) state")
    p_swap.add_argument("--outcome", default="psi-",
                        choices=[l.value for l in BellLabel],
                        help="Bell measurement outcome (default psi-)")
    p_swap.add_argument("--out", help="write the result JSON here as well")

    p_exp = sub.add_parser("experiment", help="run a Monte Carlo experiment")
    p_exp.add_argument("name", choices=experiments.EXPERIMENTS,
                       help="experiment to run; for 'rank' --samples counts "
                            "pairs per rank combination, for 'rank2-selfswap' "
                            "it is the mixing-grid size")
    add_common(p_exp)
    p_exp.add_argument("--ensemble", default="bures",
                       choices=ensembles.STATE_ENSEMBLES,
                       help="input ensemble for 'conserve' (default bures)")
    # 0.5 only (see _oracle_outcomes); kept so that command lines naming it parse
    p_exp.add_argument("--eta", type=float, default=0.5, choices=(0.5,),
                       help="beamsplitter reflectivity for 'oracle-equiv' (0.5 only)")
    p_exp.add_argument("--out", help="records file (default <name>.csv)")
    p_exp.add_argument("--format", dest="fmt", choices=("csv", "json"),
                       default="csv", help="records format (default csv)")

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
    except (ValueError, RecursionError) as exc:  # JSON or UTF-8 decoding, or too deep
        raise _UsageFailure(f"parse error in {path}: {exc}")
    try:
        return matrix_from_json_dict(obj)
    except (ValidationError, ValueError) as exc:
        raise _UsageFailure(f"invalid state in {path}: {exc}")


class _UsageFailure(Exception):
    pass


@contextlib.contextmanager
def _run_parameters():
    """A ValueError by which the library refuses a run parameter, as a usage
    failure; a ValidationError (a drawn or derived state) stays one."""
    try:
        yield
    except ValidationError:
        raise
    except ValueError as exc:
        raise _UsageFailure(str(exc))


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _UsageFailure(f"cannot write output: {exc}")


def _cmd_swap(args) -> int:
    rho_a = _load_state(args.state_a)
    rho_b = _load_state(args.state_b)
    outcome = BellLabel(args.outcome)
    result = swap_general(rho_a, rho_b, outcome)
    payload = {
        "outcome": outcome.value,
        "probability": result.probability,
        "concurrence": concurrence(result.state),
        "rank": numerical_rank(result.state),
        "state": matrix_to_json_dict(result.state),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write_text(args.out, text + "\n")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    with _run_parameters():
        records, report = experiments.run_experiment(
            args.name, args.samples, _seed(args.seed), ensemble=args.ensemble,
            workers=args.workers, fmt=args.fmt)
    out = Path(args.out) if args.out else Path(f"{args.name}.{args.fmt}")
    try:
        experiments.write_records(records, out)
        summary = experiments.write_summary(report, out.with_suffix(".summary.json"))
    except OSError as exc:
        raise _UsageFailure(f"cannot write output: {exc}")
    sys.stdout.write(summary)
    return EXIT_VIOLATION if report.hard_violations > 0 else EXIT_OK


def _sample_pass(ensemble, chunks):
    """The states of one pass's draw chunks (rng, lo, hi), stacked."""
    draw = ensembles.STATE_ENSEMBLES[ensemble]
    return np.concatenate([draw(rng, hi - lo) for rng, lo, hi in chunks])


def _cmd_sample(args) -> int:
    with _run_parameters():
        mats = np.concatenate(experiments.run_passes(
            functools.partial(_sample_pass, args.ensemble), ensembles.RngStream(_seed(args.seed)),
            args.samples, args.workers))
    states = map(DensityMatrix._checked, mats, validate_batch(mats, lambda n: f"sample {n}"))
    text = "".join(json.dumps(matrix_to_json_dict(rho)) + "\n" for rho in states)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "swap": _cmd_swap,
        "experiment": _cmd_experiment,
        "sample": _cmd_sample,
    }
    try:
        return handlers[args.command](args)
    except _UsageFailure as exc:
        print(f"entswap: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, ImpossibleOutcome) as exc:
        print(f"entswap: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
