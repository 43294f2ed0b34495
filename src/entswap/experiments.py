"""Monte Carlo harness: conservation, concurrence bounds, rank law and
dual-path checks, with CSV/JSON emission.

Every experiment draws its samples in fixed draw chunks, each from one
random substream keyed by the chunk's first sample index, so results are
reproducible bit-for-bit for a given seed regardless of how the chunks
are partitioned across workers. Chunks emit records in sample-index
(then outcome) order and floats are serialized with 17 significant
digits, making repeated runs byte-identical. A run asked for a records
format renders each chunk's rows in the process that swapped it, and
joins the pieces in chunk order.
"""

from __future__ import annotations

import functools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .ensembles import (
    STATE_ENSEMBLES,
    RngStream,
    bell_diagonal_x,
    haar_unitary,
    random_bell_diagonal,
    random_bures,
    random_induced,
    random_pure,
    rank2_bell_mixtures,
)
# swap_general, swap_all_outcomes, swap_x_params, swap_via_beamsplitter,
# concurrence, concurrence_x, numerical_rank and trace_distance stay
# importable here: the benchmark's span tracer (perfbench/tracer.py) wraps
# them by name.
from .optics import swap_via_beamsplitter, swap_via_beamsplitter_batch  # noqa: F401
from .qstate import (  # noqa: F401
    DEFAULT_RANK_TOL,
    BellLabel,
    bell_density,
    concurrence,
    concurrence_batch,
    concurrence_x,
    concurrence_x_batch,
    numerical_rank,
    pure_batch,
    pure_concurrence,
    rank_batch,
    trace_distance,
    trace_distance_batch,
    validate_batch,
    validate_x_batch,
    x_eigenvalues_batch,
)
from .swap import (  # noqa: F401
    _OUTCOMES,
    ImpossibleOutcome,
    conditional_states,
    conditional_x_states,
    swap_all_outcomes,
    swap_batch,
    swap_general,
    swap_x_batch,
    swap_x_params,
)

# Hard assertion tolerances.
CONSERVATION_TOL = 1e-9
UPPER_BOUND_TOL = 1e-9
LOWER_BOUND_TOL = 1e-9
SELF_SWAP_TOL = 1e-12
ORACLE_TOL = 1e-10
# Slack allowed against the empirically fitted lower bound.
EMPIRICAL_SLACK = 0.01

HAAR_PHASE_STD = float(np.pi / np.sqrt(3.0))
HAAR_STATS_TOL = 0.02

CSV_COLUMNS = ("sample", "outcome", "c_a", "c_b", "c_f", "prob",
               "rank_a", "rank_b", "rank_f")
_FLOAT_COLUMNS = {"c_a", "c_b", "c_f", "prob", "ratio"}

_MAX_FIELDS = {"upper": "max_upper_excess", "lower": "max_lower_deficit"}

_ALL_OUTCOMES = np.arange(len(_OUTCOMES))
_LABELS = tuple(outcome.value for outcome in _OUTCOMES)
_PSI = _OUTCOMES.index(BellLabel.PSI_MINUS)

# Samples per draw chunk. A chunk draws all its samples in stacked calls
# from one generator, keyed by its first sample index; chunk edges are the
# multiples of this and of a run's input class size, counted from sample
# 0. Changing it changes every drawn value. It also bounds the arrays of
# a chunk's stacked engine calls (about 10 kB per sample).
DRAW_SAMPLES = 256


@dataclass
class BoundReport:
    """Violation counts and worst-case margins for one experiment run."""

    experiment: str
    samples: int
    seed: int
    violations_upper: int = 0
    violations_lower: int = 0
    max_upper_excess: float = 0.0
    max_lower_deficit: float = 0.0
    hard_violations: int = 0
    soft_violations: int = 0
    skipped: int = 0
    fit_params: "dict | None" = None
    extras: dict = field(default_factory=dict)
    runtime_ms: float = 0.0

    def to_json_dict(self) -> dict:
        """Every field; fit_params only when set and extras only when
        non-empty (summaries are written with sorted keys)."""
        out = asdict(self)
        if self.fit_params is None:
            del out["fit_params"]
        if not self.extras:
            del out["extras"]
        return out


class Args(NamedTuple):
    """The parameters of one run, as draws and checks see them."""

    samples: int
    seed: int
    ensemble: str
    eta: float
    rank_tol: float


class Check(NamedTuple):
    """A bound over the record columns: rows whose ``deviation(cols, args)``
    exceeds ``tol`` violate it. Violations count on report ``side`` ("upper",
    "lower", or else an extras key) and, when ``worst``, the largest
    deviation, at least 0, is that side's max field."""

    side: str
    deviation: Callable
    tol: float
    hard: bool = True
    worst: bool = True


class Experiment(NamedTuple):
    """A swap experiment.

    ``draw(args, rng, lo, hi)`` draws the samples [lo, hi) of one draw
    chunk from ``rng``: stacked inputs a and b and their per-sample input
    columns; ``outcomes`` swaps them (see _general_outcomes). A run has
    ``combos`` input classes of ``args.samples`` samples each. ``fit(cols)`` gives the report's
    fit_params and ``extras(report)`` adds to its extras.
    """

    draw: Callable
    outcomes: Callable
    checks: tuple
    combos: int = 1
    fit: "Callable | None" = None
    extras: "Callable | None" = None


def _blocks(stop: int, group: "int | None" = None) -> list:
    """[lo, hi) pieces of [0, stop) cut at the multiples of DRAW_SAMPLES
    and of ``group``."""
    edges = sorted({stop, *range(0, stop, DRAW_SAMPLES), *range(0, stop, group or stop)})
    return list(zip(edges[:-1], edges[1:]))


def _keyed_chunk(chunk_fn, stream, args, lo, hi):
    """chunk_fn on draw chunk [lo, hi), keyed in the process that runs it."""
    return chunk_fn(*args, stream.substream(lo), lo, hi)


# The process's one worker pool, as (workers, executor): made by the first
# call that asks for workers, kept for later calls and replaced when a call
# asks for another worker count. Keeping it pays in a process that makes
# several workers > 1 calls (run_experiment in a loop); a one-shot CLI run
# forks one pool either way.
_pool: "tuple[int, ProcessPoolExecutor] | None" = None


def _close_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown(cancel_futures=True)
        _pool = None


def _pooled(fn, los, his, workers: int) -> list:
    """fn over the chunks [los[i], his[i]) in the pool of ``workers``, as at
    most 4 * workers tasks of whole chunks. A call that makes the pool runs
    its first chunk here before the workers fork, so they share the code
    and caches that chunk warmed instead of each warming a private copy."""
    global _pool
    done = []
    if _pool is None or _pool[0] != workers:
        _close_pool()
        done.append(fn(los[0], his[0]))
        _pool = workers, ProcessPoolExecutor(max_workers=workers)
    los, his = los[len(done):], his[len(done):]
    return done + list(_pool[1].map(fn, los, his, chunksize=-(-len(los) // (4 * workers))))


def run_chunks(chunk_fn, stream: RngStream, n: int, workers: int, args: tuple = (),
               group: "int | None" = None) -> list:
    """chunk_fn(*args, rng, lo, hi) of each draw chunk [lo, hi) of range(n),
    none straddling a multiple of ``group``, in order; rng is
    stream.substream(lo). With workers > 1 and more than one chunk, in the
    process's worker pool (see _pooled); a call whose pool broke, by a
    worker dying, runs again on a fresh one."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    los, his = zip(*_blocks(n, group))
    fn = functools.partial(_keyed_chunk, chunk_fn, stream, args)
    if workers <= 1 or len(los) == 1:
        return list(map(fn, los, his))
    try:
        return _pooled(fn, los, his, workers)
    except BrokenProcessPool:
        _close_pool()
        return _pooled(fn, los, his, workers)


def _where(lo: int, what: str):
    """Name state n (outcome k) of the draw chunk starting at sample ``lo``."""
    return lambda n, k=None: f"{what} of sample {lo + n}" + (
        "" if k is None else f", outcome {_OUTCOMES[k]}")


def _input_columns(lo, mats, args, side, what=None):
    """Validate a chunk of general inputs; their columns c_<side> and
    rank_<side>. Errors name each as ``what`` (default "input <side>")."""
    eigs = validate_batch(mats, _where(lo, what or f"input {side}"))
    return {f"c_{side}": concurrence_batch(mats), f"rank_{side}": rank_batch(eigs, args.rank_tol)}


def _general_outcomes(rho_a, rho_b, where, args):
    """Swap a chunk of pairs through all four outcomes. Returns the kept
    outcomes' indices into _OUTCOMES, the (N, kept) masks of the possible
    ones and their probabilities, the possible outputs' concurrences and
    eigenvalues, and further per-sample columns."""
    raw, prob = swap_batch(rho_a, rho_b)
    possible, states, eigs = conditional_states(raw, prob, where)
    return _ALL_OUTCOMES, possible, prob, concurrence_batch(states), eigs, {}


def _x_outcomes(x_a, x_b, where, args):
    """_general_outcomes for a chunk of X-stack pairs, in closed form."""
    norm, out = swap_x_batch(x_a, x_b)
    possible, x = conditional_x_states(norm, out, where)
    return (_ALL_OUTCOMES, possible, norm / 2.0, concurrence_x_batch(*x),
            x_eigenvalues_batch(*x), {})


def _oracle_outcomes(rho_a, rho_b, where, args):
    """_general_outcomes for psi- alone, also swapped by the beamsplitter
    model at args.eta: the columns trace_distance and prob_diff compare
    the two routes. An impossible psi- raises ImpossibleOutcome, as
    swap_general would, and a pair without coincidence NoCoincidence."""
    raw, prob = swap_batch(rho_a, rho_b)
    psi = slice(_PSI, _PSI + 1)
    possible, states, eigs = conditional_states(raw[:, psi], prob[:, psi],
                                                lambda n, _: where(n, _PSI))
    if not possible.all():  # the first sample swap_general would refuse
        raise ImpossibleOutcome(BellLabel.PSI_MINUS, 2.0 * prob[~possible[:, 0], _PSI][0])
    physical, coincidence, _ = swap_via_beamsplitter_batch(rho_a, rho_b, args.eta,
                                                           lambda n: where(n, _PSI))
    return (_ALL_OUTCOMES[psi], possible, prob[:, psi], concurrence_batch(states), eigs,
            {"trace_distance": trace_distance_batch(states, physical),
             "prob_diff": np.abs(prob[:, _PSI] - coincidence)})


def _swap_chunk(name, args, fmt, rng, lo, hi):
    """Swap the draw chunk [lo, hi) of experiment ``name``, drawn from
    ``rng``: the record columns of its possible outcomes, the number of
    impossible ones skipped, and the records' rows rendered in records
    format ``fmt`` (None renders none)."""
    spec = EXPERIMENTS[name]
    a, b, inputs = spec.draw(args, rng, lo, hi)
    kept, possible, prob, c_f, eigs, extra = spec.outcomes(a, b, _where(lo, "output"), args)
    n, j = np.nonzero(possible)
    cols = {"sample": lo + n, "outcome": kept[j], "c_f": c_f, "prob": prob[n, j],
            "rank_f": rank_batch(eigs, args.rank_tol),
            **{key: column[n] for key, column in {**inputs, **extra}.items()}}
    return cols, possible.size - n.size, fmt and _render_rows(cols, fmt)


# --------------------------------------------------------------------------
# chunk draws


def _conserve_draw(args, rng, lo, hi):
    if args.ensemble not in STATE_ENSEMBLES:
        raise ValueError(f"unknown ensemble {args.ensemble!r}; "
                         f"expected one of {', '.join(STATE_ENSEMBLES)}")
    rho = STATE_ENSEMBLES[args.ensemble](rng, hi - lo)
    bell = np.broadcast_to(bell_density(BellLabel.PHI_PLUS).mat, rho.shape)
    ones = np.ones(hi - lo, dtype=int)
    return rho, bell, {**_input_columns(lo, rho, args, "a", "input"),
                       "c_b": ones.astype(float), "rank_b": ones}


def _belldiag_draw(args, rng, lo, hi):
    x_a = bell_diagonal_x(random_bell_diagonal(rng, hi - lo))
    x_b = bell_diagonal_x(random_bell_diagonal(rng, hi - lo))
    columns = {}
    for side, x in (("a", x_a), ("b", x_b)):
        validate_x_batch(*x, _where(lo, f"input {side}"))
        columns[f"c_{side}"] = concurrence_x_batch(*x)
        columns[f"rank_{side}"] = rank_batch(x_eigenvalues_batch(*x), args.rank_tol)
    return x_a, x_b, columns


def _pure_draw(args, rng, lo, hi):
    va, vb = random_pure(rng, hi - lo), random_pure(rng, hi - lo)
    c_a, c_b = pure_concurrence(va), pure_concurrence(vb)
    low = np.minimum(c_a, c_b)
    ratio = np.divide(np.maximum(c_a, c_b), low, out=np.full(hi - lo, np.inf), where=low > 0.0)
    rho_a = pure_batch(va, _where(lo, "input a"))
    rho_b = pure_batch(vb, _where(lo, "input b"))
    validate_batch(rho_a, _where(lo, "input a"))
    validate_batch(rho_b, _where(lo, "input b"))
    ones = np.ones(hi - lo, dtype=int)
    return rho_a, rho_b, {"c_a": c_a, "c_b": c_b, "rank_a": ones, "rank_b": ones, "ratio": ratio}


def _rank_draw(args, rng, lo, hi):
    """Induced-measure pairs; combination c of ranks (c // 4 + 1, c % 4 + 1)
    fills samples [c * args.samples, (c + 1) * args.samples)."""
    combo = lo // args.samples  # draw chunks never straddle two combos
    rho_a = random_induced(rng, 4, combo // 4 + 1, hi - lo)
    rho_b = random_induced(rng, 4, combo % 4 + 1, hi - lo)
    return rho_a, rho_b, {**_input_columns(lo, rho_a, args, "a"),
                          **_input_columns(lo, rho_b, args, "b")}


def _rank2_draw(args, rng, lo, hi):
    alphas = np.arange(lo + 1, hi + 1) / (args.samples + 1)
    sigma = rank2_bell_mixtures(alphas)
    c = np.abs(2.0 * alphas - 1.0)
    r = rank_batch(validate_batch(sigma, _where(lo, "input")), args.rank_tol)
    return sigma, sigma, {"c_a": c, "c_b": c, "rank_a": r, "rank_b": r}


def _oracle_draw(args, rng, lo, hi):
    rho_a, rho_b = random_bures(rng, size=hi - lo), random_bures(rng, size=hi - lo)
    return rho_a, rho_b, {**_input_columns(lo, rho_a, args, "a"),
                          **_input_columns(lo, rho_b, args, "b")}


# --------------------------------------------------------------------------
# fits of the empirical floors


def _envelope_minima(xs, ys, n_bins):
    # per-bin minima over quantile bins, so sparse regions still
    # contribute one point each
    edges = np.quantile(xs, np.linspace(0.0, 1.0, n_bins + 1))
    pts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (xs >= lo) & (xs <= hi)
        if np.count_nonzero(mask) >= 3:
            idx = np.argmin(ys[mask])
            pts.append((xs[mask][idx], ys[mask][idx]))
    return np.array(pts)


def _fit_lower_line(cols) -> "dict | None":
    # least-squares line through the lower envelope of C_F over the
    # region where the floor is active
    xs, ys = cols["c_a"] * cols["c_b"], cols["c_f"]
    active = xs >= 0.25
    if np.count_nonzero(active) < 24:
        return None
    n_bins = int(np.clip(np.count_nonzero(active) // 8, 3, 20))
    pts = _envelope_minima(xs[active], ys[active], n_bins)
    if len(pts) < 3:
        return None
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    return {"slope": float(slope), "intercept": float(intercept)}


def _fit_lower_exponential(cols) -> "dict | None":
    # offset + scale * exp(rate * x) through the lower envelope. Linear in
    # offset and scale, so least squares searches the rate alone (variable
    # projection): a grid over [-30, 30], its even count keeping off rate 0,
    # refined around the best point until the bracket is narrower than 1e-9
    xs, ys = cols["c_a"] * cols["c_b"], cols["c_f"]
    if xs.size < 60:
        return None
    n_bins = int(np.clip(xs.size // 20, 6, 30))
    pts = _envelope_minima(xs, ys, n_bins)
    if len(pts) < 6:
        return None
    x, y = pts[:, 0], pts[:, 1] - pts[:, 1].mean()
    rates = np.linspace(-30.0, 30.0, 300)
    while True:
        # each rate's least-squares line of y on exp(rate * x), by centred sums
        basis = np.exp(np.multiply.outer(rates, x))
        mean = basis @ np.full(x.size, 1.0 / x.size)  # cheaper than .mean
        centred = basis - mean[:, None]
        norm = np.einsum("ij,ij->i", centred, centred)
        # a rate within roundoff of 0 makes the basis constant, the line flat
        scale = np.divide(centred @ y, norm, out=np.zeros_like(norm), where=norm > 0.0)
        resid = y - scale[:, None] * centred
        best = int(np.argmin(np.einsum("ij,ij->i", resid, resid)))
        lo, hi = rates[max(best - 1, 0)], rates[min(best + 1, rates.size - 1)]
        if hi - lo < 1e-9:
            break
        rates = np.linspace(lo, hi, 61)
    return {"offset": float(pts[:, 1].mean() - scale[best] * mean[best]),
            "scale": float(scale[best]), "rate": float(rates[best])}


# --------------------------------------------------------------------------
# the experiments


def _rank_floor(cols):
    return np.maximum(cols["rank_a"], cols["rank_b"])


def _rank_mismatch(cols, args):
    combo = cols["sample"] // args.samples
    return (cols["rank_a"] != combo // 4 + 1) | (cols["rank_b"] != combo % 4 + 1)


EXPERIMENTS = {
    # swapping anything with a Bell state preserves concurrence
    "conserve": Experiment(_conserve_draw, _general_outcomes, (
        Check("upper", lambda c, _: np.abs(c["c_f"] - c["c_a"]), CONSERVATION_TOL),)),
    # Bell-diagonal pairs: C_F <= C_A C_B hard; the empirical floor
    # max[0, 5x/4 - 1/4] of x = C_A C_B with slack, and re-fitted
    "belldiag": Experiment(_belldiag_draw, _x_outcomes, (
        Check("upper", lambda c, _: c["c_f"] - c["c_a"] * c["c_b"], UPPER_BOUND_TOL),
        Check("lower", lambda c, _: np.maximum(0.0, 1.25 * (c["c_a"] * c["c_b"]) - 0.25) - c["c_f"],
              EMPIRICAL_SLACK, hard=False),
    ), fit=_fit_lower_line),
    # Haar pure pairs: C_F >= (C_A C_B)^2 hard, exponential floor re-fitted;
    # float_power squares with C pow, as Python's float ** does (a product
    # can differ in the last bit)
    "pure": Experiment(_pure_draw, _general_outcomes, (
        Check("lower", lambda c, _: np.float_power(c["c_a"] * c["c_b"], 2) - c["c_f"],
              LOWER_BOUND_TOL),
    ), fit=_fit_lower_exponential),
    # every rank combination (k1, k2) in 1..4: R_F >= max(R_A, R_B), with
    # equality when either input is pure, and the inputs have ranks k1, k2
    "rank": Experiment(_rank_draw, _general_outcomes, (
        Check("upper", lambda c, _: _rank_floor(c) - c["rank_f"], 0),
        Check("lower", lambda c, _: (np.minimum(c["rank_a"], c["rank_b"]) == 1)
              & (c["rank_f"] != _rank_floor(c)), 0, worst=False),
        Check("input_rank_mismatches", _rank_mismatch, 0),
    ), combos=16),
    # rank-2 Bell mixtures swapped with themselves: C_F = C_in^2 exactly
    "rank2-selfswap": Experiment(_rank2_draw, _general_outcomes, (
        Check("upper", lambda c, _: np.abs(c["c_f"] - c["c_a"] * c["c_a"]), SELF_SWAP_TOL),)),
    # the closed-form psi- swap against the beamsplitter route
    "oracle-equiv": Experiment(_oracle_draw, _oracle_outcomes, (
        Check("upper", lambda c, _: c["trace_distance"], ORACLE_TOL),
        Check("lower", lambda c, _: c["prob_diff"], ORACLE_TOL),
    ), extras=lambda r: {"max_trace_distance": r.max_upper_excess,
                         "max_probability_diff": r.max_lower_deficit}),
}

EXPERIMENT_NAMES = (*EXPERIMENTS, "haar-stats")

# Fixed stream ids keep the experiments' draws disjoint under one seed.
_STREAM_IDS = {name: i + 1 for i, name in enumerate(EXPERIMENT_NAMES)}


def _swap_report(name: str, args: Args, workers: int, fmt: "str | None"):
    """Run swap experiment ``name``: its record columns, its chunks' rows
    rendered in records format ``fmt`` (None renders none) and its report."""
    spec = EXPERIMENTS[name]
    total = spec.combos * args.samples
    chunks = run_chunks(_swap_chunk, RngStream(args.seed, _STREAM_IDS[name]), total, workers,
                        (name, args, fmt), args.samples)
    parts, skipped, pieces = zip(*chunks)
    cols = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}
    report = BoundReport(name, total, args.seed, skipped=sum(skipped))
    for side, deviation, tol, hard, worst in spec.checks:
        dev = deviation(cols, args)
        count = int(np.count_nonzero(dev > tol))
        if side in _MAX_FIELDS:  # a spec has at most one check per side
            setattr(report, f"violations_{side}", count)
            if worst:
                setattr(report, _MAX_FIELDS[side], max(0.0, float(dev.max(initial=0.0))))
        else:
            report.extras[side] = count
        if hard:
            report.hard_violations += count
        else:
            report.soft_violations += count
    if spec.fit:
        report.fit_params = spec.fit(cols)
    if spec.extras:
        report.extras.update(spec.extras(report))
    return cols, pieces, report


# --------------------------------------------------------------------------
# Haar sanity: eigenvalue phases of random unitaries are uniform


def _haar_chunk(rng, lo, hi):
    """Per-sample phase sums and sums of squares of the Haar 4x4 unitaries
    of draw chunk [lo, hi)."""
    phases = np.angle(np.linalg.eigvals(haar_unitary(rng, 4, hi - lo)))
    return phases.sum(axis=1), (phases ** 2).sum(axis=1)


def _haar_report(samples: int, seed: int, workers: int) -> BoundReport:
    """Phase statistics of Haar 4x4 unitaries: mean 0, std pi/sqrt(3)."""
    chunks = run_chunks(_haar_chunk, RngStream(seed, _STREAM_IDS["haar-stats"]), samples, workers)
    # added one sample at a time in sample order: the chunk layout moves no sum
    total, total_sq = (sum(np.concatenate(sums).tolist()) for sums in zip(*chunks))
    count = 4 * samples
    mean = total / count
    std = float(np.sqrt(total_sq / count - mean * mean))
    report = BoundReport("haar-stats", samples, seed)
    report.max_upper_excess = abs(mean)
    report.max_lower_deficit = abs(std - HAAR_PHASE_STD)
    report.violations_upper = int(abs(mean) > HAAR_STATS_TOL)
    report.violations_lower = int(abs(std - HAAR_PHASE_STD) > HAAR_STATS_TOL)
    report.hard_violations = report.violations_upper + report.violations_lower
    report.extras = {"phase_mean": mean, "phase_std": std,
                     "target_std": HAAR_PHASE_STD}
    return report


def run_experiment(name: str, samples: int, seed: int, *,
                   ensemble: str = "bures", eta: float = 0.5,
                   rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1,
                   fmt: "str | None" = None):
    """Run an experiment by CLI name; returns (Records, report). Given a
    records format ``fmt`` ("csv" or "json"), the records carry their text
    in it, each draw chunk's rows rendered where the chunk ran.

    For 'rank' ``samples`` counts pairs per rank combination, for
    'rank2-selfswap' it is the mixing-grid size. haar-stats keeps no
    records.
    """
    t0 = time.perf_counter()
    if name == "haar-stats":
        cols, pieces, report = {}, (), _haar_report(samples, seed, workers)
    elif name in EXPERIMENTS:
        cols, pieces, report = _swap_report(name, Args(samples, seed, ensemble, eta, rank_tol),
                                            workers, fmt)
    else:
        raise ValueError(
            f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
        )
    records = Records(cols, fmt and {fmt: _table(_names(cols), pieces, fmt)})
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# emission


class Records(dict):
    """Record columns by name. ``text`` maps the records format the run
    rendered them in, if any, to their text: the run's rendering, which
    does not follow later edits of the columns."""

    def __init__(self, cols=(), text=None):
        super().__init__(cols)
        self.text = dict(text or {})


def _names(cols: dict) -> tuple:
    """The emitted column names: a ratio column is appended when the
    records carry one."""
    return CSV_COLUMNS + (("ratio",) if "ratio" in cols else ())


def _render_rows(cols: dict, fmt: str) -> str:
    """The records' rows in records format ``fmt``, outcomes as labels: CSV
    lines, or JSON objects joined by commas; "" when there are none."""
    names = _names(cols)
    lists = [cols[name].tolist() if cols else [] for name in names]
    lists[1] = [_LABELS[k] for k in lists[1]]
    if fmt == "csv":
        # '%.17g' % x formats as f"{x:.17g}" does
        template = ",".join("%.17g" if name in _FLOAT_COLUMNS else "%s" for name in names) + "\n"
        return "".join([template % row for row in zip(*lists)])
    rows = [dict(zip(names, row)) for row in zip(*lists)]
    return json.dumps(rows, separators=(",", ":"))[1:-1]


def _table(names: tuple, pieces, fmt: str) -> str:
    """The records text of the rows rendered in consecutive pieces."""
    if fmt == "csv":
        return ",".join(names) + "\n" + "".join(pieces)
    return "[" + ",".join(filter(None, pieces)) + "]\n"


def records_to_csv(cols: dict) -> str:
    """Render record columns as CSV text in one piece; a ratio column is
    appended when the records carry one."""
    return _table(_names(cols), [_render_rows(cols, "csv")], "csv")


def records_to_json(cols: dict) -> str:
    return _table(_names(cols), [_render_rows(cols, "json")], "json")


def write_records(records: Records, path, fmt: str = "csv") -> None:
    """Write the text of records that run_experiment rendered in records
    format ``fmt``."""
    text = records.text[fmt]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_summary(report: BoundReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
