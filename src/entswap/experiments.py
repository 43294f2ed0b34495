"""Monte Carlo harness: conservation, concurrence bounds, rank law,
dual-path and Haar phase checks, with CSV/JSON emission.

Every experiment draws its samples in fixed draw chunks, each from one
random substream keyed by the chunk's first sample index, so results are
reproducible bit-for-bit for a given seed regardless of how the chunks
are grouped. The unit of work is the pass: a process runs its contiguous
share of the chunks as passes of at most PASS_CHUNKS consecutive chunks,
and a pass draws each of its chunks from the chunk's own substream,
stacks the draws, and validates, swaps, conditions, measures, tallies
and renders them in one sequence of stacked calls. Passes emit records
in sample-index (then outcome) order and floats are serialized with 17
significant digits, making repeated runs byte-identical. Each pass
expands its per-sample columns to its rows and tallies its row checks in
the process that ran it, and sends back its records in one form: its
columns, or, given a records format, its rows rendered. The caller
merges the tallies and joins the columns, or keeps the rendered pieces
in pass order.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import json
import math
import time
from dataclasses import dataclass, field
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
# concurrence, numerical_rank and trace_distance stay importable here: the
# benchmark's span tracer (perfbench/tracer.py) wraps them by name.
from .optics import swap_via_beamsplitter, swap_via_beamsplitter_batch  # noqa: F401
from .qstate import (  # noqa: F401
    BellLabel,
    bell_density,
    conditional_states,
    conditional_x_states,
    concurrence,
    concurrence_x,
    numerical_rank,
    pure_batch,
    pure_concurrence,
    rank_batch,
    refuse_impossible,
    trace_distance,
    trace_distance_batch,
    validate_batch,
    validate_x_batch,
    wootters_batch,
)
from .swap import (  # noqa: F401
    _OUTCOMES,
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

HAAR_PHASE_STD = float(np.pi / np.sqrt(3.0))
HAAR_Z_BOUND = 5.0  # on the |z| of haar-stats' two phase sums (see _phase_z)
# Var sum_j f(theta_j) over the eigenphases of a Haar n x n unitary is
# sum_k min(|k|, n) |f_k|^2 over the Fourier coefficients f_k of f (Diaconis
# & Evans, Trans. AMS 353, 2615 (2001)). On (-pi, pi], f = theta has
# |f_k|^2 = 1/k^2 and f = theta^2 has 4/k^4 (k != 0); with n = 4, the tails
# close through zeta(2) = pi^2/6 and zeta(4) = pi^4/90.
_K = np.arange(1.0, 5.0)
HAAR_VAR_SUM = float(2.0 * (np.sum(1.0 / _K) + 4.0 * (np.pi ** 2 / 6.0 - np.sum(_K ** -2))))
HAAR_VAR_SQ = float(8.0 * (np.sum(_K ** -3) + 4.0 * (np.pi ** 4 / 90.0 - np.sum(_K ** -4))))

CSV_COLUMNS = ("sample", "outcome", "c_a", "c_b", "c_f", "prob",
               "rank_a", "rank_b", "rank_f")
_FLOAT_COLUMNS = {"c_a", "c_b", "c_f", "prob", "ratio"}

_ALL_OUTCOMES = np.arange(len(_OUTCOMES))
_LABELS = tuple(outcome.value for outcome in _OUTCOMES)
_PSI = _OUTCOMES.index(BellLabel.PSI_MINUS)

# Samples per draw chunk, the unit the random keys follow: a chunk draws
# all its samples in stacked calls from one generator, keyed by its first
# sample index; chunk edges are the multiples of this and of a run's input
# class size, counted from sample 0. Changing it changes every drawn value.
DRAW_SAMPLES = 256
# Draw chunks per pass, the unit of work: a pass stacks the draws of at
# most this many consecutive chunks of one process's share and swaps them
# in one sequence of stacked calls, whose arrays it bounds (about 10 kB
# per sample). It moves no drawn value and no output byte.
PASS_CHUNKS = 4


@dataclass
class BoundReport:
    """One experiment run's checks, by name: each one's tolerance, number
    of violations and worst deviation (at least 0)."""

    experiment: str
    samples: int
    seed: int
    checks: dict = field(default_factory=dict)
    hard_violations: int = 0
    skipped: int = 0
    extras: dict = field(default_factory=dict)
    runtime_ms: float = 0.0


class Args(NamedTuple):
    """The parameters of one run, as draws and checks see them."""

    samples: int
    ensemble: str


class Check(NamedTuple):
    """A hard bound over the record columns, or with ``per_sample`` over the
    run's per-sample columns: values of ``deviation(cols, args)`` above
    ``tol`` violate it. The report holds it under ``name``."""

    name: str
    deviation: Callable
    tol: float
    per_sample: bool = False


class Experiment(NamedTuple):
    """An experiment: draw, swap, measure, check, emit.

    ``draw(args, rng, lo, hi)`` draws the samples [lo, hi) of one draw
    chunk from ``rng``: a tuple of stacks. ``inputs(drawn, lo)`` turns a
    pass's draws, stacked (see _stacked), of the samples from ``lo`` on,
    into validated inputs a and b and their per-sample input columns;
    ``outcomes(a, b, where)`` swaps them (see _general_outcomes). A run has
    ``combos`` input classes of ``args.samples`` samples each.
    ``extras(report, per_sample)`` adds to the report's extras (per_sample
    is {} unless a check reads it).
    """

    draw: Callable
    inputs: Callable
    outcomes: Callable
    checks: tuple
    combos: int = 1
    extras: "Callable | None" = None


def _blocks(stop: int, group: "int | None" = None) -> list:
    """[lo, hi) pieces of [0, stop) cut at the multiples of DRAW_SAMPLES
    and of ``group``."""
    edges = sorted({stop, *range(0, stop, DRAW_SAMPLES), *range(0, stop, group or stop)})
    return list(zip(edges[:-1], edges[1:]))


class _BrokenPool(RuntimeError):
    """A pool process ended before it sent back its share's result."""


# The process's one worker pool, as [(process, connection)]: processes that
# run passes beside the caller, each driven over its own socket pair, which
# carries each share, (pass_fn, stream, blocks), to it and its reply back,
# made by the first call that asks for workers and kept for later calls,
# which use its first processes; only a call that needs more replaces it.
# Keeping it pays in a process that makes several workers > 1 calls
# (run_experiment in a loop); a one-shot CLI run forks one pool either way.
_pool: list = []


def _close_pool() -> None:
    """End the pool: each process exits at EOF on its socket."""
    for _, conn in _pool:
        conn.close()
    for process, _ in _pool:
        process.join()
    _pool.clear()


def _start_pool(size: int) -> list:
    """``size`` processes of the default multiprocessing context, each
    serving shares (see _serve) over its own socket pair."""
    import multiprocessing

    pool = []
    for _ in range(size):
        mine, theirs = multiprocessing.Pipe()  # a socket pair on POSIX
        # the process closes the caller's ends it inherits and the caller
        # closes the process's end, so that a socket reads EOF once the
        # process at its other end is gone
        process = multiprocessing.Process(
            target=_serve, args=(theirs, [conn for _, conn in pool] + [mine]), daemon=True)
        process.start()
        theirs.close()
        pool.append((process, mine))
    return pool


def _run_share(pass_fn, stream, blocks) -> list:
    """One process's share of the draw chunks ``blocks``, (lo, hi) each, as
    passes of at most PASS_CHUNKS consecutive chunks: pass_fn of each pass's
    chunks, keyed here as (stream.substream(lo), lo, hi), in order."""
    return [pass_fn([(stream.substream(lo), lo, hi) for lo, hi in blocks[i:i + PASS_CHUNKS]])
            for i in range(0, len(blocks), PASS_CHUNKS)]


def _serve(conn, inherited) -> None:
    """A pool process: run each share (pass_fn, stream, blocks) that arrives
    on ``conn`` and send back (None, its passes' results), or (the error it
    raised, that error's traceback text); return at EOF."""
    for other in inherited:
        other.close()
    while True:
        try:
            share = conn.recv()
        except EOFError:
            return
        try:
            reply = None, _run_share(*share)
        except Exception as exc:
            import traceback
            reply = exc, traceback.format_exc()
        try:
            conn.send(reply)
        except OSError:  # the caller has closed its end
            return
        del reply  # held while the next share runs, it raised the pool's peak memory


def _receive(conn) -> tuple:
    """The reply (error, value) to the share sent on ``conn``, an error
    chained to its traceback in the pool process; a _BrokenPool error when
    the socket reads EOF or fails."""
    try:
        error, value = conn.recv()
    except (EOFError, OSError):
        return _BrokenPool("a pool process ended before it sent back its share"), None
    if error is not None:
        error.__cause__ = RuntimeError(f"raised in a pool process:\n{value}")
    return error, value


def _pooled(pass_fn, stream, blocks, workers: int) -> list:
    """pass_fn over the passes of the draw chunks ``blocks`` in
    ``workers`` processes: the chunks are cut into ``workers`` contiguous
    shares whose sizes differ by at most one, the larger first, and each
    share into passes (see _run_share). The caller sends each pool process
    one of the trailing shares, as (pass_fn, stream, its chunks), over its
    socket, runs the first share itself and then receives the others'
    replies over the same sockets, in order; each reply crosses its socket
    whole, whatever its size. A call that makes the pool runs its first
    pass here before the pool forks, so the pool shares the code and caches
    that pass warmed instead of warming a private copy; the objects alive
    then are frozen out of the cyclic collector (gc.freeze) for the life of
    the process. Whatever the shares raise, every share has ended before
    the call returns, and the error of the first failing pass in order is
    raised; a pool process that died closes the pool and raises
    _BrokenPool, unless an earlier share failed."""
    cuts = [-(-len(blocks) * i // workers) for i in range(workers + 1)]
    done, ran = [], 0
    if len(_pool) < workers - 1:
        _close_pool()
        ran = min(PASS_CHUNKS, cuts[1])  # the caller's first pass
        done = _run_share(pass_fn, stream, blocks[:ran])
        # the caller's full collections would otherwise write to every
        # tracked object, copying each page it shares with the pool
        gc.freeze()
        _pool.extend(_start_pool(workers - 1))
    pool = _pool[:workers - 1]
    try:
        for (_, conn), a, b in zip(pool, cuts[1:], cuts[2:]):
            with contextlib.suppress(OSError):  # a dead process: _receive says so
                conn.send((pass_fn, stream, blocks[a:b]))
        try:
            replies = [(None, _run_share(pass_fn, stream, blocks[ran:cuts[1]]))]
        except Exception as exc:
            replies = [(exc, None)]
        replies += [_receive(conn) for _, conn in pool]
    except BaseException:
        # a reply left unread would answer the next call's share
        _close_pool()
        raise
    if any(isinstance(error, _BrokenPool) for error, _ in replies):
        _close_pool()
    for error, _ in replies:
        if error is not None:
            raise error
    return done + [result for _, share in replies for result in share]


def run_passes(pass_fn, stream: RngStream, n: int, workers: int, classes: int = 1) -> list:
    """pass_fn(chunks) of each pass over range(classes * n), ``classes``
    input classes of ``n`` samples, in order. It is cut into draw chunks
    (see _blocks), none straddling two classes; a pass is a run of at most
    PASS_CHUNKS consecutive chunks of one process's share, and ``chunks``
    lists them as (rng, lo, hi), rng being stream.substream(lo), made
    where the pass runs. ``workers`` counts the processes that run passes,
    the caller included: with workers > 1 and more than one chunk, in the
    caller and the process's worker pool, which gets each share as
    (pass_fn, stream, its chunks' edges) (see _pooled), at most one
    process per chunk; a call whose pool broke, by a worker dying, runs
    again on a fresh one. An ``n`` or ``workers`` below 1 is a ValueError."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    blocks = _blocks(classes * n, n)
    workers = min(workers, len(blocks))
    if workers <= 1:
        return _run_share(pass_fn, stream, blocks)
    try:
        return _pooled(pass_fn, stream, blocks, workers)
    except _BrokenPool:
        return _pooled(pass_fn, stream, blocks, workers)


def _where(lo: int, what: str):
    """Name state n (outcome k) of the stack starting at sample ``lo``."""
    return lambda n, k=None: f"{what} of sample {lo + n}" + (
        "" if k is None else f", outcome {_OUTCOMES[k]}")


def _input_columns(lo, mats, side, what=None):
    """Validate a stack of general inputs; their columns c_<side> and
    rank_<side>, both from validation's eigendecomposition. Errors name
    each as ``what`` (default "input <side>")."""
    eigs, vecs = validate_batch(mats, _where(lo, what or f"input {side}"), vectors=True)
    return {f"c_{side}": wootters_batch(eigs, vecs),
            f"rank_{side}": rank_batch(eigs)}


def _general_outcomes(rho_a, rho_b, where):
    """Swap a stack of pairs through all four outcomes. Returns the kept
    outcomes' indices into _OUTCOMES, the (N, kept) masks of the possible
    ones and their probabilities, the possible outputs' concurrences and
    eigenvalues, and further per-sample columns."""
    raw, prob = swap_batch(rho_a, rho_b)
    possible, _, (eigs, vecs) = conditional_states(raw, prob, where, vectors=True)
    return _ALL_OUTCOMES, possible, prob, wootters_batch(eigs, vecs), eigs, {}


def _x_outcomes(x_a, x_b, where):
    """_general_outcomes for a stack of X-stack pairs, in closed form."""
    out, prob = swap_x_batch(x_a, x_b)
    possible, x, eigs = conditional_x_states(out, prob, where)
    return _ALL_OUTCOMES, possible, prob, concurrence_x(*x), eigs, {}


def _oracle_outcomes(rho_a, rho_b, where):
    """_general_outcomes for psi- alone, also swapped by the balanced
    beamsplitter (only at reflectivity 1/2 does a coincidence herald psi-
    alone), conditioned alike: the columns trace_distance and prob_diff
    compare the two routes. The first pair whose psi- either route finds
    impossible raises ImpossibleOutcome."""
    psi = slice(_PSI, _PSI + 1)
    raw, prob = swap_batch(rho_a, rho_b, psi)
    named = lambda n, *_: where(n, _PSI)
    possible, states, (eigs, vecs) = conditional_states(raw, prob, named, vectors=True)
    refuse_impossible(possible, prob, BellLabel.PSI_MINUS, named)
    out, coincidence = swap_via_beamsplitter_batch(rho_a, rho_b, 0.5)
    seen, physical, _ = conditional_states(out, coincidence, named)
    refuse_impossible(seen, coincidence, BellLabel.PSI_MINUS, named)
    return (_ALL_OUTCOMES[psi], possible, prob, wootters_batch(eigs, vecs), eigs,
            {"trace_distance": trace_distance_batch(states, physical),
             "prob_diff": np.abs(prob[:, 0] - coincidence)})


def _no_outcomes(a, b, where):
    """_general_outcomes of an experiment that swaps nothing: no outcome."""
    empty = np.zeros((0, 0))
    return _ALL_OUTCOMES[:0], empty.astype(bool), empty, np.zeros(0), np.zeros((0, 4)), {}


class Part(NamedTuple):
    """A pass's records (its record columns, or its rows rendered in the
    run's records format, see _swapped), skipped outcome count, check
    tallies over its record columns (see _row_tallies) and per-sample
    columns ({} unless a check reads them)."""

    records: "dict | list"
    skipped: int
    tallies: tuple
    per_sample: dict


def _stacked(drawn: list) -> tuple:
    """The draws of consecutive chunks, each a tuple of stacks, joined
    stack by stack along the samples."""
    return drawn[0] if len(drawn) == 1 else tuple(map(np.concatenate, zip(*drawn)))


def _swapped(spec: Experiment, args, fmt, drawn: tuple, edges: list) -> Part:
    """Swap the samples of the consecutive draw chunks between ``edges``
    (the chunks' first samples, then the last one's end) of experiment
    ``spec``, drawn as ``drawn``. Without a records format ``fmt`` the
    part's records are the pass's record columns; with one, its rows
    rendered in it, each chunk's on its own as one piece, which keeps the
    renderer's temporaries to a chunk's size. In CSV the pass of sample 0
    renders the header first."""
    lo, hi = edges[0], edges[-1]
    a, b, inputs = spec.inputs(drawn, lo)
    kept, possible, prob, c_f, eigs, extra = spec.outcomes(a, b, _where(lo, "output"))
    n, j = np.nonzero(possible)
    rows = {"outcome": kept[j], "c_f": c_f, "prob": prob[n, j],
            "rank_f": rank_batch(eigs)}
    per_sample = {"sample": np.arange(lo, hi), **inputs, **extra}
    cols = records = {**{key: column[n] for key, column in per_sample.items()}, **rows}
    if fmt:
        starts = [edge - lo for edge in edges]
        cuts = np.searchsorted(n, starts).tolist()
        records = [",".join(_names(cols)) + "\n"] if fmt == "csv" and lo == 0 else []
        records += [_render_rows({key: column[r0:r1] for key, column in rows.items()}, fmt,
                                 {key: column[s0:s1] for key, column in per_sample.items()},
                                 n[r0:r1] - s0)
                    for s0, s1, r0, r1 in zip(starts, starts[1:], cuts, cuts[1:])]
    return Part(records, possible.size - n.size, _row_tallies(spec.checks, cols, args),
                per_sample if any(check.per_sample for check in spec.checks) else {})


def _swap_pass(name, args, fmt, chunks) -> Part:
    """Swap one pass of experiment ``name``: its draw chunks (rng, lo, hi),
    each drawn from its own rng, as one stack; its rows are rendered in
    records format ``fmt`` (see _swapped). A pass that fails raises the
    error of its first failing chunk swapped alone, so that the error a
    run raises does not depend on how its chunks are grouped into
    passes."""
    spec = EXPERIMENTS[name]
    drawn = [spec.draw(args, rng, lo, hi) for rng, lo, hi in chunks]
    try:
        return _swapped(spec, args, fmt, _stacked(drawn),
                        [lo for _, lo, _ in chunks] + [chunks[-1][2]])
    except Exception as exc:
        error = exc
    for part, (_, lo, hi) in zip(drawn, chunks):
        _swapped(spec, args, fmt, part, [lo, hi])
    raise error


# --------------------------------------------------------------------------
# chunk draws and pass inputs


def _conserve_draw(args, rng, lo, hi):
    return STATE_ENSEMBLES[args.ensemble](rng, hi - lo),


def _conserve_inputs(drawn, lo):
    rho, = drawn
    bell = np.broadcast_to(bell_density(BellLabel.PHI_PLUS).mat, rho.shape)
    ones = np.ones(len(rho), dtype=int)
    return rho, bell, {**_input_columns(lo, rho, "a", "input"),
                       "c_b": ones.astype(float), "rank_b": ones}


def _belldiag_draw(args, rng, lo, hi):
    return random_bell_diagonal(rng, hi - lo), random_bell_diagonal(rng, hi - lo)


def _belldiag_inputs(drawn, lo):
    x_a, x_b = map(bell_diagonal_x, drawn)
    columns = {}
    for side, x in (("a", x_a), ("b", x_b)):
        eigs = validate_x_batch(*x, _where(lo, f"input {side}"))
        columns[f"c_{side}"] = concurrence_x(*x)
        columns[f"rank_{side}"] = rank_batch(eigs)
    return x_a, x_b, columns


def _pure_draw(args, rng, lo, hi):
    return random_pure(rng, hi - lo), random_pure(rng, hi - lo)


def _pure_inputs(drawn, lo):
    va, vb = drawn
    c_a, c_b = pure_concurrence(va), pure_concurrence(vb)
    low = np.minimum(c_a, c_b)
    ratio = np.divide(np.maximum(c_a, c_b), low, out=np.full(len(low), np.inf), where=low > 0.0)
    rho_a = pure_batch(va, _where(lo, "input a"))
    rho_b = pure_batch(vb, _where(lo, "input b"))
    ones = np.ones(len(low), dtype=int)
    return rho_a, rho_b, {"c_a": c_a, "c_b": c_b, "rank_a": ones, "rank_b": ones, "ratio": ratio}


def _general_inputs(drawn, lo):
    """Pairs of general states, each side validated for its columns."""
    rho_a, rho_b = drawn
    return rho_a, rho_b, {**_input_columns(lo, rho_a, "a"), **_input_columns(lo, rho_b, "b")}


def _rank_draw(args, rng, lo, hi):
    """Induced-measure pairs; combination c of ranks (c // 4 + 1, c % 4 + 1)
    fills samples [c * args.samples, (c + 1) * args.samples)."""
    combo = lo // args.samples  # draw chunks never straddle two combos
    return (random_induced(rng, combo // 4 + 1, size=hi - lo),
            random_induced(rng, combo % 4 + 1, size=hi - lo))


def _rank2_draw(args, rng, lo, hi):
    return np.arange(lo + 1, hi + 1) / (args.samples + 1),


def _rank2_inputs(drawn, lo):
    alphas, = drawn
    sigma = rank2_bell_mixtures(alphas)
    c = np.abs(2.0 * alphas - 1.0)
    r = rank_batch(validate_batch(sigma, _where(lo, "input")))
    return sigma, sigma, {"c_a": c, "c_b": c, "rank_a": r, "rank_b": r}


def _oracle_draw(args, rng, lo, hi):
    return random_bures(rng, size=hi - lo), random_bures(rng, size=hi - lo)


def _haar_draw(args, rng, lo, hi):
    """Haar 4x4 unitaries; nothing to swap."""
    return haar_unitary(rng, 4, hi - lo),


def _haar_inputs(drawn, lo):
    """Per-sample phase sums and sums of squares of the eigenvalues of the
    drawn unitaries."""
    phases = np.angle(np.linalg.eigvals(drawn[0]))
    return None, None, {"phase_sum": phases.sum(axis=1), "phase_sq": (phases ** 2).sum(axis=1)}


# --------------------------------------------------------------------------
# the experiments


def _rank_floor(cols):
    return np.maximum(cols["rank_a"], cols["rank_b"])


def _schmidt_floor(cols, args):
    s_a, s_b = (np.sqrt(1.0 - cols[k] * cols[k]) for k in ("c_a", "c_b"))
    return cols["c_a"] * cols["c_b"] / (1.0 + s_a * s_b) - cols["c_f"]


def _rank_mismatch(cols, args):
    combo = cols["sample"] // args.samples
    return (cols["rank_a"] != combo // 4 + 1) | (cols["rank_b"] != combo % 4 + 1)


def _phase_sums(per_sample) -> tuple:
    """The sample count and the run's exactly rounded (math.fsum) sums of
    phase_sum and phase_sq, which no sample order or Python version moves."""
    return (len(per_sample["phase_sum"]), math.fsum(per_sample["phase_sum"]),
            math.fsum(per_sample["phase_sq"]))


def _phase_stats(per_sample) -> tuple:
    """The run's phase mean and std."""
    n, total, squares = _phase_sums(per_sample)
    mean = total / (4 * n)
    return mean, float(np.sqrt(squares / (4 * n) - mean * mean))


def _phase_z(per_sample) -> tuple:
    """z-scores of the run's two phase sums against their Haar means, 0 and
    4 N pi^2 / 3, over their exact standard errors sqrt(N HAAR_VAR_SUM) and
    sqrt(N HAAR_VAR_SQ)."""
    n, total, squares = _phase_sums(per_sample)
    return (total / np.sqrt(n * HAAR_VAR_SUM),
            (squares - 4.0 * n * np.pi ** 2 / 3.0) / np.sqrt(n * HAAR_VAR_SQ))


EXPERIMENTS = {
    # swapping anything with a Bell state preserves concurrence
    "conserve": Experiment(_conserve_draw, _conserve_inputs, _general_outcomes, (
        Check("conservation", lambda c, _: np.abs(c["c_f"] - c["c_a"]), CONSERVATION_TOL),)),
    # Bell-diagonal pairs: C_A C_B >= C_F >= (C_A + C_B + C_A C_B - 1) / 2,
    # the floor proved in the README's "Bounds"
    "belldiag": Experiment(_belldiag_draw, _belldiag_inputs, _x_outcomes, (
        Check("product_upper", lambda c, _: c["c_f"] - c["c_a"] * c["c_b"], UPPER_BOUND_TOL),
        Check("belldiag_floor",
              lambda c, _: 0.5 * (c["c_a"] + c["c_b"] + c["c_a"] * c["c_b"] - 1.0) - c["c_f"],
              LOWER_BOUND_TOL),
    )),
    # Haar pure pairs, by the README's "Bounds": 4 p C_F = C_A C_B on each
    # outcome, so C_F >= C_A C_B / (1 + s_A s_B), s = sqrt(1 - C^2), which
    # implies the paper's (C_A C_B)^2; float_power squares with C pow, as
    # Python's float ** does (a product can differ in the last bit)
    "pure": Experiment(_pure_draw, _pure_inputs, _general_outcomes, (
        Check("squared_product_floor",
              lambda c, _: np.float_power(c["c_a"] * c["c_b"], 2) - c["c_f"], LOWER_BOUND_TOL),
        Check("pure_identity",
              lambda c, _: np.abs(4.0 * c["prob"] * c["c_f"] - c["c_a"] * c["c_b"]),
              LOWER_BOUND_TOL),
        Check("schmidt_floor", _schmidt_floor, LOWER_BOUND_TOL),
    )),
    # every rank combination (k1, k2) in 1..4: R_F >= max(R_A, R_B), with
    # equality (no rank gap) when either input is pure; inputs of ranks k1, k2
    "rank": Experiment(_rank_draw, _general_inputs, _general_outcomes, (
        Check("rank_floor", lambda c, _: _rank_floor(c) - c["rank_f"], 0),
        Check("pure_rank_equality", lambda c, _: (np.minimum(c["rank_a"], c["rank_b"]) == 1)
              * np.abs(c["rank_f"] - _rank_floor(c)), 0),
        Check("input_rank", _rank_mismatch, 0),
    ), combos=16),
    # rank-2 Bell mixtures swapped with themselves: C_F = C_in^2 exactly
    "rank2-selfswap": Experiment(_rank2_draw, _rank2_inputs, _general_outcomes, (
        Check("self_swap_square", lambda c, _: np.abs(c["c_f"] - c["c_a"] * c["c_a"]),
              SELF_SWAP_TOL),)),
    # the closed-form psi- swap against the beamsplitter route
    "oracle-equiv": Experiment(_oracle_draw, _general_inputs, _oracle_outcomes, (
        Check("trace_distance", lambda c, _: c["trace_distance"], ORACLE_TOL),
        Check("probability_diff", lambda c, _: c["prob_diff"], ORACLE_TOL),
    ), extras=lambda r, _: {"max_trace_distance": r.checks["trace_distance"]["worst"],
                            "max_probability_diff": r.checks["probability_diff"]["worst"]}),
    # eigenvalue phases of Haar 4x4 unitaries: each sample's phase sum has
    # mean 0 and its sum of squares 4 pi^2 / 3, checked over the whole run
    # as z-scores (worst holds |z|); no swap, and no record rows
    "haar-stats": Experiment(_haar_draw, _haar_inputs, _no_outcomes, (
        Check("phase_mean_z", lambda s, _: np.abs(_phase_z(s)[0]), HAAR_Z_BOUND,
              per_sample=True),
        Check("phase_mean_square_z", lambda s, _: np.abs(_phase_z(s)[1]), HAAR_Z_BOUND,
              per_sample=True),
    ), extras=lambda r, s: dict(zip(("phase_mean", "phase_std"), _phase_stats(s)),
                                target_std=HAAR_PHASE_STD)),
}

# Fixed stream ids keep the experiments' draws disjoint under one seed; a
# new experiment goes last, so that no draw moves.
_STREAM_IDS = {name: i + 1 for i, name in enumerate(EXPERIMENTS)}


def _tally(check: Check, cols: dict, args) -> tuple:
    """A Check's (violations, worst deviation) over columns ``cols``."""
    dev = check.deviation(cols, args)
    return int(np.count_nonzero(dev > check.tol)), float(dev.max(initial=0.0))


def _row_tallies(checks, cols: dict, args) -> tuple:
    """Each Check's tally over record columns ``cols``, in order; None for
    a per-sample check."""
    return tuple(None if check.per_sample else _tally(check, cols, args) for check in checks)


def _apply_checks(report: BoundReport, checks, tallies, args, per_sample=None) -> None:
    """Report each Check under its name: a record check merged from its
    tallies in ``tallies``, one _row_tallies tuple per pass, a per-sample
    check tallied over the run's per-sample columns ``per_sample``."""
    for i, check in enumerate(checks):
        parts = ([_tally(check, per_sample, args)] if check.per_sample
                 else [tally[i] for tally in tallies])
        counts, worsts = zip(*parts)
        count = sum(counts)
        # np.maximum keeps a NaN, as a max over the whole run's rows would
        report.checks[check.name] = {"tol": check.tol, "violations": count,
                                     "worst": float(functools.reduce(np.maximum, worsts))}
        report.hard_violations += count


def _joined(parts) -> dict:
    """Columns of consecutive parts, joined in order."""
    return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


def run_experiment(name: str, samples: int, seed: int, *,
                   ensemble: str = "bures", workers: int = 1,
                   fmt: "str | None" = None):
    """Run an experiment by CLI name; returns (records, report). The
    records are the record columns by name, or, given a records format
    ``fmt`` ("csv" or "json"), the records text in it as a list of pieces
    (see write_records), each pass's rows rendered where the pass ran.

    For 'rank' ``samples`` counts pairs per rank combination, for
    'rank2-selfswap' it is the mixing-grid size. haar-stats keeps no
    record rows. Each argument is checked before any pass runs (ValueError);
    every rank is counted at DEFAULT_RANK_TOL.
    """
    t0 = time.perf_counter()
    if name not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}; expected one of {tuple(EXPERIMENTS)}")
    if fmt not in (None, "csv", "json"):
        raise ValueError(f"unknown records format {fmt!r}; expected 'csv', 'json' or None")
    if ensemble not in STATE_ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}; "
                         f"expected one of {', '.join(STATE_ENSEMBLES)}")
    spec, args = EXPERIMENTS[name], Args(samples, ensemble)
    parts = run_passes(functools.partial(_swap_pass, name, args, fmt),
                       RngStream(seed, _STREAM_IDS[name]), samples, workers, spec.combos)
    # the passes cover the samples in order from 0
    per_sample = _joined([part.per_sample for part in parts])
    report = BoundReport(name, spec.combos * samples, seed,
                         skipped=sum(part.skipped for part in parts))
    _apply_checks(report, spec.checks, [part.tallies for part in parts], args, per_sample)
    if spec.extras:
        report.extras.update(spec.extras(report, per_sample))
    if fmt:
        records = _table([piece for part in parts for piece in part.records], fmt)
    else:
        records = _joined([part.records for part in parts])
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# emission


def _names(cols: dict) -> tuple:
    """The emitted column names: a ratio column is appended when the
    records carry one."""
    return CSV_COLUMNS + (("ratio",) if "ratio" in cols else ())


def _fields(values: list, fmt: str) -> list:
    """The text of each number or label of ``values`` in records format
    ``fmt``: a number as %.17g in CSV, each value as json encodes it in
    JSON."""
    if fmt == "csv":
        return ["%.17g" % v for v in values]
    # no number or Bell label holds a comma
    return json.dumps(values, separators=(",", ":"))[1:-1].split(",")


def _repeated_text(column, fmt: str) -> "list | None":
    """The fields of a float column in records format ``fmt``, each
    distinct value formatted once, or None when no row's value equals the
    one of the row before it. Values are told apart by their bits, so that
    -0.0 (text "-0") stays apart from 0.0 and each NaN payload from the
    others."""
    # repeats run in consecutive rows (a sample's outcomes share p_k = 1/4,
    # clipped C_F = 0 runs), so a column without such a run pays this one
    # comparison and no set; it compares floats, as an int64 comparison
    # would page in numpy code that nothing else runs
    if not (column[1:] == column[:-1]).any():
        return None
    bits = column.view(np.int64).tolist()
    distinct = list(set(bits))
    values = np.array(distinct, dtype=np.int64).view(np.float64).tolist()
    return list(map(dict(zip(distinct, _fields(values, fmt))).__getitem__, bits))


def _cell(name: str, column, fmt: str, per_row: bool) -> tuple:
    """Record column ``name`` in records format ``fmt``: its field's piece
    of the row template, and its values as that piece takes them, outcomes
    as their labels (in JSON each value as the text json encodes it to).
    A float column of the rows' own fields (``per_row``) in which values
    repeat is given as text, each distinct value formatted once (see
    _repeated_text)."""
    piece = f'"{name}":%s' if fmt == "json" else "%.17g" if name in _FLOAT_COLUMNS else "%s"
    if per_row and name in _FLOAT_COLUMNS:
        text = _repeated_text(column, fmt)
        if text is not None:
            return piece.replace("%.17g", "%s"), text
    values = column.tolist()
    if name == "outcome":
        values = [_LABELS[k] for k in values]
    return piece, values if fmt == "csv" else _fields(values, fmt)


def _render_rows(cols: dict, fmt: str, per_sample: dict, n) -> str:
    """The records' rows in records format ``fmt``, outcomes as labels: CSV
    lines, or JSON objects joined by commas; "" when there are none.

    ``cols`` hold one value per row. Columns of ``per_sample`` hold one
    value per sample, row i taking sample n[i]'s: each sample's fields are
    formatted once, into a row template of its own. The rows' templates,
    joined in row order, take every row's own fields in one formatting.
    Values that repeat in a float column of the rows' own fields are
    formatted once (see _cell)."""
    if not len(n):
        return ""
    specs, sample_values, row_values = [], [], []
    for name in _names({**cols, **per_sample}):
        shared = name in per_sample
        spec, values = _cell(name, (per_sample if shared else cols)[name], fmt, not shared)
        # a row's own field stays a conversion spec in its sample's template
        # (no formatted number, label or column name holds a %)
        specs.append(spec if shared else spec.replace("%", "%%"))
        (sample_values if shared else row_values).append(values)
    row = ",".join(specs)
    row = row + "\n" if fmt == "csv" else "{" + row + "}"
    templates = [row % cells for cells in zip(*sample_values)]
    joined = ("" if fmt == "csv" else ",").join(map(templates.__getitem__, n.tolist()))
    return joined % tuple(itertools.chain.from_iterable(zip(*row_values)))


def _table(pieces: list, fmt: str) -> list:
    """The records text of consecutive rendered pieces, in pieces: CSV's as
    they are (the pass of sample 0 rendered the header), JSON's objects in
    brackets, joined by commas."""
    if fmt == "csv":
        return pieces
    table = ["["]
    for piece in filter(None, pieces):
        table += (",", piece) if len(table) > 1 else (piece,)
    return table + ["]\n"]


def write_records(records: list, path) -> None:
    """Write the records text that run_experiment rendered, piece by piece;
    record columns, which carry no text, are a ValueError."""
    if isinstance(records, dict):
        raise ValueError("the records carry no text; run the experiment with a records format")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(records)


def write_summary(report: BoundReport, path) -> str:
    """Write the report's summary JSON (sorted keys, two-space indent, a
    final newline) to ``path``; returns the text."""
    text = json.dumps(vars(report), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
