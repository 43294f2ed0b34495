"""Monte Carlo harness: conservation, concurrence bounds, rank law and
dual-path checks, with CSV/JSON emission.

Every experiment derives one random substream per sample index, so
results are reproducible bit-for-bit for a given seed regardless of how
samples are partitioned across workers. Chunks and their blocks emit
records in sample-index (then outcome) order and floats are serialized
with 17 significant digits, making repeated runs byte-identical.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .ensembles import (
    RngStream,
    bell_diagonal_x,
    haar_unitary,
    random_bell_diagonal,
    random_bures,
    random_induced,
    random_pure,
    rank2_bell_mixture,
)
from .optics import swap_via_beamsplitter
# swap_general, swap_all_outcomes, swap_x_params, concurrence,
# concurrence_x and numerical_rank stay importable here: the benchmark's
# span tracer (perfbench/tracer.py) wraps them by name.
from .qstate import (  # noqa: F401
    DEFAULT_RANK_TOL,
    BellLabel,
    DensityMatrix,
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

EXPERIMENT_NAMES = ("conserve", "belldiag", "pure", "rank",
                    "rank2-selfswap", "oracle-equiv", "haar-stats")

# Fixed stream ids keep the experiments' draws disjoint under one seed.
_STREAM_IDS = {name: i + 1 for i, name in enumerate(EXPERIMENT_NAMES)}


# Samples per stacked engine call: bounds the general engine's arrays
# (about 10 kB per sample) for any sample count.
BLOCK_SAMPLES = 256


@dataclass(frozen=True)
class ExperimentRecord:
    """One Monte Carlo row: input/output concurrences, ranks, outcome."""

    sample_index: int
    outcome: BellLabel
    c_a: float
    c_b: float
    c_f: float
    probability: float
    rank_a: int
    rank_b: int
    rank_f: int
    ratio: "float | None" = None


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
        out = {
            "experiment": self.experiment,
            "samples": self.samples,
            "violations_upper": self.violations_upper,
            "violations_lower": self.violations_lower,
            "max_upper_excess": self.max_upper_excess,
            "max_lower_deficit": self.max_lower_deficit,
            "hard_violations": self.hard_violations,
            "soft_violations": self.soft_violations,
            "skipped": self.skipped,
            "runtime_ms": self.runtime_ms,
            "seed": self.seed,
        }
        if self.fit_params is not None:
            out["fit_params"] = self.fit_params
        if self.extras:
            out["extras"] = self.extras
        return out


def _chunk_ranges(n: int, n_chunks: int) -> "list[tuple[int, int]]":
    n_chunks = max(1, min(n_chunks, n))
    step = -(-n // n_chunks)
    return [(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _run_chunks(chunk_fn, n: int, workers: int, args: tuple) -> list:
    """Run chunk_fn(start, stop, *args) over a partition of range(n)."""
    if n < 1:
        raise ValueError(f"sample count must be at least 1, got {n}")
    ranges = _chunk_ranges(n, workers * 4 if workers > 1 else 1)
    if workers <= 1:
        return [chunk_fn(lo, hi, *args) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(chunk_fn, lo, hi, *args) for lo, hi in ranges]
        return [f.result() for f in futures]


def _blocks(start: int, stop: int, group: "int | None" = None) -> list:
    """[lo, hi) pieces of [start, stop) holding at most BLOCK_SAMPLES
    samples; with ``group``, none straddles a multiple of it."""
    edges = {*range(start, stop, BLOCK_SAMPLES), stop}
    if group:
        edges.update(range(start - start % group + group, stop, group))
    edges = sorted(edges)
    return list(zip(edges[:-1], edges[1:]))


def _substreams(name: str, seed: int, lo: int, hi: int) -> list:
    stream = RngStream(seed, _STREAM_IDS[name])
    return [stream.substream(i) for i in range(lo, hi)]


def _where(lo: int, what: str):
    """Name state n (outcome k) of the block starting at sample ``lo``."""
    return lambda n, k=None: f"{what} of sample {lo + n}" + (
        "" if k is None else f", outcome {_OUTCOMES[k]}")


def _measure_inputs(lo, mats, rank_tol, what="input"):
    """Validate a block of inputs; return their (concurrences, ranks)."""
    eigs = validate_batch(mats, _where(lo, what))
    return concurrence_batch(mats).tolist(), rank_batch(eigs, rank_tol).tolist()


def _general_outcomes(rho_a, rho_b, where):
    """Swap a block of pairs: the possible outcomes' (N, 4) mask, all
    probabilities, and the possible outputs' concurrences and eigenvalues."""
    raw, prob = swap_batch(rho_a, rho_b)
    possible, states, eigs = conditional_states(raw, prob, where)
    return possible, prob, concurrence_batch(states), eigs


def _x_outcomes(x_a, x_b, where):
    """_general_outcomes for a block of X-stack pairs, in closed form."""
    norm, out = swap_x_batch(x_a, x_b)
    possible, x = conditional_x_states(norm, out, where)
    return possible, norm / 2.0, concurrence_x_batch(*x), x_eigenvalues_batch(*x)


def _swap_chunk(start, stop, draw, rank_tol, group, outcomes):
    """Swap blocks of input pairs through all four outcomes; returns one
    record per possible outcome and the number of impossible ones skipped.

    ``draw(lo, hi)`` gives a block's stacked inputs a and b, their
    (concurrences, ranks) and optionally a ratio column, by block position;
    ``outcomes`` is _general_outcomes or _x_outcomes.
    """
    records, skipped = [], 0
    for lo, hi in _blocks(start, stop, group):
        a, b, (c_a, r_a), (c_b, r_b), *ratio = draw(lo, hi)
        ratio = ratio[0] if ratio else [None] * (hi - lo)
        possible, prob, c_f, eigs = outcomes(a, b, _where(lo, "output"))
        c_f = c_f.tolist()
        r_f = rank_batch(eigs, rank_tol).tolist()
        probs = prob[possible].tolist()
        rows = np.argwhere(possible).tolist()
        skipped += possible.size - len(rows)
        records += [ExperimentRecord(lo + n, _OUTCOMES[k], c_a[n], c_b[n], c_f[j], probs[j],
                                     r_a[n], r_b[n], r_f[j], ratio[n])
                    for j, (n, k) in enumerate(rows)]
    return records, skipped


def _run_swaps(name, samples, seed, workers, rank_tol, draw, group=None,
               outcomes=_general_outcomes):
    """Run _swap_chunk over range(samples): records and a report with skips."""
    chunks = _run_chunks(_swap_chunk, samples, workers, (draw, rank_tol, group, outcomes))
    records = [r for recs, _ in chunks for r in recs]
    return records, BoundReport(name, samples, seed, skipped=sum(s for _, s in chunks))


# --------------------------------------------------------------------------
# conservation: swapping anything with a Bell state preserves concurrence


def _conserve_draw(seed, ensemble, rank_tol, lo, hi):
    rngs = _substreams("conserve", seed, lo, hi)
    if ensemble == "bures":
        rho = random_bures(rngs)
    elif ensemble == "pure":
        rho = pure_batch(random_pure(rngs), _where(lo, "input"))
    elif ensemble.startswith("induced-"):
        rho = random_induced(rngs, 4, int(ensemble.split("-", 1)[1]))
    else:
        raise ValueError(
            f"unknown ensemble {ensemble!r}; expected bures, pure or induced-1..4"
        )
    bell = np.broadcast_to(bell_density(BellLabel.PHI_PLUS).mat, rho.shape)
    return rho, bell, _measure_inputs(lo, rho, rank_tol), ([1.0] * (hi - lo), [1] * (hi - lo))


def run_conservation(samples: int, seed: int, ensemble: str = "bures",
                     rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1):
    """Swap random states with phi+ and measure |C_F - C_A| per outcome."""
    t0 = time.perf_counter()
    records, report = _run_swaps("conserve", samples, seed, workers, rank_tol,
                                 partial(_conserve_draw, seed, ensemble, rank_tol))
    for r in records:
        deviation = abs(r.c_f - r.c_a)
        report.max_upper_excess = max(report.max_upper_excess, deviation)
        if deviation > CONSERVATION_TOL:
            report.violations_upper += 1
    report.hard_violations = report.violations_upper
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# Bell-diagonal pairs: C_F <= C_A C_B, empirical floor max[0, 5x/4 - 1/4]


def _belldiag_lower(x: float) -> float:
    return max(0.0, 1.25 * x - 0.25)


def _belldiag_draw(seed, rank_tol, lo, hi):
    rngs = _substreams("belldiag", seed, lo, hi)
    x_a = bell_diagonal_x(random_bell_diagonal(rngs))  # each substream draws a,
    x_b = bell_diagonal_x(random_bell_diagonal(rngs))  # then b
    measures = []
    for x, what in ((x_a, "input a"), (x_b, "input b")):
        validate_x_batch(*x, _where(lo, what))
        measures.append((concurrence_x_batch(*x).tolist(),
                         rank_batch(x_eigenvalues_batch(*x), rank_tol).tolist()))
    return x_a, x_b, *measures


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


def _fit_lower_line(records) -> "dict | None":
    # least-squares line through the lower envelope of C_F over the
    # region where the floor is active
    xs = np.array([r.c_a * r.c_b for r in records])
    ys = np.array([r.c_f for r in records])
    active = xs >= 0.25
    if np.count_nonzero(active) < 24:
        return None
    n_bins = int(np.clip(np.count_nonzero(active) // 8, 3, 20))
    pts = _envelope_minima(xs[active], ys[active], n_bins)
    if len(pts) < 3:
        return None
    slope, intercept = np.polyfit(pts[:, 0], pts[:, 1], 1)
    return {"slope": float(slope), "intercept": float(intercept)}


def run_belldiag_bounds(samples: int, seed: int,
                        rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1):
    """Random Bell-diagonal pairs; product upper bound is asserted hard,
    the fitted linear floor is checked with slack and re-fitted."""
    t0 = time.perf_counter()
    records, report = _run_swaps("belldiag", samples, seed, workers, rank_tol,
                                 partial(_belldiag_draw, seed, rank_tol),
                                 outcomes=_x_outcomes)
    for r in records:
        x = r.c_a * r.c_b
        excess = r.c_f - x
        deficit = _belldiag_lower(x) - r.c_f
        report.max_upper_excess = max(report.max_upper_excess, excess)
        report.max_lower_deficit = max(report.max_lower_deficit, deficit)
        if excess > UPPER_BOUND_TOL:
            report.violations_upper += 1
        if deficit > EMPIRICAL_SLACK:
            report.violations_lower += 1
    report.hard_violations = report.violations_upper
    report.soft_violations = report.violations_lower
    report.fit_params = _fit_lower_line(records)
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# pure pairs: C_F >= (C_A C_B)^2, exponential floor re-fitted


def _pure_draw(seed, lo, hi):
    rngs = _substreams("pure", seed, lo, hi)
    va, vb = random_pure(rngs), random_pure(rngs)
    c_a = [pure_concurrence(v) for v in va]
    c_b = [pure_concurrence(v) for v in vb]
    ratio = [max(a, b) / min(a, b) if min(a, b) > 0.0 else float("inf")
             for a, b in zip(c_a, c_b)]
    rho_a = pure_batch(va, _where(lo, "input a"))
    rho_b = pure_batch(vb, _where(lo, "input b"))
    validate_batch(rho_a, _where(lo, "input a"))
    validate_batch(rho_b, _where(lo, "input b"))
    ones = [1] * (hi - lo)
    return rho_a, rho_b, (c_a, ones), (c_b, ones), ratio


def _fit_lower_exponential(records) -> "dict | None":
    # offset + scale * exp(rate * x) through the lower envelope
    from scipy.optimize import curve_fit

    xs = np.array([r.c_a * r.c_b for r in records])
    ys = np.array([r.c_f for r in records])
    if xs.size < 60:
        return None
    n_bins = int(np.clip(xs.size // 20, 6, 30))
    pts = _envelope_minima(xs, ys, n_bins)
    if len(pts) < 6:
        return None
    try:
        popt, _ = curve_fit(
            lambda x, a, b, c: a + b * np.exp(c * x),
            pts[:, 0], pts[:, 1], p0=(0.0, 0.05, 1.0), maxfev=20000,
        )
    except (RuntimeError, ValueError):
        return None
    return {"offset": float(popt[0]), "scale": float(popt[1]),
            "rate": float(popt[2])}


def run_pure_bounds(samples: int, seed: int,
                    rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1):
    """Haar-random pure pairs; the squared-product lower bound is hard."""
    t0 = time.perf_counter()
    records, report = _run_swaps("pure", samples, seed, workers, rank_tol,
                                 partial(_pure_draw, seed))
    for r in records:
        deficit = (r.c_a * r.c_b) ** 2 - r.c_f
        report.max_lower_deficit = max(report.max_lower_deficit, deficit)
        if deficit > LOWER_BOUND_TOL:
            report.violations_lower += 1
    report.hard_violations = report.violations_lower
    report.fit_params = _fit_lower_exponential(records)
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# rank law: R_F >= max(R_A, R_B), equality when either input is pure


def _rank_draw(seed, per_combo, rank_tol, lo, hi):
    rngs = _substreams("rank", seed, lo, hi)
    combo = lo // per_combo  # blocks never straddle two combos
    rho_a = random_induced(rngs, 4, combo // 4 + 1)
    rho_b = random_induced(rngs, 4, combo % 4 + 1)
    return (rho_a, rho_b, _measure_inputs(lo, rho_a, rank_tol, "input a"),
            _measure_inputs(lo, rho_b, rank_tol, "input b"))


def run_rank_relation(samples_per_combo: int, seed: int,
                      rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1):
    """Induced-measure pairs of every rank combination (k1, k2) in 1..4."""
    t0 = time.perf_counter()
    total = 16 * samples_per_combo
    records, report = _run_swaps("rank", total, seed, workers, rank_tol,
                                 partial(_rank_draw, seed, samples_per_combo, rank_tol),
                                 group=samples_per_combo)
    mismatches = 0
    for r in records:
        combo = r.sample_index // samples_per_combo
        k1, k2 = combo // 4 + 1, combo % 4 + 1
        if (r.rank_a, r.rank_b) != (k1, k2):
            mismatches += 1
        floor = max(r.rank_a, r.rank_b)
        if r.rank_f < floor:
            report.violations_upper += 1
            report.max_upper_excess = max(report.max_upper_excess,
                                          float(floor - r.rank_f))
        if min(r.rank_a, r.rank_b) == 1 and r.rank_f != floor:
            report.violations_lower += 1
    report.hard_violations = (report.violations_upper
                              + report.violations_lower + mismatches)
    report.extras["input_rank_mismatches"] = mismatches
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# rank-2 self-swap: C_F equals the squared input concurrence exactly


def _rank2_draw(points, rank_tol, lo, hi):
    alphas = [i / (points + 1) for i in range(lo + 1, hi + 1)]
    sigma = np.stack([rank2_bell_mixture(alpha).mat for alpha in alphas])
    cols = ([abs(2.0 * alpha - 1.0) for alpha in alphas],
            rank_batch(validate_batch(sigma, _where(lo, "input")), rank_tol).tolist())
    return sigma, sigma, cols, cols


def run_rank2_selfswap(points: int = 99, seed: int = 0,
                       rank_tol: float = DEFAULT_RANK_TOL):
    """Swap alpha psi+ + (1-alpha) psi- with itself on an alpha grid."""
    if points < 1:
        raise ValueError(f"grid size must be at least 1, got {points}")
    t0 = time.perf_counter()
    records, report = _run_swaps("rank2-selfswap", points, seed, 1, rank_tol,
                                 partial(_rank2_draw, points, rank_tol))
    for r in records:
        deviation = abs(r.c_f - r.c_a * r.c_a)
        report.max_upper_excess = max(report.max_upper_excess, deviation)
        if deviation > SELF_SWAP_TOL:
            report.violations_upper += 1
    report.hard_violations = report.violations_upper
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# dual-path equivalence: analytic psi- output vs beamsplitter model


def _oracle_chunk(start, stop, seed, eta, rank_tol):
    psi = _OUTCOMES.index(BellLabel.PSI_MINUS)
    records, distances, prob_diffs = [], [], []
    for lo, hi in _blocks(start, stop):
        rngs = _substreams("oracle-equiv", seed, lo, hi)
        mats_a, mats_b = random_bures(rngs), random_bures(rngs)
        c_a, r_a = _measure_inputs(lo, mats_a, rank_tol, "input a")
        c_b, r_b = _measure_inputs(lo, mats_b, rank_tol, "input b")
        raw, prob = swap_batch(mats_a, mats_b)
        possible, states, eigs = conditional_states(
            raw[:, psi:psi + 1], prob[:, psi:psi + 1], lambda n, _: _where(lo, "output")(n, psi))
        if not possible.all():  # the first sample swap_general would refuse
            raise ImpossibleOutcome(BellLabel.PSI_MINUS, 2.0 * prob[~possible[:, 0], psi][0])
        c_f = concurrence_batch(states).tolist()
        r_f = rank_batch(eigs, rank_tol).tolist()
        probs = prob[:, psi].tolist()
        for n in range(hi - lo):
            # inputs and the analytic output were validated as stacks above
            physical = swap_via_beamsplitter(
                DensityMatrix(mats_a[n], validate=False),
                DensityMatrix(mats_b[n], validate=False), eta)
            analytic = DensityMatrix(states[n], validate=False)
            distances.append(trace_distance(analytic, physical.state))
            prob_diffs.append(abs(probs[n] - physical.probability))
            records.append(ExperimentRecord(lo + n, BellLabel.PSI_MINUS, c_a[n], c_b[n],
                                            c_f[n], probs[n], r_a[n], r_b[n], r_f[n]))
    return records, distances, prob_diffs


def run_oracle_equiv(samples: int, seed: int, eta: float = 0.5,
                     rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1):
    """Compare the closed-form psi- swap with the beamsplitter route."""
    t0 = time.perf_counter()
    chunks = _run_chunks(_oracle_chunk, samples, workers,
                         (seed, eta, rank_tol))
    records = [r for recs, _, _ in chunks for r in recs]
    distances = [d for _, ds, _ in chunks for d in ds]
    prob_diffs = [p for _, _, ps in chunks for p in ps]
    report = BoundReport("oracle-equiv", samples, seed)
    report.max_upper_excess = max(distances, default=0.0)
    report.max_lower_deficit = max(prob_diffs, default=0.0)
    report.violations_upper = sum(d > ORACLE_TOL for d in distances)
    report.violations_lower = sum(p > ORACLE_TOL for p in prob_diffs)
    report.hard_violations = report.violations_upper + report.violations_lower
    report.extras["max_trace_distance"] = report.max_upper_excess
    report.extras["max_probability_diff"] = report.max_lower_deficit
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return records, report


# --------------------------------------------------------------------------
# Haar sanity: eigenvalue phases of random unitaries are uniform


def _haar_chunk(start, stop, seed):
    """Per-sample (phase count, sum, sum of squares) of Haar 4x4 unitaries."""
    stream = RngStream(seed, _STREAM_IDS["haar-stats"])
    phases = (np.angle(np.linalg.eigvals(haar_unitary(stream.substream(i), 4)))
              for i in range(start, stop))
    return [(p.size, p.sum(), (p ** 2).sum()) for p in phases]


def run_haar_stats(samples: int, seed: int, workers: int = 1):
    """Phase statistics of Haar 4x4 unitaries: mean 0, std pi/sqrt(3)."""
    t0 = time.perf_counter()
    sums = [row for rows in _run_chunks(_haar_chunk, samples, workers, (seed,)) for row in rows]
    # added in sample order, so the sums do not depend on the chunk layout
    count, total, total_sq = (sum(column) for column in zip(*sums))
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
    report.runtime_ms = 1e3 * (time.perf_counter() - t0)
    return [], report


# --------------------------------------------------------------------------
# emission


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def records_to_csv(records: "list[ExperimentRecord]") -> str:
    """Render records as CSV text; a ratio column is appended when any
    record carries one."""
    with_ratio = any(r.ratio is not None for r in records)
    header = ",".join(CSV_COLUMNS + (("ratio",) if with_ratio else ()))
    lines = [header]
    for r in records:
        cells = [
            str(r.sample_index), r.outcome.value,
            _format_float(r.c_a), _format_float(r.c_b), _format_float(r.c_f),
            _format_float(r.probability),
            str(r.rank_a), str(r.rank_b), str(r.rank_f),
        ]
        if with_ratio:
            cells.append(_format_float(r.ratio if r.ratio is not None else 0.0))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def records_to_json(records: "list[ExperimentRecord]") -> str:
    rows = []
    for r in records:
        row = {
            "sample": r.sample_index, "outcome": r.outcome.value,
            "c_a": r.c_a, "c_b": r.c_b, "c_f": r.c_f,
            "prob": r.probability,
            "rank_a": r.rank_a, "rank_b": r.rank_b, "rank_f": r.rank_f,
        }
        if r.ratio is not None:
            row["ratio"] = r.ratio
        rows.append(row)
    return json.dumps(rows, indent=None, separators=(",", ":")) + "\n"


def write_records(records, path, fmt: str = "csv") -> None:
    text = records_to_csv(records) if fmt == "csv" else records_to_json(records)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_summary(report: BoundReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(name: str, samples: int, seed: int, *,
                   ensemble: str = "bures", eta: float = 0.5,
                   rank_tol: float = DEFAULT_RANK_TOL, workers: int = 1):
    """Dispatch an experiment by CLI name; returns (records, report)."""
    if name == "conserve":
        return run_conservation(samples, seed, ensemble=ensemble,
                                rank_tol=rank_tol, workers=workers)
    if name == "belldiag":
        return run_belldiag_bounds(samples, seed, rank_tol=rank_tol,
                                   workers=workers)
    if name == "pure":
        return run_pure_bounds(samples, seed, rank_tol=rank_tol,
                               workers=workers)
    if name == "rank":
        return run_rank_relation(samples, seed, rank_tol=rank_tol,
                                 workers=workers)
    if name == "rank2-selfswap":
        return run_rank2_selfswap(points=samples, seed=seed,
                                  rank_tol=rank_tol)
    if name == "oracle-equiv":
        return run_oracle_equiv(samples, seed, eta=eta, rank_tol=rank_tol,
                                workers=workers)
    if name == "haar-stats":
        return run_haar_stats(samples, seed, workers=workers)
    raise ValueError(
        f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}"
    )
