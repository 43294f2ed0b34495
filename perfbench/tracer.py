"""Span tracer behind the benchmark's per-layer metrics.

Wrappers are installed at the attributes entswap's callers actually
resolve (module globals of ``entswap.experiments`` and friends, and two
class attributes), so the package itself is not modified. Each wrapped
call records one span; spans stay in memory until the run ends. Only the
traced run imports this module.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

IMPOSSIBLE = "ImpossibleOutcome"
# Spans that attempt one swap outcome; their ImpossibleOutcome raises are
# the wasted work behind swap.impossible_ratio.
SWAP_KERNELS = ("swap.general", "swap.x_params")


def _targets():
    """(owner, attribute, span name) for every wrapped callable.

    The span name's first component is the layer the time is charged to.
    """
    from entswap import ensembles, experiments, optics, qstate, swap

    targets = [
        (experiments, "run_experiment", "experiments.run"),
        (experiments, "write_records", "experiments.write_records"),
        (experiments, "write_summary", "experiments.write_summary"),
        (experiments, "swap_all_outcomes", "swap.all_outcomes"),
        (experiments, "swap_general", "swap.general"),
        (swap, "swap_general", "swap.general"),
        (experiments, "swap_x_params", "swap.x_params"),
        (experiments, "concurrence", "qstate.concurrence"),
        (experiments, "concurrence_x", "qstate.concurrence_x"),
        (experiments, "numerical_rank", "qstate.rank"),
        (experiments, "trace_distance", "qstate.trace_distance"),
        (qstate.DensityMatrix, "validate", "qstate.validate"),
        (experiments, "swap_via_beamsplitter", "optics.beamsplitter"),
        (optics, "beamsplitter_unitary", "optics.unitary"),
        (ensembles.RngStream, "substream", "ensembles.substream"),
    ]
    targets += [(experiments, name, "ensembles.draw")
                for name in sorted(vars(experiments)) if name.startswith("random_")]
    return targets


class Tracer:
    """Collects spans from wrapped callables.

    Span i is (names[i], starts[i], ends[i], parents[i], calls[i]):
    parents[i] is the index of the enclosing span or -1, calls[i] the
    benchmark call id in ``call`` when the span opened, and errors[i]
    the type name of the exception it raised, if any. Columns are flat
    arrays so that a long trace adds no work for the garbage collector.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.call = 0
        self.names: "list[str]" = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.calls = array("q")
        self.errors: "dict[int, str]" = {}
        self._open: "list[int]" = []

    def wrap(self, name, fn):
        """Return fn wrapped so that every call records a span ``name``."""
        def traced(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(self._open[-1] if self._open else -1)
            self.calls.append(self.call)
            self.ends.append(0.0)
            self._open.append(index)
            self.starts.append(self.clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[index] = type(exc).__name__
                raise
            finally:
                self.ends[index] = self.clock()
                self._open.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then put the
        original attributes back, also when the block raises."""
        originals = [(owner, attr, name, vars(owner)[attr])
                     for owner, attr, name in _targets()]
        try:
            for owner, attr, name, fn in originals:
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, _, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write the spans as CSV: call,name,start_s,end_s,parent,error."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("call,name,start_s,end_s,parent,error\n")
            for i, name in enumerate(self.names):
                fh.write(f"{self.calls[i]},{name},{self.starts[i]!r},"
                         f"{self.ends[i]!r},{self.parents[i]},"
                         f"{self.errors.get(i, '')}\n")


def self_times(starts, ends, parents) -> "list[float]":
    """Each span's duration minus the durations of its child spans.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other.
    """
    out = [end - start for start, end in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= ends[i] - starts[i]
    return out


def layer_metrics(trace: Tracer, *, samples: int, rows: int,
                  csv_bytes: int) -> "dict[str, float]":
    """Per-layer metrics of a traced run whose top spans are ``cli.main``.

    ``*_us`` are inclusive microseconds per call (0 when the layer is
    never called), ``*_per_sample`` are call counts per input sample and
    ``*share`` are self time over total ``cli.main`` time, so the six
    shares sum to 1. ``samples``, ``rows`` and ``csv_bytes`` are totals
    over the traced calls.
    """
    count = defaultdict(int)
    busy = defaultdict(float)
    layer_self = defaultdict(float)
    owns = self_times(trace.starts, trace.ends, trace.parents)
    for i, name in enumerate(trace.names):
        count[name] += 1
        busy[name] += trace.ends[i] - trace.starts[i]
        layer_self[name.split(".", 1)[0]] += owns[i]
    impossible = sum(trace.names[i] in SWAP_KERNELS
                     for i, error in trace.errors.items() if error == IMPOSSIBLE)
    total = busy["cli.main"]

    def us(name):
        return 1e6 * busy[name] / count[name] if count[name] else 0.0

    def per_sample(name):
        return count[name] / samples

    def share(layer):
        return layer_self[layer] / total

    swap_attempts = sum(count[name] for name in SWAP_KERNELS)
    return {
        "ensembles.substream_us": us("ensembles.substream"),
        "ensembles.draw_us": us("ensembles.draw"),
        "ensembles.draws_per_sample": per_sample("ensembles.draw"),
        "ensembles.share": share("ensembles"),
        "qstate.validate_us": us("qstate.validate"),
        "qstate.validate_per_sample": per_sample("qstate.validate"),
        "qstate.concurrence_us": us("qstate.concurrence"),
        "qstate.concurrence_per_sample": per_sample("qstate.concurrence"),
        "qstate.trace_distance_us": us("qstate.trace_distance"),
        "qstate.concurrence_x_us": us("qstate.concurrence_x"),
        "qstate.rank_us": us("qstate.rank"),
        "qstate.share": share("qstate"),
        "swap.all_outcomes_us": us("swap.all_outcomes"),
        "swap.general_us": us("swap.general"),
        "swap.x_params_us": us("swap.x_params"),
        "swap.impossible_ratio": impossible / swap_attempts if swap_attempts else 0.0,
        "swap.share": share("swap"),
        "optics.beamsplitter_us": us("optics.beamsplitter"),
        "optics.unitary_us": us("optics.unitary"),
        "optics.unitary_per_sample": per_sample("optics.unitary"),
        "optics.share": share("optics"),
        "experiments.self_share": share("experiments"),
        "experiments.emit_us_per_row": 1e6 * busy["experiments.write_records"] / rows,
        "experiments.csv_bytes_per_sample": csv_bytes / samples,
        "cli.self_share": share("cli"),
    }


SHARES = ("ensembles.share", "qstate.share", "swap.share", "optics.share",
          "experiments.self_share", "cli.self_share")
