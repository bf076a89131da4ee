"""One training run, its correctness checks, and the metrics taken from runs.

:func:`train_once` calls the public ``repro.training.train_distributed``
entry point under :class:`~probes.Probes` and turns what the ranks
recorded into a :class:`RunRecord`.  :func:`end_to_end` and
:func:`per_layer` reduce the records of one benchmark invocation to the
metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import gc
import math
import statistics
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from probes import Probes, perf_counter
from repro.training import train_distributed
from workloads import Job

#: End-to-end metric -> unit.  Measured with tracing off.
END_TO_END: Dict[str, str] = {
    "samples_per_s": "samples/s",
    "final_loss": "nat",
    "setup_s": "s",
    "rank_peak_rss_mb": "MB",
    "success_share": "share",
}

#: End-to-end metrics that are a median of one value per training run;
#: ``samples_per_s`` instead pools the samples and seconds of all runs.
MEDIAN_METRICS = ("final_loss", "setup_s", "rank_peak_rss_mb")

#: Per-layer metric -> unit.  Measured in traced runs.  Timings with a
#: ``.tail`` also report ``.n``, the number of samples behind them.
PER_LAYER: Dict[str, str] = {
    "setup.spawn_s": "s",
    "setup.exchange_build_s": "s",
    "data.batch_ms.p50": "ms",
    "data.batch_ms.tail": "ms",
    "data.batch_ms.n": "count",
    "nn.fwd_bwd_ms.p50": "ms",
    "nn.fwd_bwd_ms.tail": "ms",
    "nn.fwd_bwd_ms.n": "count",
    "nn.fwd_bwd_rank_spread": "ratio",
    "optim.step_ms.p50": "ms",
    "optim.state_bytes": "B",
    "sgd.step_ms.p50": "ms",
    "sgd.step_ms.tail": "ms",
    "sgd.step_ms.n": "count",
    "exchange.ms.p50": "ms",
    "exchange.ms.tail": "ms",
    "exchange.ms.n": "count",
    "exchange.wire_bytes_per_step": "B/step",
    "exchange.included_share": "share",
    "exchange.num_active_mean": "ranks",
    "partial.reduce_ms.p50": "ms",
    "partial.reduce_ms.tail": "ms",
    "partial.reduce_ms.n": "count",
    "sync.allreduce_ms.p50": "ms",
    "sharding.reduce_scatter_ms.p50": "ms",
    "sharding.allgather_ms.p50": "ms",
    "collectives.calls_per_step": "calls/step",
    "comm.msgs_per_step": "msgs/step",
    "comm.bytes_per_step": "B/step",
    "comm.send_ms.p50": "ms",
    "comm.recv_wait_ms_per_step": "ms/step",
    "comm.recv_timeouts": "count",
    "trace.overhead_share": "share",
}

#: Steps at the start of a training run left out of ``samples_per_s``
#: (at most a quarter of the run).
WARMUP_STEPS = 10
#: Wall-clock limit of one training run; a hang becomes a failed run.
RUN_TIMEOUT_S = 40.0
#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class RunRecord:
    """Outcome of one ``train_distributed`` call."""

    traced: bool
    #: Why the run failed: an exception or a failed correctness check.
    problems: List[str] = field(default_factory=list)
    #: Samples trained after warm-up, and the slowest rank's seconds for them.
    samples: int = 0
    seconds: float = math.nan
    setup_s: float = math.nan
    final_loss: float = math.nan
    rank_peak_rss_mb: float = math.nan
    #: One probes snapshot per rank.
    ranks: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def train_once(job: Job, traced: bool) -> RunRecord:
    """Train once and check the outputs; never raises for a failed run."""
    record = RunRecord(traced=traced)
    # Start every run from the same collector state.  The ranks fork from
    # this process and inherit its gc counters; once the records kept so
    # far push those near a full collection, each rank runs one during
    # set-up and setup_s rises from ~60 to ~110 ms after the eighth run.
    gc.collect()
    try:
        with Probes(job.model_class, traced) as probes:
            called = perf_counter()
            result = train_distributed(
                job.model_factory,
                job.train,
                job.loss,
                job.config,
                eval_dataset=job.eval,
                run_timeout=RUN_TIMEOUT_S,
            )
    except Exception:  # noqa: BLE001 - a failed run is a measured outcome
        record.problems.append(traceback.format_exc())
        return record
    ranks = record.ranks = probes.ranks
    config = job.config
    steps = [len(rank["steps"]) for rank in ranks]
    expected = steps[0] if steps else 0
    warmup = min(WARMUP_STEPS, expected // 4)
    if expected < 2 or any(n != expected for n in steps):
        record.problems.append(f"ranks ran {steps} steps; need equal counts >= 2")
        return record

    record.samples = config.global_batch_size * (expected - warmup)
    record.seconds = max(
        _training_seconds(rank["steps"], config.epochs, warmup) for rank in ranks
    )
    record.setup_s = max(rank["steps"][0][0] for rank in ranks) - called
    record.final_loss = result.final_epoch.eval_loss
    record.rank_peak_rss_mb = max(rank["peak_rss_mb"] for rank in ranks)

    hashes = {summary.final_model_hash for summary in result.rank_summaries}
    if len(hashes) != 1:
        record.problems.append(f"replicas differ after training: {sorted(hashes)}")
    losses = [loss for rank in ranks for loss in rank["losses"]]
    losses += [v for e in result.epochs for v in (e.train_loss, e.eval_loss)]
    if not all(math.isfinite(loss) for loss in losses):
        record.problems.append("a training or held-out loss is not finite")
    if not record.final_loss < job.untrained_loss:
        record.problems.append(
            f"final loss {record.final_loss:.4f} not below the untrained "
            f"{job.untrained_loss:.4f}"
        )
    if job.dense_state_bytes is not None:
        held = [rank["state_bytes"] for rank in ranks]
        share = job.dense_state_bytes / config.world_size
        if any(b != share for b in held):
            record.problems.append(
                f"sharded optimizer state {held} B per rank; expected {share:.0f} "
                f"(dense {job.dense_state_bytes} B / P={config.world_size})"
            )
    return record


def _training_seconds(
    steps: Sequence[Tuple[float, float]], epochs: int, warmup: int
) -> float:
    """Wall time of the steps after warm-up, within epochs.

    Each epoch's window runs from its first measured step's entry to its
    last step's exit, so it includes loading the batches in between but
    not the evaluation and model sync that run between epochs.
    """
    per_epoch = len(steps) // epochs
    total = 0.0
    for epoch in range(epochs):
        window = steps[max(epoch * per_epoch, warmup):(epoch + 1) * per_epoch]
        if window:
            total += window[-1][1] - window[0][0]
    return total


# ------------------------------------------------------------------ metrics
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); all three equal the value when there is one."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no percentile qualifies and the maximum
    is reported as the 100th percentile.
    """
    n = len(samples)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, float(np.percentile(samples, pct))
    return 100.0, float(max(samples)) if n else 0.0


def end_to_end(records: Sequence[RunRecord]) -> Dict[str, float]:
    """Metrics over the successful untraced runs."""
    ok = [r for r in records if r.ok and not r.traced]
    if not ok:
        return {}
    metrics = {"samples_per_s": samples_per_s(ok)}
    for name in MEDIAN_METRICS:
        metrics[name] = statistics.median(getattr(r, name) for r in ok)
    return metrics


def samples_per_s(records: Sequence[RunRecord]) -> float:
    """All samples trained after warm-up over all the seconds they took.

    This is the training-loop throughput of the whole invocation.  Unlike
    a median of per-run rates it weights each run by its length, so it
    does not jump between the fast and slow runs the majority workload
    alternates between as its four busy threads share two cores.
    """
    return sum(r.samples for r in records) / sum(r.seconds for r in records)


def per_layer(records: Sequence[RunRecord]) -> Dict[str, float]:
    """Per-layer metrics pooled over the ranks of every successful traced run."""
    traced = [r for r in records if r.ok and r.traced]
    plain = [r for r in records if r.ok and not r.traced]
    if not traced or not plain:
        return {}
    ranks = [rank for r in traced for rank in r.ranks]

    def spans(layer: str) -> List[float]:
        return [s * 1e3 for rank in ranks for s in rank["spans"].get(layer, ())]

    def values(name: str) -> List[float]:
        return [v for rank in ranks for v in rank["values"].get(name, ())]

    def mean(xs: List[float]) -> float:
        return float(np.mean(xs)) if xs else 0.0

    steps = sum(len(rank["steps"]) for rank in ranks)
    out: Dict[str, float] = {
        "setup.spawn_s": statistics.median(
            max(rank["spawn_s"] for rank in r.ranks) for r in traced
        ),
        "setup.exchange_build_s": statistics.median(
            max(sum(rank["spans"].get("setup.exchange_build", ())) for rank in r.ranks)
            for r in traced
        ),
    }
    for metric, layer, with_tail in (
        ("data.batch_ms", "data.batch", True),
        ("nn.fwd_bwd_ms", "nn.fwd_bwd", True),
        ("optim.step_ms", "optim.step", False),
        ("sgd.step_ms", "sgd.step", True),
        ("exchange.ms", "exchange", True),
        ("partial.reduce_ms", "partial.reduce", True),
        ("sync.allreduce_ms", "sync.allreduce", False),
        ("sharding.reduce_scatter_ms", "sharding.reduce_scatter", False),
        ("sharding.allgather_ms", "sharding.allgather", False),
        ("comm.send_ms", "comm.send", False),
    ):
        samples = spans(layer)
        out[f"{metric}.p50"] = float(np.median(samples)) if samples else 0.0
        if with_tail:
            out[f"{metric}.tail"] = tail(samples)[1]
            out[f"{metric}.n"] = len(samples)
    out["nn.fwd_bwd_rank_spread"] = statistics.median(
        ratio for r in traced for ratio in _rank_spread(r)
    )
    out["optim.state_bytes"] = statistics.median(
        max(rank["state_bytes"] or 0 for rank in r.ranks) for r in traced
    )
    out["exchange.wire_bytes_per_step"] = mean(values("exchange.wire_bytes"))
    out["exchange.included_share"] = mean(values("exchange.included"))
    out["exchange.num_active_mean"] = mean(values("exchange.num_active"))
    calls = sum(
        len(spans(layer))
        for layer in ("partial.reduce", "sync.allreduce",
                      "sharding.reduce_scatter", "sharding.allgather")
    )
    out["collectives.calls_per_step"] = calls / steps
    out["comm.msgs_per_step"] = len(spans("comm.send")) / steps
    out["comm.bytes_per_step"] = sum(values("comm.send_bytes")) / steps
    out["comm.recv_wait_ms_per_step"] = sum(spans("comm.recv_wait")) / steps
    out["comm.recv_timeouts"] = len(values("comm.recv_timeouts"))
    out["trace.overhead_share"] = 1.0 - samples_per_s(traced) / samples_per_s(plain)
    return out


def _rank_spread(record: RunRecord) -> List[float]:
    """Per training step, the slowest rank's forward+backward over the fastest's."""
    per_rank = [rank["spans"].get("nn.fwd_bwd", []) for rank in record.ranks]
    steps = min(len(times) for times in per_rank)
    return [
        max(times[i] for times in per_rank) / min(times[i] for times in per_rank)
        for i in range(steps)
    ]
