"""The repository benchmark: end-to-end training throughput, plus a traced per-layer run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ucf101-lstm-majority --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Each invocation trains the chosen workload repeatedly through the
public ``repro.training.train_distributed`` entry point for about
``--seconds`` seconds, after one warm-up run whose outputs are checked
but whose timings are not used.  Every training run draws fresh inputs
from ``--seed`` and its run index, and every run's outputs are checked.
With ``--trace 0`` the end-to-end metrics are medians over the runs;
with ``--trace 1`` untraced and traced runs alternate on the same inputs
and the per-layer metrics come from the traced ones.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in
turn and also prints the derived eager-vs-sync lines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per rank: two ranks on two cores, each starting two
# OpenBLAS threads, would measure the scheduler rather than the program.
# The ranks fork from this process and inherit the setting, which must be
# in place before NumPy is first imported (main() sets it first thing).
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: The paper's eager-SGD (majority) speedup over synch-SGD on UCF101 (Fig. 13).
PAPER_MAJORITY_SPEEDUP = 1.27


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' only checks that every path runs",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _input_seed(seed: int, index: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def measure_workload(name: str, seed: int, seconds: float, traced: bool, size: str):
    """Train ``name`` for about ``seconds``.

    Returns ``(warm-up record, measured records, comm backend)``.
    """
    from measure import train_once
    from workloads import build

    warmup = train_once(build(name, _input_seed(seed, 0), size), False)
    records = []
    started = time.perf_counter()
    index = 1
    while True:
        job = build(name, _input_seed(seed, index), size)
        for run_traced in ((False, True) if traced else (False,)):
            records.append(train_once(job, run_traced))
        elapsed = time.perf_counter() - started
        if elapsed * (index + 1) / index > seconds:
            return warmup, records, job.config.comm_backend
        index += 1


def _environment(backend: str, records) -> dict:
    import numpy as np

    from repro import __version__

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        blas = None
    sha = None  # a source checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cpu_count": os.cpu_count(),
        "sched_affinity": len(os.sched_getaffinity(0)),
        "backend": backend,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas,
        "blas_env": BLAS_ENV,
        "rank_blas_threads": sorted(
            {rank["blas_threads"] for r in records for rank in r.ranks}, key=str
        ),
        "git_sha": sha,
        "repro_version": __version__,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _report(name: str, warmup, records, backend: str, traced: bool) -> dict:
    """Print one workload's block; return its result and metrics."""
    from measure import (
        END_TO_END, MEDIAN_METRICS, PER_LAYER, end_to_end, per_layer, quartiles, tail,
    )

    attempted = [warmup, *records]
    failed = sum(not r.ok for r in attempted)
    print(f"== {name}: {len(records)} measured training runs + 1 warm-up, {failed} failed")
    print("environment: " + json.dumps(_environment(backend, attempted), sort_keys=True))
    e2e = end_to_end(records)
    e2e["success_share"] = 1.0 - failed / len(attempted)
    ok_plain = [r for r in records if r.ok and not r.traced]
    for metric, unit in END_TO_END.items():
        if metric in e2e:
            line = f"  {metric:<20} {_fmt(e2e[metric]):>12} {unit}"
            if metric == "samples_per_s":
                q1, _, q3 = quartiles([r.samples / r.seconds for r in ok_plain])
                line += f"   (pooled over {len(ok_plain)} runs, per-run IQR {_fmt(q1)}..{_fmt(q3)})"
            elif metric in MEDIAN_METRICS:
                q1, _, q3 = quartiles([getattr(r, metric) for r in ok_plain])
                line += f"   (median of {len(ok_plain)} runs, IQR {_fmt(q1)}..{_fmt(q3)})"
            print(line)
    print(f"  {'failed_share':<20} {_fmt(failed / len(attempted)):>12} share")
    for record in attempted:
        if record.problems:
            print(f"  failure: {record.problems[0].strip().splitlines()[-1]}")
            print(record.problems[0], file=sys.stderr)
    layers = per_layer(records) if traced else {}
    for metric, unit in PER_LAYER.items():
        if metric in layers:
            print(f"  {metric:<34} {_fmt(layers[metric]):>12} {unit}")
    for layer in ("data.batch", "nn.fwd_bwd", "sgd.step", "exchange", "partial.reduce"):
        samples = [s for r in records if r.ok and r.traced for rank in r.ranks
                   for s in rank["spans"].get(layer, ())]
        if samples:
            print(f"  ({layer} tail is p{tail(samples)[0]:g} of {len(samples)} samples)")
    metrics, units = (layers, PER_LAYER) if traced else (e2e, END_TO_END)
    return {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {m: {"value": metrics[m], "unit": u} for m, u in units.items() if m in metrics},
        "e2e": e2e,
        "layers": layers,
    }


def _derived(results: dict) -> None:
    """Ratios reported beside the paper's; not gated."""
    eager = results["ucf101-lstm-majority"]["e2e"]
    sync = results["ucf101-lstm-sync"]["e2e"]
    if "samples_per_s" in eager and "samples_per_s" in sync:
        print(
            f"derived: eager-vs-sync speedup (ucf101 majority / sync samples_per_s) "
            f"{eager['samples_per_s'] / sync['samples_per_s']:.3f}x "
            f"(paper Fig. 13: {PAPER_MAJORITY_SPEEDUP}x)"
        )
        print(
            f"derived: eager-vs-sync final_loss ratio (majority / sync) "
            f"{eager['final_loss'] / sync['final_loss']:.3f}"
        )
    for name, result in results.items():
        if "trace.overhead_share" in result["layers"]:
            print(f"derived: trace.overhead_share {name} "
                  f"{result['layers']['trace.overhead_share']:.4f}")


def _children() -> list:
    """Process ids of this process's children, exited ones included."""
    pids = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            pids.update(int(pid) for pid in (task / "children").read_text().split())
        except OSError:  # the thread ended while being read
            pass
    return sorted(pids)


def _stop_children(grace_s: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Importing the program starts multiprocessing's resource tracker (the
    shm backend's availability probe creates a tracked segment), a helper
    process that would otherwise outlive this one.  Closing its pipe ends
    it; anything else still running after ``grace_s`` is killed.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker = tracker._resource_tracker
        with tracker._lock:
            if tracker._fd is not None:
                os.close(tracker._fd)
                tracker._fd = None
    deadline = time.monotonic() + grace_s
    while True:
        pending = []
        for pid in _children():
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == 0:
                    pending.append(pid)
            except ChildProcessError:  # not ours to wait for, or already reaped
                pass
        if not pending:
            return
        if time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                except (ProcessLookupError, ChildProcessError):
                    pass
            return
        time.sleep(0.02)


def main(argv=None) -> int:
    os.environ.update(BLAS_ENV)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        return _main(argv)
    finally:
        _stop_children()


def _main(argv) -> int:
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    args = _parse_args(argv, list(WORKLOADS))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        warmup, records, backend = measure_workload(
            name, args.seed, args.seconds, bool(args.trace), args.size
        )
        results[name] = _report(name, warmup, records, backend, bool(args.trace))
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        _derived(results)
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items() for metric, value in r["metrics"].items()
            },
        }
    else:
        result = {k: results[args.workload][k] for k in keys}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
