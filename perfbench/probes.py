"""Wrappers around each layer's public entry points, and what they record.

The benchmark changes nothing under ``src/`` and leaves the program's
own flight recorder off.  Instead, :class:`Probes` replaces a layer's
public functions with timing wrappers in the launcher process, before
``train_distributed`` forks its ranks, so every rank runs the unchanged
``train_distributed`` path with the wrappers inherited.  Each rank keeps
what it records in memory (:class:`RankLog`) and hands it back to the
launcher attached to its return value.

Two levels are recorded:

* the step clock, always on: entry and exit time and loss of every
  ``DistributedSGD.step``, the rank's optimizer-state bytes, peak RSS
  and BLAS thread count.  The end-to-end metrics come from it; it costs
  two clock reads per step.
* layer spans, only in traced runs: one duration per call into the
  loader, model, optimizer, SGD step, gradient exchange, partial and
  synchronous collectives, sharded collectives, communicator and
  set-up functions, plus the bytes and outcomes they report.

Every record is a ``list.append``, which is atomic under the GIL, so the
partial collectives' progress threads can record into the same log as
the training thread without a lock.
"""

from __future__ import annotations

import ctypes
import functools
import resource
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.collectives import sharding, sync
from repro.collectives.partial import PartialAllreduce
from repro.comm import backend
from repro.comm.communicator import CommTimeoutError, Communicator
from repro.data.loader import ShardedLoader
from repro.nn.optim import Optimizer
from repro.training import exchange as exchange_mod
from repro.training.distributed_sgd import DistributedSGD

perf_counter = time.perf_counter


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS would use, or ``None`` if unknown."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class RankLog:
    """What one rank records during one training run."""

    def __init__(self, traced: bool, launched: float) -> None:
        self.traced = traced
        self.launched = launched
        self.entered = perf_counter()
        #: (entry, exit) perf_counter of every DistributedSGD.step.
        self.steps: List[tuple] = []
        self.losses: List[float] = []
        self.optimizer: Optional[Optimizer] = None
        #: layer -> seconds per call (traced runs only).
        self.spans: Dict[str, List[float]] = defaultdict(list)
        #: name -> recorded values (bytes, flags, counts).
        self.values: Dict[str, List[float]] = defaultdict(list)
        self.forward_started: Optional[float] = None

    def finish(self) -> Dict[str, Any]:
        """A picklable snapshot for the launcher."""
        return {
            "spawn_s": self.entered - self.launched,
            "steps": self.steps,
            "losses": self.losses,
            "state_bytes": None if self.optimizer is None else self.optimizer.state_bytes(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "blas_threads": blas_threads(),
            "spans": dict(self.spans),
            "values": dict(self.values),
        }


class Probes:
    """Install the wrappers for one training run (use as a context manager).

    Parameters
    ----------
    model_class:
        The workload's model class, whose ``forward``/``backward`` are
        timed together with the loss between them.
    traced:
        Record layer spans as well as the step clock.
    """

    def __init__(self, model_class: type, traced: bool) -> None:
        self.model_class = model_class
        self.traced = traced
        #: This process's log while it runs a rank; ``None`` in the launcher.
        self.log: Optional[RankLog] = None
        #: One :meth:`RankLog.finish` snapshot per rank of the last launch.
        self.ranks: List[Dict[str, Any]] = []
        self._undo: List[tuple] = []

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Probes":
        self._patch_function(backend.launch, self._wrap_launch)
        self._patch_method(DistributedSGD, "step", self._wrap_sgd_step)
        if self.traced:
            self._install_spans()
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _install_spans(self) -> None:
        timer = self._timer
        self._patch_function(exchange_mod.build_exchange, lambda f: timer("setup.exchange_build", f))
        self._patch_method(ShardedLoader, "epoch_batches", self._wrap_epoch_batches)
        self._patch_method(self.model_class, "forward", self._wrap_forward)
        self._patch_method(self.model_class, "backward", self._wrap_backward)
        self._patch_method(Optimizer, "step", lambda f: timer("optim.step", f))
        self._patch_method(Optimizer, "step_windows", lambda f: timer("optim.step", f))
        for cls, name in (
            (exchange_mod.SynchronousExchange, "exchange"),
            (exchange_mod.PartialExchange, "exchange"),
            (exchange_mod.ShardedExchange, "exchange_update"),
        ):
            self._patch_method(cls, name, self._wrap_exchange)
        self._patch_method(PartialAllreduce, "reduce", lambda f: timer("partial.reduce", f))
        self._patch_function(sync.allreduce, lambda f: timer("sync.allreduce", f))
        self._patch_function(sharding.reduce_scatter, lambda f: timer("sharding.reduce_scatter", f))
        self._patch_function(sharding.allgather_flat, lambda f: timer("sharding.allgather", f))
        self._patch_method(Communicator, "send", self._wrap_send)
        self._patch_method(Communicator, "isend", self._wrap_send)
        # Communicator.recv delegates to recv_message, so timing
        # recv_message alone counts every blocking receive once.
        self._patch_method(Communicator, "recv_message", self._wrap_recv_message)

    def _patch_method(self, cls: type, name: str, make: Callable) -> None:
        if name not in vars(cls):
            raise AttributeError(f"{cls.__name__} does not define {name}")
        original = vars(cls)[name]
        setattr(cls, name, make(original))
        self._undo.append((cls, name, original))

    def _patch_function(self, original: Callable, make: Callable) -> None:
        """Replace ``original`` in every ``repro`` module that imported it."""
        wrapper = make(original)
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "repro" and not name.startswith("repro."):
                continue
            if vars(module).get(original.__name__) is original:
                setattr(module, original.__name__, wrapper)
                self._undo.append((module, original.__name__, original))

    # ----------------------------------------------------------- wrappers
    def _timer(self, layer: str, fn: Callable) -> Callable:
        probes = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            log = probes.log
            if log is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                log.spans[layer].append(perf_counter() - start)

        return timed

    def _wrap_launch(self, launch: Callable) -> Callable:
        probes = self

        @functools.wraps(launch)
        def probed_launch(fn, world_size, *args, **kwargs):
            launched = perf_counter()

            def rank_main(comm, *rank_args, **rank_kwargs):
                probes.log = RankLog(probes.traced, launched)
                output = fn(comm, *rank_args, **rank_kwargs)
                output.perfbench = probes.log.finish()
                return output

            outputs = launch(rank_main, world_size, *args, **kwargs)
            probes.ranks = [output.perfbench for output in outputs]
            return outputs

        return probed_launch

    def _wrap_sgd_step(self, step: Callable) -> Callable:
        probes = self

        @functools.wraps(step)
        def clocked_step(sgd, batch, *args, **kwargs):
            start = perf_counter()
            stats = step(sgd, batch, *args, **kwargs)
            end = perf_counter()
            log = probes.log
            log.steps.append((start, end))
            log.losses.append(stats.loss)
            log.optimizer = sgd.optimizer
            if log.traced:
                log.spans["sgd.step"].append(end - start)
            return stats

        return clocked_step

    def _wrap_epoch_batches(self, epoch_batches: Callable) -> Callable:
        probes = self

        @functools.wraps(epoch_batches)
        def timed_batches(loader, epoch):
            batches = epoch_batches(loader, epoch)
            if probes.log is None:
                yield from batches
                return
            spans = probes.log.spans["data.batch"]
            while True:
                start = perf_counter()
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                spans.append(perf_counter() - start)
                yield batch

        return timed_batches

    def _wrap_forward(self, forward: Callable) -> Callable:
        probes = self

        @functools.wraps(forward)
        def timed_forward(model, *args, **kwargs):
            # Evaluation also calls forward; only a forward followed by a
            # backward (a training step) closes a span.
            if probes.log is not None:
                probes.log.forward_started = perf_counter()
            return forward(model, *args, **kwargs)

        return timed_forward

    def _wrap_backward(self, backward: Callable) -> Callable:
        probes = self

        @functools.wraps(backward)
        def timed_backward(model, *args, **kwargs):
            result = backward(model, *args, **kwargs)
            log = probes.log
            if log is not None and log.forward_started is not None:
                log.spans["nn.fwd_bwd"].append(perf_counter() - log.forward_started)
                log.forward_started = None
            return result

        return timed_backward

    def _wrap_exchange(self, exchange: Callable) -> Callable:
        probes = self

        @functools.wraps(exchange)
        def timed_exchange(*args, **kwargs):
            log = probes.log
            if log is None:
                return exchange(*args, **kwargs)
            start = perf_counter()
            result = exchange(*args, **kwargs)
            log.spans["exchange"].append(perf_counter() - start)
            log.values["exchange.wire_bytes"].append(result.wire_bytes)
            log.values["exchange.included"].append(float(result.included))
            log.values["exchange.num_active"].append(result.num_active)
            return result

        return timed_exchange

    def _wrap_send(self, send: Callable) -> Callable:
        probes = self

        @functools.wraps(send)
        def timed_send(comm, payload, *args, **kwargs):
            log = probes.log
            if log is None:
                return send(comm, payload, *args, **kwargs)
            start = perf_counter()
            result = send(comm, payload, *args, **kwargs)
            log.spans["comm.send"].append(perf_counter() - start)
            log.values["comm.send_bytes"].append(_payload_nbytes(payload))
            return result

        return timed_send

    def _wrap_recv_message(self, recv_message: Callable) -> Callable:
        probes = self

        @functools.wraps(recv_message)
        def timed_recv_message(comm, *args, **kwargs):
            log = probes.log
            if log is None:
                return recv_message(comm, *args, **kwargs)
            start = perf_counter()
            try:
                return recv_message(comm, *args, **kwargs)
            except CommTimeoutError:
                log.values["comm.recv_timeouts"].append(1)
                raise
            finally:
                log.spans["comm.recv_wait"].append(perf_counter() - start)

        return timed_recv_message


def _payload_nbytes(payload: Any) -> int:
    """Array bytes in a send (tuples of arrays summed; metadata counts 0)."""
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_nbytes(item) for item in payload)
    return 0

