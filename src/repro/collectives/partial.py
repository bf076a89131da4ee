"""Partial collective operations: solo, majority and quorum allreduce.

This module is the runtime half of the paper's contribution.  Each rank
owns a :class:`PartialAllreduce` object which spawns a *progress thread*
(the communication library of Section 4.3) and exposes a single blocking
call to the application:

    ``result = partial.reduce(gradient)``

The call semantics follow Algorithm 2 / Fig. 7 of the paper:

* the gradient is added into the rank's **send buffer** (so gradients that
  miss their round are not lost: they become *stale gradients* contributed
  to a later round);
* the current round is *activated* — eagerly by this rank in solo mode, by
  the randomly designated initiator in majority mode, or once ``Q`` ranks
  have arrived in quorum mode;
* the call returns the reduced value of the current round together with
  bookkeeping (whether this rank's fresh gradient was included, how many
  ranks contributed fresh data — the "number of active processes" of
  Fig. 9 — and who initiated).

The activation phase is a dissemination broadcast (union of ``P`` binomial
trees; see :func:`repro.collectives.schedules.build_activation_schedule`)
carried on the dedicated ``activation`` channel; the reduction itself is a
recursive-doubling allreduce among the progress threads on the ``lib``
channel.  Progress threads always participate immediately, so a slow
application thread never delays the collective — it merely contributes
null (or stale) data, which is exactly the paper's relaxation.

Between rounds the progress thread waits in **one blocking receive** on
its activation mailbox.  Four events wake it:

* the application thread's arrival — :meth:`PartialAllreduce.reduce`
  delivers an ``"arrive"`` message to its own rank on the round's tag;
* a peer's ``"activate"`` message (or, for the quorum coordinator, a
  peer's ``"arrival"``);
* :meth:`PartialAllreduce.close`, which delivers a ``"stop"`` message;
* an abort of the transport, which closes the mailbox: the resulting
  :class:`~repro.comm.mailbox.MailboxClosed` becomes the collective's
  failure, so a blocked :meth:`~PartialAllreduce.reduce` raises at once.

The wake-ups are same-rank deliveries through the transport's router (not
:meth:`Communicator.send`, so tracing and probes do not count them as wire
traffic); no thread polls, so an idle collective takes no CPU — and no
GIL — from the rank's compute.
"""

from __future__ import annotations

import enum
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm import tags
from repro.comm.communicator import Communicator
from repro.comm.mailbox import MailboxClosed
from repro.comm.message import Message
from repro.comm.reduce_ops import ReduceOp, SUM, get_op
from repro.comm.router import Channel
from repro.collectives.sync import allreduce_recursive_doubling
from repro.obs import recorder as _obs
from repro.utils.rng import seeded_rng

# Tag bases come from the global tag-region map (one tag per round in
# each region); the underscored aliases are kept for existing callers.
_ACTIVATION_TAG_BASE = tags.PARTIAL_ACTIVATION_TAG_BASE
_ARRIVAL_TAG_BASE = tags.PARTIAL_ARRIVAL_TAG_BASE


class PartialMode(str, enum.Enum):
    """Which partial-collective flavour to run."""

    #: Wait-free: the first process to arrive initiates (Section 4.1).
    SOLO = "solo"
    #: A randomly designated initiator guarantees that on average at least
    #: half of the processes contribute fresh data (Section 4.2).
    MAJORITY = "majority"
    #: Generalised quorum: the round is initiated once ``quorum`` ranks
    #: have arrived (the solo--majority--full spectrum mentioned in the
    #: paper's conclusions).
    QUORUM = "quorum"


@dataclass(frozen=True)
class PartialAllreduceResult:
    """Outcome of one partial allreduce round for one rank."""

    #: Index of the completed round.
    round_index: int
    #: The reduced vector (divided by the world size when ``average``).
    data: np.ndarray
    #: Whether this rank's freshly computed gradient was part of the round
    #: (the ``s_i^t`` bit of the ADS object in Section 5.1.1).
    included: bool
    #: Number of processes that contributed fresh (non-stale, non-null)
    #: data to this round — the "number of active processes" of Fig. 9.
    num_active: int
    #: Rank that initiated the round (-1 if unknown on this rank).
    initiator: int
    #: Seconds this rank's application thread spent blocked in the call.
    wait_time: float = 0.0


@dataclass
class _RoundRecord:
    """Internal per-round bookkeeping kept by the progress thread."""

    result: np.ndarray
    num_active: int
    initiator: int
    swap_marker: int


class PartialAllreduce:
    """Per-rank handle for an asynchronously progressed partial allreduce.

    Parameters
    ----------
    comm:
        Any communicator of the target world; the object derives its own
        communicators on the ``lib`` and ``activation`` channels from it,
        leaving the caller's channel untouched.
    shape:
        Shape of the contribution vector (e.g. the flattened gradient).
    mode:
        :class:`PartialMode` or its string value.
    average:
        Divide the reduced sum by the world size (Algorithm 2, line 6).
    op:
        Reduction operator (default: sum).
    seed:
        Seed of the shared PRNG used to designate initiators in majority
        mode; it must be identical on every rank (the paper achieves
        consensus "by using the same seed for all the processes").
    quorum:
        Required number of arrivals in quorum mode.
    overwrite_recvbuff:
        Paper-faithful receive-buffer semantics (default).  The persistent
        schedule of Section 4.1.1 reuses a single receive buffer, so a
        process that lags behind by more than one round only sees the
        *latest* completed round's result ("the data in the receive buffer
        will be overwritten and only the latest data can be seen"), which
        is what makes replicas drift apart under severe imbalance and why
        eager-SGD periodically re-synchronises the models.  Set to
        ``False`` for exact per-round results (an ablation of that design
        choice).
    channel_suffix:
        Suffix appended to the ``lib``/``activation`` channel names.  One
        :class:`PartialAllreduce` per channel pair: the fused gradient
        exchange opens a distinct suffix per fusion bucket so per-bucket
        rounds can progress independently without tag cross-talk.
    n_chunks:
        Pipeline the background reduction in this many segments (see
        :func:`repro.collectives.sync.allreduce_recursive_doubling`).
        Only effective for elementwise-uniform ops (sum/avg): a composite
        max/min/prod payload needs the arrival counter kept in one piece,
        so those ops fall back to unsegmented rounds.
    """

    def __init__(
        self,
        comm: Communicator,
        shape: Tuple[int, ...] | int,
        mode: PartialMode | str = PartialMode.SOLO,
        *,
        average: bool = True,
        op: ReduceOp | str = SUM,
        seed: int = 12345,
        quorum: Optional[int] = None,
        overwrite_recvbuff: bool = True,
        dtype=np.float64,
        channel_suffix: str = "",
        n_chunks: int = 1,
    ) -> None:
        self.mode = PartialMode(mode)
        self.comm_lib = comm.dup(Channel.LIB + channel_suffix)
        self.comm_act = comm.dup(Channel.ACTIVATION + channel_suffix)
        if n_chunks < 1:
            raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
        self.n_chunks = int(n_chunks)
        self.rank = comm.rank
        self.size = comm.size
        self.shape = (shape,) if isinstance(shape, int) else tuple(shape)
        self.average = bool(average)
        self.op = get_op(op)
        self._payload_op = self._make_payload_op(self.op)
        self.dtype = dtype

        if np.issubdtype(np.dtype(self.dtype), np.floating):
            # The piggybacked arrival counter (see _run_round) is summed
            # in this dtype; its sums-of-ones stay exact only up to
            # 2^(mantissa+1) (2048 for float16, 2^53 for float64).
            exact_limit = 2 ** (np.finfo(np.dtype(self.dtype)).nmant + 1)
            if self.size > exact_limit:
                raise ValueError(
                    f"world size {self.size} exceeds the exact-integer range "
                    f"of dtype {np.dtype(self.dtype).name} ({exact_limit}); "
                    f"the active-process counter would be silently absorbed"
                )
        if self.mode is PartialMode.QUORUM:
            if quorum is None:
                quorum = max(1, self.size // 2)
            if not 1 <= quorum <= self.size:
                raise ValueError(f"quorum must be in [1, {self.size}], got {quorum}")
        self.quorum = quorum
        self.overwrite_recvbuff = bool(overwrite_recvbuff)

        # Shared PRNG stream for initiator designation (majority / quorum
        # coordinator).  All ranks draw the same sequence.
        self._initiator_rng = seeded_rng(seed)

        # --- state shared between the application thread and the
        # --- progress thread, guarded by _lock / _cond.
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._send_acc = np.zeros(self.shape, dtype=self.dtype)
        self._add_counter = 0
        self._last_arrival_round = -1
        self._rounds_done = 0
        self._records: Dict[int, _RoundRecord] = {}
        self._latest_record: Optional[_RoundRecord] = None
        self._caller_round = -1
        self._stop = False
        self._failure: Optional[BaseException] = None

        # Statistics.
        self.nap_history: List[int] = []
        self.included_history: List[bool] = []
        self.initiated_rounds: List[int] = []
        self.stale_norm_history: List[float] = []

        self._depth = max(1, int(math.ceil(math.log2(self.size)))) if self.size > 1 else 0
        # The progress thread blocks on this mailbox directly: its wait
        # has no timeout (the communicator applies a default one).
        self._act_box = self.comm_act.router.mailbox(self.rank, self.comm_act.channel)
        # The progress thread inherits the owning rank's flight recorder
        # (thread-local bindings do not propagate to spawned threads).
        self._recorder = _obs.current()
        self._thread = threading.Thread(
            target=self._progress_loop,
            name=f"partial-allreduce-rank{self.rank}",
            daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # application-thread API
    # ------------------------------------------------------------------
    def reduce(
        self, contribution: np.ndarray, timeout: Optional[float] = 120.0
    ) -> PartialAllreduceResult:
        """Contribute to the next round and return that round's result.

        This is the ``partial_allreduce`` call of Algorithm 2.  The call
        blocks until the round completes, but the round can complete
        without this rank's fresh contribution (which then stays in the
        send buffer as a stale gradient for the following round).
        """
        contribution = np.asarray(contribution, dtype=self.dtype)
        if contribution.shape != self.shape:
            raise ValueError(
                f"contribution shape {contribution.shape} does not match "
                f"collective shape {self.shape}"
            )
        start = time.perf_counter()
        with self._cond:
            self._raise_if_failed()
            self._caller_round += 1
            round_index = self._caller_round
            # Add the fresh gradient to the send buffer; whatever was left
            # there from previous rounds (stale gradients) rides along.
            self._send_acc += contribution
            self._add_counter += 1
            my_marker = self._add_counter
            self._last_arrival_round = round_index
            if round_index >= self._rounds_done:
                # The round is still open: wake the progress thread,
                # which may (or, for majority, may not) initiate it.
                self._wake("arrive", round_index)
            # Wait until the progress thread has finished the round.
            deadline = None if timeout is None else time.monotonic() + timeout
            while self._rounds_done <= round_index:
                self._raise_if_failed()
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"rank {self.rank}: partial allreduce round {round_index} "
                        f"did not complete within {timeout}s"
                    )
                self._cond.wait(timeout=remaining)
            # Each round is consumed exactly once by the application
            # thread; popping keeps memory bounded over long trainings.
            record = self._records.pop(round_index)
            included = my_marker <= record.swap_marker
            if self.overwrite_recvbuff:
                # Persistent-schedule semantics: the receive buffer holds
                # the result of the *latest* completed execution, so a
                # rank that lagged behind reads newer data than its own
                # round (Section 5, "only the latest data ... can be seen").
                effective = record if self._latest_record is None else self._latest_record
            else:
                effective = record
        wait_time = time.perf_counter() - start
        self.included_history.append(included)
        result = effective.result
        if self.average:
            result = result / self.size
        return PartialAllreduceResult(
            round_index=round_index,
            data=np.array(result, copy=True),
            included=included,
            num_active=effective.num_active,
            initiator=effective.initiator,
            wait_time=wait_time,
        )

    def pending_stale_norm(self) -> float:
        """L2 norm of the gradient data currently waiting in the send buffer."""
        with self._lock:
            return float(np.linalg.norm(self._send_acc))

    @property
    def rounds_completed(self) -> int:
        with self._lock:
            return self._rounds_done

    def close(self, timeout: float = 10.0) -> None:
        """Stop the progress thread.  Call after the last ``reduce``."""
        with self._cond:
            self._stop = True
            self._cond.notify_all()
            if self._thread.is_alive():
                # The thread waits on the open round's tag; if it is
                # mid-round instead, it sees ``_stop`` before its next wait.
                self._wake("stop", self._rounds_done)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "PartialAllreduce":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _wake(self, kind: str, round_index: int) -> None:
        """Deliver a ``kind`` message to this rank's progress thread.

        Goes through the router, not :meth:`Communicator.send`: it is a
        local signal, not wire traffic for the flight recorder to count.
        On an aborted transport it is dropped — the blocked progress
        thread is woken by the closed mailbox instead.
        """
        message = Message(
            source=self.rank, dest=self.rank,
            tag=self._activation_tag(round_index),
            payload=(kind, round_index, -1, self.rank),
        )
        try:
            self.comm_act.router.deliver(message, self.comm_act.channel)
        except MailboxClosed:
            pass

    def _raise_if_failed(self) -> None:
        if self._failure is not None:
            raise RuntimeError(
                f"rank {self.rank}: partial-allreduce progress thread failed"
            ) from self._failure

    # ------------------------------------------------------------------
    # active-process counter encode/decode
    # ------------------------------------------------------------------
    @staticmethod
    def _make_payload_op(data_op: ReduceOp) -> ReduceOp:
        """Operator for the ``[data..., counter]`` reduction payload.

        The data elements are combined with ``data_op`` while the trailing
        arrival counter is always summed — a max/min/prod data op would
        otherwise collapse the count of contributing processes to a
        meaningless 0/1.
        """
        if data_op.fn is SUM.fn or data_op.name in ("sum", "avg"):
            return data_op

        def combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            a = np.asarray(a)
            b = np.asarray(b)
            return np.concatenate(
                [data_op.fn(a[:-1], b[:-1]), np.atleast_1d(a[-1] + b[-1])]
            )

        return ReduceOp(f"{data_op.name}+count", combine, data_op.identity)

    def _decode_num_active(self, raw: float) -> int:
        """Decode (and validate) the reduced arrival counter."""
        num_active = int(round(raw))
        if abs(raw - num_active) > 1e-6 or not 0 <= num_active <= self.size:
            raise RuntimeError(
                f"rank {self.rank}: corrupted active-process counter "
                f"{raw!r} (world size {self.size}); the counter must reduce "
                f"to an exact integer in [0, {self.size}]"
            )
        return num_active

    # ------------------------------------------------------------------
    # progress thread
    # ------------------------------------------------------------------
    def _activation_tag(self, round_index: int) -> int:
        return tags.partial_activation_tag(round_index)

    def _arrival_tag(self, round_index: int) -> int:
        return tags.partial_arrival_tag(round_index)

    def _designated_initiator(self, round_index: int) -> int:
        """Initiator (majority) / coordinator (quorum) of ``round_index``.

        Consensus across ranks comes from the shared seed: every rank
        draws the same pseudo-random sequence (Section 4.2).
        """
        return int(self._initiator_rng.integers(0, self.size))

    def _progress_loop(self) -> None:
        _obs.bind(self._recorder)
        try:
            round_index = 0
            while True:
                if not self._run_round(round_index):
                    return
                round_index += 1
        except BaseException as exc:  # noqa: BLE001 - reported to the app thread
            with self._cond:
                self._failure = exc
                self._cond.notify_all()

    # -- round phases ---------------------------------------------------
    def _run_round(self, round_index: int) -> bool:
        """Execute one round; returns False when asked to stop."""
        designated = -1
        if self.mode in (PartialMode.MAJORITY, PartialMode.QUORUM):
            designated = self._designated_initiator(round_index)

        activation = self._wait_for_activation(round_index, designated)
        if activation is None:
            return False
        initiator, forward_from_distance = activation
        _obs.instant(
            "partial-activation", "partial", round=round_index,
            initiator=initiator, external=forward_from_distance >= 0,
        )

        # Forward the activation along the dissemination tree.
        self._forward_activation(round_index, initiator, forward_from_distance)

        # Atomically take the send buffer: everything accumulated so far
        # (fresh gradient and/or stale gradients) is this round's
        # contribution; late additions stay for the next round.
        with self._lock:
            contribution = self._send_acc.copy()
            self._send_acc[:] = 0
            swap_marker = self._add_counter
            fresh = self._last_arrival_round >= round_index
            stale_norm = float(np.linalg.norm(contribution))
            self.stale_norm_history.append(stale_norm)
        _obs.instant(
            "partial-staleness", "partial", round=round_index,
            fresh=fresh, stale_norm=stale_norm,
        )

        # Piggyback the number of active processes onto the reduction.  The
        # counter element is always combined with SUM — even when the data
        # op is max/min/prod — and is decoded *before* any averaging (the
        # ``average`` division in :meth:`reduce` applies to the data part
        # only), so the count stays an exact integer in the collective's
        # dtype: sums of ones are exact up to 2^(mantissa+1) — 2^53 for
        # float64, 2048 for a float16 (compressed) collective — and the
        # constructor rejects world sizes beyond that range.
        # Keep the collective's dtype: concatenating with a Python list
        # would promote a narrow (compressed) send buffer to float64 and
        # silently fatten the wire payload.
        payload = np.concatenate(
            [contribution.reshape(-1),
             np.asarray([1.0 if fresh else 0.0], dtype=self.dtype)]
        )
        # Chunk pipelining slices the payload at arbitrary segment
        # boundaries, which is only sound when the operator treats every
        # element alike; the composite non-sum op addresses the counter
        # as payload[-1] and therefore needs whole-payload rounds.
        chunks = self.n_chunks if self._payload_op is self.op else 1
        reduced = allreduce_recursive_doubling(
            self.comm_lib, payload, op=self._payload_op, n_chunks=chunks
        )
        result = np.asarray(reduced[:-1]).reshape(self.shape)
        num_active = self._decode_num_active(float(reduced[-1]))
        self.nap_history.append(num_active)
        _obs.counter("partial-num-active", num_active, cat="partial")

        with self._cond:
            record = _RoundRecord(
                result=result,
                num_active=num_active,
                initiator=initiator,
                swap_marker=swap_marker,
            )
            self._records[round_index] = record
            self._latest_record = record
            self._rounds_done = round_index + 1
            self._cond.notify_all()
        return True

    def _wait_for_activation(
        self, round_index: int, designated: int
    ) -> Optional[Tuple[int, int]]:
        """Block until the round is activated.

        Returns ``(initiator, incoming_distance_class)`` where the distance
        class is ``-1`` for internal activation, or ``None`` when the
        collective is being shut down.  Each pass is one blocking receive
        of any message (see the module docstring for what wakes it); a
        closed mailbox raises :class:`MailboxClosed` out of the progress
        thread.

        Messages of earlier rounds are dropped here, so they never pile
        up: duplicate activations (solo mode: several initiators),
        ``"arrive"`` and ``"stop"`` signals that found their round already
        running, and quorum arrivals that came after the quorum was met.
        No message of a *later* round can be queued yet: no peer finishes
        this round without this rank, and the application thread enters
        the next round only after this one completes.
        """
        with self._lock:
            if self._stop:
                return None
        coordinator = self.mode is PartialMode.QUORUM and self.rank == designated
        arrivals = 0
        while True:
            kind, msg_round, distance, origin = self._act_box.get().payload
            if msg_round != round_index:
                continue
            if kind == "activate":
                return (int(origin), int(distance))
            if kind == "stop":
                return None
            # An "arrive" from the application thread, or (coordinator
            # only) a peer's "arrival".  Solo initiates at once; majority
            # only on the designated rank; quorum forwards the arrival to
            # the coordinator, which initiates once it has counted enough.
            if coordinator:
                arrivals += 1
                if arrivals >= int(self.quorum or 1):
                    return (self.rank, -1)
            elif self.mode is PartialMode.QUORUM:
                self.comm_act.send(
                    ("arrival", round_index, -1, self.rank),
                    designated,
                    tag=self._arrival_tag(round_index),
                )
            elif self.mode is PartialMode.SOLO or self.rank == designated:
                return (self.rank, -1)

    def _forward_activation(
        self, round_index: int, initiator: int, incoming_distance: int
    ) -> None:
        """Send activation messages along the binomial broadcast tree.

        A rank activated via distance class ``k`` forwards to the ranks at
        offsets ``2^j`` beyond it for ``j > k``; the initiator (``k == -1``)
        forwards to every distance class.  Offsets are measured from the
        initiator and **never wrap**: a rank only forwards while
        ``offset + 2^j < P``, so each offset in ``[1, P)`` has exactly one
        parent (strip the top set bit) and activation reaches every rank
        under *any* message delivery order.  The earlier ``mod P`` variant
        aliased two tree positions onto one rank at non-power-of-two sizes;
        a rank whose first activation arrived via the aliased (higher)
        class then skipped its low-class forwards and could strand part of
        the world — found by the static schedule verifier's delivery-order
        exploration (``repro.analysis.schedule_verifier``).
        """
        act_tag = self._activation_tag(round_index)
        offset = (self.rank - initiator) % self.size
        for j in range(incoming_distance + 1, self._depth):
            target = offset + (1 << j)
            if target >= self.size:
                break
            dest = (initiator + target) % self.size
            self.comm_act.send(("activate", round_index, j, initiator), dest, tag=act_tag)


class SoloAllreduce(PartialAllreduce):
    """Wait-free partial allreduce: any process triggers the round."""

    def __init__(self, comm: Communicator, shape, **kwargs) -> None:
        kwargs.pop("mode", None)
        super().__init__(comm, shape, mode=PartialMode.SOLO, **kwargs)


class MajorityAllreduce(PartialAllreduce):
    """Partial allreduce whose initiator is randomly designated each round.

    Because every rank is equally likely to be designated, the expected
    number of processes arriving before the initiator is ``P/2``: on
    average at least half of the processes contribute fresh gradients
    (Section 4.2).
    """

    def __init__(self, comm: Communicator, shape, **kwargs) -> None:
        kwargs.pop("mode", None)
        super().__init__(comm, shape, mode=PartialMode.MAJORITY, **kwargs)


class QuorumAllreduce(PartialAllreduce):
    """Partial allreduce that waits for an explicit number of arrivals.

    This implements the solo--majority--full spectrum sketched in the
    paper's conclusions: ``quorum=1`` approximates solo, ``quorum=P/2``
    gives a hard (not just statistical) majority guarantee, ``quorum=P``
    degenerates to a synchronous allreduce.
    """

    def __init__(self, comm: Communicator, shape, quorum: int, **kwargs) -> None:
        kwargs.pop("mode", None)
        super().__init__(comm, shape, mode=PartialMode.QUORUM, quorum=quorum, **kwargs)


def make_partial_allreduce(
    comm: Communicator,
    shape,
    mode: PartialMode | str,
    **kwargs,
) -> PartialAllreduce:
    """Factory selecting the partial-allreduce flavour by name."""
    mode = PartialMode(mode)
    if mode is PartialMode.SOLO:
        return SoloAllreduce(comm, shape, **kwargs)
    if mode is PartialMode.MAJORITY:
        return MajorityAllreduce(comm, shape, **kwargs)
    quorum = kwargs.pop("quorum", None)
    if quorum is None:
        raise ValueError(f"mode {mode!r} requires a 'quorum' argument, got {kwargs!r}")
    return QuorumAllreduce(comm, shape, quorum=quorum, **kwargs)
