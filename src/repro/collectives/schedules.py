"""Schedule builders for collective operations.

These functions build the per-rank :class:`~repro.schedule.Schedule`
objects described in Section 4 of the paper:

* the **activation broadcast** used by solo/majority collectives — a
  dissemination pattern equivalent to the union of ``P`` binomial trees,
  one rooted at every rank, so that *any* rank can be the initiator using
  the same schedule;
* a **recursive-doubling allreduce**;
* a complete **solo allreduce** (activation + allreduce), the schedule of
  Fig. 6.

The builders return plain schedules; executing them is the job of
:class:`repro.schedule.ScheduleExecutor` (synchronous collectives) or of
the progress thread in :mod:`repro.collectives.partial` (asynchronous
partial collectives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.comm import tags
from repro.comm.reduce_ops import ReduceOp, get_op
from repro.collectives.topology import (
    is_power_of_two,
    tree_depth,
)
from repro.schedule.graph import Schedule
from repro.schedule.ops import DepMode, TriggerOp

#: Buffer holding the local contribution of this rank.
SEND_BUFFER = "sendbuff"
#: Buffer holding the collective's result (overwritten by each execution).
RECV_BUFFER = "recvbuff"
#: Intermediate accumulator used by the reduction.
ACC_BUFFER = "acc"
#: Name of the internal-activation trigger operation.
INTERNAL_ACTIVATION = "N0_internal_activation"
#: Name of the NOP signalling that the rank is activated.
ACTIVATED = "N1_activated"
#: Name of the NOP signalling that the collective result is available.
COMPLETED = "N2_completed"


@dataclass(frozen=True)
class ActivationNames:
    """Names of the operations created by :func:`build_activation_schedule`."""

    internal: str
    activated: str
    receives: List[str]
    sends: List[str]


def _dissemination_depth(size: int) -> int:
    """Number of distance classes (2^0, 2^1, ...) needed to cover ``size`` ranks."""
    return max(1, int(math.ceil(math.log2(size)))) if size > 1 else 0


def build_activation_schedule(
    schedule: Schedule,
    rank: int,
    size: int,
    tag: int,
) -> ActivationNames:
    """Add the activation phase (Fig. 6, left) to ``schedule``.

    The pattern is a dissemination broadcast on relative distances
    ``+2^k mod P``: rank ``i`` may receive the activation from
    ``(i - 2^k) mod P`` (operation ``R_k``) and forwards it to
    ``(i + 2^j) mod P`` for every ``j > k`` (operations ``S_j``), or to all
    distances when it is the initiator.  This is the union of ``P``
    binomial trees, one rooted at every rank, so the same schedule works
    whoever initiates; it also covers non-power-of-two worlds.

    The caller fires the returned ``internal`` trigger op to initiate, or
    lets an incoming activation message drive the schedule instead.
    """
    depth = _dissemination_depth(size)
    internal = schedule.add(TriggerOp(INTERNAL_ACTIVATION))
    recv_names: List[str] = []
    send_names: List[str] = []

    for k in range(depth):
        source = (rank - (1 << k)) % size
        recv_names.append(
            schedule.recv(
                f"R{k}_activation_from_{source}",
                source=source,
                tag=tag,
                buffer=f"_activation_msg_{k}",
            ).name
        )

    for k in range(depth):
        dest = (rank + (1 << k)) % size
        # Fires on internal activation, or when the activation arrived via
        # a strictly smaller distance class (OR dependency).
        triggers = [internal.name] + recv_names[:k]
        send_names.append(
            schedule.send(
                f"S{k}_activation_to_{dest}",
                dest=dest,
                tag=tag,
                payload_fn=lambda buffers: ("activate", tag),
                after=triggers,
                dep_mode=DepMode.OR,
            ).name
        )

    activated = schedule.nop(
        ACTIVATED,
        after=[internal.name] + recv_names,
        dep_mode=DepMode.OR,
    )
    return ActivationNames(
        internal=internal.name,
        activated=activated.name,
        receives=recv_names,
        sends=send_names,
    )


def build_recursive_doubling_allreduce_schedule(
    schedule: Schedule,
    rank: int,
    size: int,
    tag_base: int,
    op: ReduceOp | str = "sum",
    after: Optional[str] = None,
    send_buffer: str = SEND_BUFFER,
    recv_buffer: str = RECV_BUFFER,
) -> str:
    """Add a recursive-doubling allreduce to ``schedule``.

    The reduction starts from the *current* contents of ``send_buffer``
    when the op chain fires (this is what lets partial collectives pick up
    stale or null contributions).  The final combined value is written to
    ``recv_buffer`` and the name of the completion NOP is returned.

    Power-of-two world sizes only — the partial collectives in the paper
    (and their evaluation at 8/32/64 processes) use power-of-two worlds;
    other sizes should use :func:`repro.collectives.sync.allreduce`.
    """
    if not is_power_of_two(size):
        raise ValueError(
            f"schedule-based recursive doubling requires a power-of-two world, got {size}"
        )
    reduce_op = get_op(op)

    def _init_acc(buffers: Dict[str, object]) -> None:
        value = buffers.get(send_buffer)
        if value is None:
            raise KeyError(f"allreduce schedule: buffer {send_buffer!r} is unset")
        buffers[ACC_BUFFER] = np.array(value, dtype=np.float64, copy=True)

    init = schedule.compute(
        "AR_init_acc", _init_acc, after=[after] if after else []
    )
    prev = init.name
    num_rounds = int(math.log2(size))
    for k in range(num_rounds):
        partner = rank ^ (1 << k)
        tag = tag_base + 1 + k
        send = schedule.send(
            f"AR_S{k}_to_{partner}",
            dest=partner,
            tag=tag,
            payload_fn=lambda buffers: np.array(buffers[ACC_BUFFER], copy=True),
            after=[prev],
        )
        recv = schedule.recv(
            f"AR_R{k}_from_{partner}",
            source=partner,
            tag=tag,
            buffer=ACC_BUFFER,
            combine=lambda acc, incoming, _op=reduce_op: _op(acc, incoming),
            after=[send.name],
        )
        prev = recv.name

    def _finalize(buffers: Dict[str, object]) -> None:
        buffers[recv_buffer] = np.asarray(buffers[ACC_BUFFER])

    done = schedule.compute("AR_finalize", _finalize, after=[prev])
    completed = schedule.nop(COMPLETED, after=[done.name])
    return completed.name


def build_solo_allreduce_schedule(
    rank: int,
    size: int,
    round_index: int,
    op: ReduceOp | str = "sum",
    activation_tag_base: int = tags.SOLO_ACTIVATION_TAG_BASE,
    reduction_tag_base: int = tags.SOLO_REDUCTION_TAG_BASE,
    tags_per_round: int = tags.SOLO_TAGS_PER_ROUND,
    name: Optional[str] = None,
) -> Schedule:
    """Build the complete solo-allreduce schedule of Fig. 6 for one rank.

    The schedule is composed of the activation phase and a
    recursive-doubling allreduce, with the allreduce chained after the
    "activated" NOP.  Tags are namespaced by ``round_index`` so that
    successive executions of the persistent schedule cannot interfere.

    Usage: set the ``sendbuff`` buffer, then either fire the internal
    activation trigger (initiator) or just execute the schedule and let an
    incoming activation message drive it.  When the :data:`COMPLETED` NOP
    fires, ``recvbuff`` holds the reduced value.
    """
    sched = Schedule(
        name or f"solo-allreduce[rank={rank},round={round_index}]", persistent=True
    )
    if activation_tag_base == tags.SOLO_ACTIVATION_TAG_BASE:
        # Minting through the region helper bounds round_index so a
        # long-lived persistent schedule can never creep into the
        # neighbouring reduction region.
        act_tag = tags.solo_activation_tag(round_index, tags_per_round)
    else:
        act_tag = activation_tag_base + round_index * tags_per_round
    if reduction_tag_base == tags.SOLO_REDUCTION_TAG_BASE:
        red_tag = tags.solo_reduction_tag_base(round_index, tags_per_round)
    else:
        red_tag = reduction_tag_base + round_index * tags_per_round
    names = build_activation_schedule(sched, rank, size, act_tag)
    build_recursive_doubling_allreduce_schedule(
        sched, rank, size, red_tag, op=op, after=names.activated
    )
    sched.validate()
    return sched
