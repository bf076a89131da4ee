"""Sharded-optimizer collectives: ``reduce_scatter`` and ``allgather_flat``.

ZeRO stage-1 training replaces the gradient allreduce with a split
schedule: a *reduce-scatter* leaves each rank holding one fully reduced
1/P shard of the gradient, the optimizer updates only that shard's
parameters (and allocates state only for it), and an *allgather* of the
updated **parameters** restores the replicated model.  These two
primitives are the halves every bandwidth-optimal allreduce of
:mod:`repro.collectives.sync` is composed from, and they run the same
code: the phase helpers of that module, called here with this module's
phases and tag region.

* **ring** — the ring reduce-scatter / allgather phases of
  :func:`repro.collectives.sync.allreduce_ring`, so composing the two is
  bit-identical to the full ring allreduce.  Rank ``r`` ends the
  reduce-scatter owning contiguous chunk ``(r + 1) % P`` — the chunk the
  ring's rotation lands on it.
* **halving / doubling** — the two phases of Rabenseifner's algorithm
  (:func:`~repro.collectives.sync.allreduce_rabenseifner`): recursive
  halving assigns each in-group rank the window the bisection walk ends
  on; non-power-of-two worlds fold the extra ranks in before the halving
  and fold the full vector back out after the doubling (the extras own
  *empty* windows in between).
* **hierarchical** — rides :class:`~repro.collectives.topology.HostTopology`:
  every host reduces onto its leader, the leaders reduce-scatter the
  vector in host-sized segments over the leader ring, and each leader
  scatters its host segment's sub-windows to its members; the allgather
  runs the mirror image (gather to leader, leader ring allgather,
  intra-host broadcast).  Only leaders touch inter-host links.
* **compressed wire** — the ring variants accept a reduce-closed codec
  (:mod:`repro.compression`) and run the compressed-ring phases of
  :func:`~repro.collectives.sync.allreduce_compressed_ring`: encoded
  payloads on every wire hop, dense ``float64`` arithmetic at every
  combine.

Ownership is a *static* function of ``(length, world, algorithm,
topology)`` — :func:`shard_bounds` — so optimizer state keyed by the
owned window is stable across steps and ranks can size buffers without
communicating.

Tags are minted from the dedicated ``sharding`` region of
:mod:`repro.comm.tags` (layout ``(epoch, phase, round, chunk)``, its own
per-communicator epoch counter), so sharded collectives can never steal
messages from the ``sync`` collectives they run next to — the static
schedule verifier (:mod:`repro.analysis.schedule_verifier`) sweeps these
schedules alongside the rest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.comm import tags
from repro.comm.communicator import Communicator
from repro.comm.reduce_ops import ReduceOp, get_op
from repro.collectives.sync import (
    _LeaderRanks,
    _as_dense_float64,
    _as_float_array,
    _compressed_ring_allgather,
    _compressed_ring_reduce_scatter,
    _doubling_allgather,
    _fold_in,
    _fold_out,
    _halving_reduce_scatter,
    _halving_window,
    _intra_tree,
    _intra_windows,
    _next_epoch as _next_sync_epoch,
    _require_wire_codec,
    _ring_allgather,
    _ring_reduce_scatter,
    _segment_bounds,
    _validate_chunks,
    resolve_host_topology,
)
from repro.collectives.topology import (
    HostTopology,
    intra_bcast_edges,
    intra_reduce_edges,
    largest_power_of_two_leq,
)
from repro.obs import recorder as _obs

# Phase identifiers within the ``sharding`` tag region (< SHARDING_MAX_PHASES).
_PHASE_RING_RS = 0
_PHASE_RING_AG = 1
_PHASE_HALVING_RS = 2
_PHASE_DOUBLING_AG = 3
_PHASE_FOLD_IN = 4
_PHASE_FOLD_OUT = 5
_PHASE_HIER_REDUCE = 6
_PHASE_HIER_SCATTER = 7
_PHASE_HIER_GATHER = 8
_PHASE_HIER_BCAST = 9
# The hierarchical leader tier runs the ring phases over sync's leader view.
_PHASE_LEADER_RS = 10
_PHASE_LEADER_AG = 11

_tag = tags.sharding_tag

#: Reduce-scatter algorithms and the allgather each one pairs with (the
#: allgather must be fed windows from the *same* ownership map).
ALLGATHER_FOR_REDUCE_SCATTER: Dict[str, str] = {
    "ring": "ring",
    "halving": "doubling",
    "hierarchical": "hierarchical",
}
REDUCE_SCATTER_ALGORITHMS: Tuple[str, ...] = tuple(ALLGATHER_FOR_REDUCE_SCATTER)
ALLGATHER_FLAT_ALGORITHMS: Tuple[str, ...] = tuple(
    ALLGATHER_FOR_REDUCE_SCATTER.values()
)


def _next_epoch(comm: Communicator) -> int:
    """Per-communicator sequence number for sharded collectives.

    Separate from the ``sync`` epoch counter: the two regions are
    disjoint, so interleaving sharded and synchronous collectives on one
    communicator cannot alias tags either way.
    """
    return _next_sync_epoch(comm, "_sharding_collective_epoch")


def _resolve_rs_algorithm(algorithm: str) -> str:
    if algorithm not in ALLGATHER_FOR_REDUCE_SCATTER:
        raise ValueError(
            f"unknown reduce_scatter algorithm {algorithm!r}; "
            f"available: {sorted(ALLGATHER_FOR_REDUCE_SCATTER)}"
        )
    return algorithm


def _resolve_ag_algorithm(algorithm: str) -> str:
    if algorithm not in ALLGATHER_FLAT_ALGORITHMS:
        raise ValueError(
            f"unknown allgather_flat algorithm {algorithm!r}; "
            f"available: {sorted(ALLGATHER_FLAT_ALGORITHMS)}"
        )
    return algorithm


# --------------------------------------------------------------------------
# static ownership map
# --------------------------------------------------------------------------
def shard_bounds(
    length: int,
    size: int,
    algorithm: str = "ring",
    topology: Optional[HostTopology] = None,
) -> List[Tuple[int, int]]:
    """Per-rank owned ``(lo, hi)`` windows after a reduce-scatter.

    The windows are disjoint and cover ``[0, length)`` for ``ring`` and
    ``hierarchical``; under ``halving`` (and its ``doubling`` allgather
    pairing, which accepts the same name) the non-power-of-two "extra"
    ranks own empty windows — their contribution folds into the group
    and the full vector folds back out in the allgather.

    This is a pure function of the arguments, so every rank — and the
    optimizer state keyed by these windows — computes the same map
    without communicating.
    """
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    if size == 1:
        return [(0, length)]
    if algorithm == "ring":
        bounds = _segment_bounds(length, size)
        return [bounds[(rank + 1) % size] for rank in range(size)]
    if algorithm in ("halving", "doubling"):
        pof2 = largest_power_of_two_leq(size)
        windows = [_halving_window(rank, pof2, length) for rank in range(pof2)]
        windows.extend((0, 0) for _ in range(size - pof2))
        return windows
    if algorithm == "hierarchical":
        if topology is None:
            topology = HostTopology.single_host(size)
        if topology.world_size != size:
            raise ValueError(
                f"host topology covers {topology.world_size} rank(s), "
                f"expected {size}"
            )
        host_bounds = _segment_bounds(length, topology.num_hosts)
        windows = []
        for rank in range(size):
            host = topology.host(rank)
            hlo, hhi = host_bounds[(host + 1) % topology.num_hosts]
            locals_ = topology.ranks_on_host(host)
            slo, shi = _segment_bounds(hhi - hlo, len(locals_))[
                topology.local_index(rank)
            ]
            windows.append((hlo + slo, hlo + shi))
        return windows
    raise ValueError(
        f"unknown sharding algorithm {algorithm!r}; "
        f"available: {sorted(set(ALLGATHER_FOR_REDUCE_SCATTER) | set(ALLGATHER_FLAT_ALGORITHMS))}"
    )


# --------------------------------------------------------------------------
# public primitives
# --------------------------------------------------------------------------
def reduce_scatter(
    comm: Communicator,
    data,
    op: ReduceOp | str = "sum",
    algorithm: str = "ring",
    average: bool = False,
    timeout: Optional[float] = None,
    n_chunks: int = 1,
    copy: bool = True,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Reduce the vector across ranks, scattering ownership of the result.

    Returns ``(buffer, (lo, hi))``: ``buffer`` is this rank's flat
    working array and ``buffer[lo:hi]`` — the window
    :func:`shard_bounds` assigns this rank — holds the fully reduced
    (and, with ``average``, world-size-averaged) values.  Elements
    outside the owned window are partial sums and must not be read; the
    paired :func:`allgather_flat` (same algorithm family, see
    :data:`ALLGATHER_FOR_REDUCE_SCATTER`) refills them.

    The ring schedule is the reduce-scatter phase of
    :func:`~repro.collectives.sync.allreduce_ring`, so a reduce-scatter
    → owned-window update → parameter allgather pipeline is bitwise
    equal to updating after the full ring allreduce.

    ``codec`` (reduce-closed, fixed-width wire dtype) switches the ring
    hops to encoded payloads with dense combines; only the ring
    algorithm supports it.  A codec always sums and ``average`` divides
    a sum, so ``op`` must be ``"sum"`` with either (``ValueError``
    otherwise).
    """
    algorithm = _resolve_rs_algorithm(algorithm)
    reduce_op = get_op(op)
    n_chunks = _validate_chunks(n_chunks)
    if reduce_op.name != "sum" and (codec is not None or average):
        raise ValueError(
            f"reduce_scatter with a codec or average sums; got op "
            f"{reduce_op.name!r}"
        )
    if codec is not None:
        if algorithm != "ring":
            raise ValueError(
                f"compressed reduce_scatter supports the ring algorithm only, "
                f"got {algorithm!r}"
            )
        _require_wire_codec(codec)
        arr = _as_dense_float64(data, copy)
    else:
        arr = _as_float_array(data, copy=copy)
    flat = arr.reshape(-1)
    rank, size = comm.rank, comm.size
    if size == 1:
        return flat, (0, flat.size)
    epoch = _next_epoch(comm)
    if algorithm == "hierarchical":
        topology = resolve_host_topology(comm, topology)
    windows = shard_bounds(flat.size, size, algorithm, topology=topology)
    with _obs.span(
        f"reduce_scatter[{algorithm}]", "collective",
        nbytes=flat.nbytes, n_chunks=n_chunks,
    ):
        if algorithm == "ring":
            if codec is not None:
                _compressed_ring_reduce_scatter(
                    comm, flat, epoch, _PHASE_RING_RS, n_chunks, codec, timeout,
                    mint=_tag,
                )
            else:
                _ring_reduce_scatter(
                    comm, flat, epoch, _PHASE_RING_RS, n_chunks, reduce_op,
                    timeout, mint=_tag,
                )
        elif algorithm == "halving":
            if _fold_in(
                comm, flat, epoch, n_chunks, reduce_op, timeout,
                phase=_PHASE_FOLD_IN, mint=_tag,
            ):
                _halving_reduce_scatter(
                    comm, flat, epoch, _PHASE_HALVING_RS, n_chunks, reduce_op,
                    timeout, mint=_tag,
                )
        else:  # hierarchical
            with _obs.span("shard-hier-intra-reduce", "collective", n_chunks=n_chunks):
                _intra_tree(
                    comm, flat, intra_reduce_edges(topology, topology.host(rank)),
                    epoch, _PHASE_HIER_REDUCE, n_chunks, timeout, reduce_op,
                    mint=_tag,
                )
            if topology.is_leader(rank):
                with _obs.span("shard-hier-leader-rs", "collective",
                               leaders=topology.num_hosts, n_chunks=n_chunks):
                    _ring_reduce_scatter(
                        _LeaderRanks(comm, topology.leaders), flat, epoch,
                        _PHASE_LEADER_RS, n_chunks, reduce_op, timeout, mint=_tag,
                    )
            _intra_windows(
                comm, flat, topology, windows, epoch, _PHASE_HIER_SCATTER,
                n_chunks, timeout, mint=_tag,
            )
    lo, hi = windows[rank]
    if average and hi > lo:
        flat[lo:hi] /= size
    return flat, (lo, hi)


def allgather_flat(
    comm: Communicator,
    flat,
    algorithm: str = "ring",
    timeout: Optional[float] = None,
    n_chunks: int = 1,
    codec=None,
    topology: Optional[HostTopology] = None,
) -> np.ndarray:
    """Fill every rank's full flat vector from the per-rank owned windows.

    The in-place dual of :func:`reduce_scatter`: each rank enters with
    its :func:`shard_bounds` window holding final values (e.g. freshly
    updated parameters) and returns with the whole vector replicated.
    ``algorithm`` must pair with the reduce-scatter that produced the
    windows (:data:`ALLGATHER_FOR_REDUCE_SCATTER`): ``ring`` ↔ ``ring``,
    ``halving`` ↔ ``doubling`` (``"halving"`` is accepted as an alias),
    ``hierarchical`` ↔ ``hierarchical``.

    ``codec`` (ring only) circulates encoded chunks; all ranks decode the
    same bytes — including the owner, whose window is re-decoded from its
    own encoding — so the replicas stay bit-identical.
    """
    if algorithm == "halving":
        algorithm = "doubling"
    algorithm = _resolve_ag_algorithm(algorithm)
    n_chunks = _validate_chunks(n_chunks)
    arr = np.asarray(flat)
    if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.floating):
        raise ValueError(
            f"allgather_flat operates in place on a 1-D float vector, got "
            f"shape {arr.shape} dtype {arr.dtype}"
        )
    if not arr.flags.writeable:
        raise ValueError(
            f"allgather_flat fills the vector in place and needs it writable, "
            f"got a read-only array of shape {arr.shape}"
        )
    rank, size = comm.rank, comm.size
    if size == 1:
        return arr
    if codec is not None:
        if algorithm != "ring":
            raise ValueError(
                f"compressed allgather_flat supports the ring algorithm only, "
                f"got {algorithm!r}"
            )
        _require_wire_codec(codec)
    epoch = _next_epoch(comm)
    with _obs.span(
        f"allgather_flat[{algorithm}]", "collective",
        nbytes=arr.nbytes, n_chunks=n_chunks,
    ):
        if algorithm == "ring":
            if codec is not None:
                _compressed_ring_allgather(
                    comm, arr, epoch, _PHASE_RING_AG, n_chunks, codec, timeout,
                    mint=_tag,
                )
            else:
                _ring_allgather(
                    comm, arr, epoch, _PHASE_RING_AG, n_chunks, timeout, mint=_tag
                )
        elif algorithm == "doubling":
            in_group = rank < largest_power_of_two_leq(size)
            if in_group:
                _doubling_allgather(
                    comm, arr, epoch, _PHASE_DOUBLING_AG, timeout, mint=_tag
                )
            _fold_out(
                comm, arr, epoch, n_chunks, in_group, timeout,
                phase=_PHASE_FOLD_OUT, mint=_tag,
            )
        else:  # hierarchical
            topology = resolve_host_topology(comm, topology)
            windows = shard_bounds(arr.size, size, algorithm, topology=topology)
            _intra_windows(
                comm, arr, topology, windows, epoch, _PHASE_HIER_GATHER,
                n_chunks, timeout, gather=True, mint=_tag,
            )
            if topology.is_leader(rank):
                with _obs.span("shard-hier-leader-ag", "collective",
                               leaders=topology.num_hosts, n_chunks=n_chunks):
                    _ring_allgather(
                        _LeaderRanks(comm, topology.leaders), arr, epoch,
                        _PHASE_LEADER_AG, n_chunks, timeout, mint=_tag,
                    )
            with _obs.span("shard-hier-intra-bcast", "collective", n_chunks=n_chunks):
                _intra_tree(
                    comm, arr, intra_bcast_edges(topology, topology.host(rank)),
                    epoch, _PHASE_HIER_BCAST, n_chunks, timeout, mint=_tag,
                )
    return arr
