"""Shared-memory transport internals (repro.comm.shm_backend).

The cross-backend semantics are covered by the conformance suite
(``tests/test_backend_conformance.py`` parametrizes over ``shm``); this
module tests what is specific to the shm transport: the SPSC ring
(wrap-around, streaming frames larger than the ring), the capability
probe / unavailability bookkeeping, segment hygiene (session sweep,
stale-segment sweep keyed on dead PIDs), and the backend options.
"""

import os
import statistics
import threading
import time

import numpy as np
import pytest

from repro.comm import available_backends, launch
from repro.comm.backend import backend_unavailable_reason

shm_backend = pytest.importorskip("repro.comm.shm_backend")

SHM_AVAILABLE = "shm" in available_backends()

needs_shm = pytest.mark.skipif(
    not SHM_AVAILABLE,
    reason=f"shm backend unavailable: {backend_unavailable_reason('shm')}",
)


def _make_ring(tmp_name, capacity):
    return shm_backend._Ring.create(tmp_name, capacity)


def _destroy_ring(ring):
    """Detach and unlink a test ring (its owner PID is alive, so the
    stale sweep deliberately will not touch it)."""
    segment = ring._shm
    ring.detach()
    shm_backend._unlink_segment(segment)


@needs_shm
class TestRing:
    def test_write_read_roundtrip_with_wraparound(self):
        ring = _make_ring(shm_backend._session_name() + "-t1", 4096)
        try:
            payload = np.arange(1024, dtype=np.uint8).tobytes() * 3  # 3072 B
            # Two passes leave the cursors mid-ring, forcing a wrap on
            # the second write.
            for _ in range(3):
                view = memoryview(payload)
                wrote = ring.write_some(view)
                assert wrote == len(payload)
                out = bytearray(len(payload))
                got = ring.read_some(memoryview(out))
                assert got == len(payload)
                assert bytes(out) == payload
            assert ring.readable() == 0
        finally:
            _destroy_ring(ring)

    def test_write_respects_capacity(self):
        ring = _make_ring(shm_backend._session_name() + "-t2", 4096)
        try:
            big = bytes(10_000)
            wrote = ring.write_some(memoryview(big))
            assert wrote == 4096  # only the capacity fits
            out = bytearray(4096)
            assert ring.read_some(memoryview(out)) == 4096
            # Freed space admits the next capacity's worth.
            assert ring.write_some(memoryview(big)[wrote:]) == 4096
        finally:
            _destroy_ring(ring)

    def test_flags_roundtrip(self):
        ring = _make_ring(shm_backend._session_name() + "-t3", 4096)
        try:
            assert not ring.consumer_waiting and not ring.producer_waiting
            ring.set_consumer_waiting(True)
            ring.set_producer_waiting(True)
            assert ring.consumer_waiting and ring.producer_waiting
            assert not ring.producer_closed and not ring.consumer_closed
            ring.close_producer()
            ring.close_consumer()
            assert ring.producer_closed and ring.consumer_closed
        finally:
            _destroy_ring(ring)


@needs_shm
class TestTransport:
    def test_payload_larger_than_ring_streams_through(self):
        n = 1 << 18  # 2 MiB of float64 through 64 KiB rings

        def worker(comm):
            if comm.rank == 0:
                comm.send(np.arange(n, dtype=np.float64), 1, tag=1)
                return True
            got = comm.recv(source=0, tag=1, timeout=60)
            return bool(np.array_equal(got, np.arange(n, dtype=np.float64)))

        assert all(
            launch(
                worker, 2, backend="shm", timeout=120,
                backend_opts={"ring_bytes": 64 * 1024},
            )
        )

    def test_mutual_flood_does_not_deadlock(self):
        """Both ranks flood; senders pump their inbound while starved."""

        def worker(comm):
            peer = 1 - comm.rank
            chunk = np.full(1 << 16, float(comm.rank))  # 512 KiB
            for i in range(32):  # 16 MiB >> ring capacity
                comm.send(chunk, peer, tag=i)
            return sum(
                float(comm.recv(source=peer, tag=i, timeout=60)[0])
                for i in range(32)
            )

        assert launch(
            worker, 2, backend="shm", timeout=180,
            backend_opts={"ring_bytes": 256 * 1024},
        ) == [32.0, 0.0]

    def test_ring_bytes_validated(self):
        with pytest.raises(ValueError, match="ring_bytes"):
            launch(lambda comm: None, 2, backend="shm",
                   backend_opts={"ring_bytes": 16})

    def test_unknown_backend_opt_rejected(self):
        with pytest.raises(TypeError, match="unexpected options"):
            launch(lambda comm: None, 2, backend="shm",
                   backend_opts={"bogus": 1})

    def test_world_size_one_needs_no_segments(self):
        assert launch(lambda comm: comm.size, 1, backend="shm") == [1]

    def test_same_rank_send_wakes_parked_receiver(self):
        """A receiver parked on the data doorbell wakes on a local send.

        The receiving thread blocks first (parking on the rank's doorbell,
        where a same-rank ``put`` alone would not reach it); another thread
        of the same rank sends to it 20 ms later.  P = 2 keeps an inbound
        ring open, so the receiver really parks.
        """

        def worker(comm, tries):
            latencies = []
            for i in range(tries):
                woke = {}

                def receive(tag=i + 1):
                    comm.recv(source=comm.rank, tag=tag, timeout=10)
                    woke["at"] = time.perf_counter()

                receiver = threading.Thread(target=receive)
                receiver.start()
                time.sleep(0.02)
                sent = time.perf_counter()
                comm.send(i, comm.rank, tag=i + 1)
                receiver.join()
                latencies.append(woke["at"] - sent)
            comm.barrier()
            return statistics.median(latencies)

        medians = launch(worker, 2, 12, backend="shm", timeout=120)
        assert max(medians) < 0.005, medians


@needs_shm
class TestSegmentHygiene:
    def test_run_leaves_no_segments_behind(self):
        before = {
            f for f in os.listdir("/dev/shm")
            if f.startswith(shm_backend._NAME_PREFIX)
        }
        launch(lambda comm: comm.rank, 3, backend="shm", timeout=60)
        after = {
            f for f in os.listdir("/dev/shm")
            if f.startswith(shm_backend._NAME_PREFIX)
        }
        assert after <= before

    def test_stale_sweep_removes_dead_owner_segments(self, tmp_path):
        # Forge a segment whose embedded launcher PID is certainly dead.
        pid = 2**22 - 1
        while shm_backend._pid_alive(pid):  # pragma: no cover - unlucky host
            pid -= 1
        name = f"{shm_backend._NAME_PREFIX}-{pid}-deadbeef-0to1"
        segment = shm_backend._open_segment(name, create=True, size=4096)
        segment.close()
        removed = shm_backend.sweep_stale_segments()
        assert name in removed
        assert name not in os.listdir("/dev/shm")

    def test_stale_sweep_keeps_live_owner_segments(self):
        name = f"{shm_backend._NAME_PREFIX}-{os.getpid()}-cafef00d-0to1"
        segment = shm_backend._open_segment(name, create=True, size=4096)
        try:
            assert name not in shm_backend.sweep_stale_segments()
            assert name in os.listdir("/dev/shm")
        finally:
            segment.close()
            shm_backend._unlink_segment(segment)

    def test_malformed_names_ignored(self):
        path = f"/dev/shm/{shm_backend._NAME_PREFIX}-notapid-xyz"
        with open(path, "wb") as fh:
            fh.write(b"\0" * 16)
        try:
            assert os.path.basename(path) not in shm_backend.sweep_stale_segments()
        finally:
            os.unlink(path)


class TestAvailabilityBookkeeping:
    def test_probe_agrees_with_registry(self):
        reason = shm_backend._UNAVAILABLE_REASON
        if SHM_AVAILABLE:
            assert reason is None
            assert backend_unavailable_reason("shm") is None
        else:  # pragma: no cover - only on platforms without shm
            assert reason
            assert backend_unavailable_reason("shm") == reason

    def test_mark_backend_unavailable_reports_typed_error(self):
        from repro.comm.backend import (
            BackendUnavailableError,
            _UNAVAILABLE,
            get_backend,
            mark_backend_unavailable,
        )

        mark_backend_unavailable("imaginary-fabric", "no such hardware")
        try:
            assert backend_unavailable_reason("imaginary-fabric") == "no such hardware"
            with pytest.raises(BackendUnavailableError, match="no such hardware"):
                get_backend("imaginary-fabric")
            # Unmarked unknown names keep the plain unknown-name error.
            with pytest.raises(ValueError, match="unknown comm backend"):
                get_backend("definitely-not-registered")
        finally:
            _UNAVAILABLE.pop("imaginary-fabric", None)


@needs_shm
class TestDoorbell:
    def test_ring_then_wait_returns_immediately(self):
        import time

        bell = shm_backend._Doorbell()
        bell.ring()
        start = time.perf_counter()
        bell.wait(1.0)
        assert time.perf_counter() - start < 0.5

    def test_wait_times_out_without_signal(self):
        import time

        bell = shm_backend._Doorbell()
        start = time.perf_counter()
        bell.wait(0.05)
        assert 0.03 <= time.perf_counter() - start < 1.0

    def test_many_rings_drain_in_one_wait(self):
        import time

        bell = shm_backend._Doorbell()
        for _ in range(100):
            bell.ring()
        bell.wait(0.5)
        start = time.perf_counter()
        bell.wait(0.05)  # drained: must time out, not return instantly
        assert time.perf_counter() - start >= 0.03
