"""Multiprocess socket transport: one OS process per rank.

This is the second :class:`~repro.comm.backend.CommBackend` and the
first with true parallelism (no shared GIL), which makes wall-clock
measurements on it comparable to the paper's multi-node runs in kind,
not just in shape.

Topology and rendezvous
-----------------------
The launcher spawns ``P`` rank processes (``fork`` start method by
default, so the SPMD function, closures included, never needs pickling;
``backend_opts={"start_method": "spawn"}`` selects the pickled entry
point instead, for macOS/Windows or CUDA-after-fork situations) and
keeps one control/result pipe pair per rank.  The launcher itself runs
a *rendezvous service* (:class:`_RendezvousService`) on a loopback
address; every rank connects to it, registers its own data-listener
address, and receives the full ``rank -> address`` map back.  Because
the service lives in the launcher, the worker arguments contain no live
sockets — they are pickle-clean, which is what makes both ``spawn`` and
cross-launcher operation (the ``tcp`` backend's seed rendezvous,
:mod:`repro.comm.tcp_backend`) possible with the same worker entry
point.  The data plane is then a full TCP mesh: rank ``i`` dials every
rank ``j > i`` and accepts from every ``j < i``, one socket per pair,
``TCP_NODELAY`` set.  Bring-up connects retry with bounded backoff
(:func:`_connect_with_retry`): a rank may dial a peer whose listener is
not bound yet, and across launchers the seed may come up late — neither
race should abort the world.

Wire format
-----------
Each message is one frame::

    uint32 header_len | pickle(header) | payload bytes

where ``header = (channel, source, dest, tag, seq, kind, dtype, shape,
payload_nbytes)``.  Small Python objects travel pickled (``kind="obj"``).
NumPy arrays travel as their raw buffer (``kind="nd"``): the sender
writes the array's memoryview straight to the socket and the receiver
reads with ``recv_into`` on a preallocated array — no pickling and no
intermediate copies of the payload on either side.

The framing (:func:`pack_frame` / :func:`payload_scratch` /
:func:`payload_finish`) and the endpoint skeleton
(:class:`MeshEndpoint`: per-channel mailboxes with dynamic
sub-channels, delivery bookkeeping, the abort/close state machine) are
shared with the shared-memory transport
(:mod:`repro.comm.shm_backend`), as is the launcher below — only the
byte pipe differs between the two.

Failure semantics
-----------------
Mirrors the thread backend's :class:`~repro.comm.backend.WorldError`
contract.  A rank that raises reports ``(exception, traceback)`` to the
launcher over its result pipe; the launcher then broadcasts an abort on
every control pipe, which closes the surviving ranks' mailboxes — their
blocked receives wake with :class:`~repro.comm.mailbox.MailboxClosed`
instead of hanging.  A rank that dies without reporting (hard crash) is
detected by process exit and triggers the same abort.  A rank that
*finishes* simply closes its transport: peers treat the EOF (or the
ring-closed flag, on the shm transport) as a normal departure, exactly
like a finished thread whose mailbox outlives it.
"""

from __future__ import annotations

import errno
import itertools
import multiprocessing
import multiprocessing.connection
import pickle
import socket
import struct
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.comm.backend import (
    BackendUnavailableError,
    CommBackend,
    WorldError,
    register_backend,
)
from repro.comm.communicator import Communicator
from repro.comm.mailbox import Mailbox, MailboxClosed
from repro.comm.message import Message
from repro.comm.router import Channel, DEFAULT_CHANNELS

__all__ = [
    "MeshEndpoint",
    "ProcessBackend",
    "ProcessCrashError",
    "SocketEndpoint",
    "SocketPeerMixin",
    "pack_frame",
    "payload_finish",
    "payload_scratch",
]

#: Payload kind markers of the wire frame.
_KIND_OBJ = 0
_KIND_ND = 1

_HEADER_LEN = struct.Struct("!I")
_RANK_ID = struct.Struct("!I")

#: Socket timeout applied during rendezvous and mesh establishment.
_SETUP_TIMEOUT = 60.0

#: Backoff schedule of the bring-up retry loops (seconds).
_RETRY_INITIAL_DELAY = 0.02
_RETRY_MAX_DELAY = 0.5

#: Transient bring-up errnos worth retrying: a listener not bound yet
#: (ECONNREFUSED), a backlog overflow (ECONNRESET/ECONNABORTED), a port
#: still in TIME_WAIT (EADDRINUSE) or ephemeral-port pressure
#: (EADDRNOTAVAIL).  Anything else is a real error and propagates.
_RETRYABLE_CONNECT_ERRNOS = frozenset(
    {
        errno.ECONNREFUSED,
        errno.ECONNRESET,
        errno.ECONNABORTED,
        errno.EADDRNOTAVAIL,
        errno.ETIMEDOUT,
        errno.EINTR,
    }
)


class ProcessCrashError(RuntimeError):
    """A rank process exited without reporting a result."""


# ---------------------------------------------------------------------------
# low-level framing helpers (shared with the shm transport)
# ---------------------------------------------------------------------------
def _read_exact_into(sock: socket.socket, view: memoryview) -> bool:
    """Fill ``view`` from the socket; False on EOF before the first byte.

    EOF *inside* a frame (after at least one byte) raises — a peer that
    vanishes mid-message is a crash, not a departure.
    """
    got = 0
    total = len(view)
    while got < total:
        n = sock.recv_into(view[got:], total - got)
        if n == 0:
            if got == 0:
                return False
            raise ConnectionResetError(
                f"peer closed the connection mid-frame ({got}/{total} bytes)"
            )
        got += n
    return True


def _read_exact(sock: socket.socket, nbytes: int) -> Optional[bytearray]:
    buf = bytearray(nbytes)
    if not _read_exact_into(sock, memoryview(buf)):
        return None
    return buf


def _send_obj(sock: socket.socket, obj: Any) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER_LEN.pack(len(data)) + data)


def _recv_obj(sock: socket.socket) -> Any:
    header = _read_exact(sock, _HEADER_LEN.size)
    if header is None:
        raise ConnectionResetError("connection closed during rendezvous")
    (length,) = _HEADER_LEN.unpack(header)
    body = _read_exact(sock, length)
    if body is None:
        raise ConnectionResetError("connection closed during rendezvous")
    return pickle.loads(bytes(body))


def _connect_with_retry(
    addr: Tuple[str, int], timeout: float = _SETUP_TIMEOUT, what: str = "peer"
) -> socket.socket:
    """Dial ``addr``, retrying transient bring-up failures with backoff.

    During mesh establishment every connect races the peer's bind: a
    rank may dial a listener that is not up yet (``ECONNREFUSED``), and
    across launchers the seed service may start seconds later.  Those
    races used to abort the whole world; now they retry on a bounded
    exponential backoff until ``timeout`` expires.
    """
    deadline = time.monotonic() + timeout
    delay = _RETRY_INITIAL_DELAY
    last: Optional[OSError] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(
                f"could not connect to {what} at {addr} within {timeout}s"
                + (f" (last error: {last})" if last is not None else "")
            ) from last
        try:
            return socket.create_connection(addr, timeout=remaining)
        except OSError as exc:
            if (
                exc.errno not in _RETRYABLE_CONNECT_ERRNOS
                and not isinstance(exc, (ConnectionError, socket.timeout))
            ):
                raise
            last = exc
        time.sleep(min(delay, max(0.0, deadline - time.monotonic())))
        delay = min(delay * 2, _RETRY_MAX_DELAY)


def _bind_listener(
    addr: Tuple[str, int], backlog: int, timeout: float = _SETUP_TIMEOUT
) -> socket.socket:
    """Bind a listener at ``addr``, retrying ``EADDRINUSE`` with backoff.

    A fixed seed port may still sit in ``TIME_WAIT`` from the previous
    run (``SO_REUSEADDR`` covers that case directly) or be held for a
    moment by a launcher shutting down; both deserve a bounded wait, not
    an abort.  Ephemeral binds (port 0) never collide and return on the
    first attempt.
    """
    deadline = time.monotonic() + timeout
    delay = _RETRY_INITIAL_DELAY
    while True:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind(addr)
            sock.listen(backlog)
            return sock
        except OSError as exc:
            sock.close()
            if exc.errno != errno.EADDRINUSE or time.monotonic() + delay >= deadline:
                raise
        time.sleep(delay)
        delay = min(delay * 2, _RETRY_MAX_DELAY)


def pack_frame(message: Message, channel: str) -> Tuple[bytes, Any]:
    """``(pickled header, body)`` of one wire frame.

    The header is ``(channel, source, dest, tag, seq, kind, dtype,
    shape, payload_nbytes)``.  NumPy arrays (plain dtypes only) return
    their raw buffer as the body (``kind="nd"`` — written to the wire
    without pickling); everything else is pickled (``kind="obj"``).
    """
    payload = message.payload
    if (
        isinstance(payload, np.ndarray)
        and not payload.dtype.hasobject
        and payload.dtype.names is None  # dtype.str drops record fields
    ):
        # ascontiguousarray would promote 0-d to 1-d; the header keeps
        # the true shape so the receiver reconstructs it exactly.
        arr = payload if payload.flags.c_contiguous else np.ascontiguousarray(payload)
        header = (
            channel, message.source, message.dest, message.tag, message.seq,
            _KIND_ND, arr.dtype.str, payload.shape, int(arr.nbytes),
        )
        body: Any = memoryview(arr.reshape(-1)).cast("B")
    else:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        header = (
            channel, message.source, message.dest, message.tag, message.seq,
            _KIND_OBJ, "", (), len(body),
        )
    return pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL), body


def payload_scratch(kind: int, dtype: str, nbytes: int) -> Tuple[Any, memoryview]:
    """Receive-side buffer for one frame's payload.

    Returns ``(scratch, byte view)``: the transport fills the view with
    the frame's payload bytes (zero-copy for arrays — the view aliases
    the array's own buffer) and hands the scratch to
    :func:`payload_finish`.
    """
    if kind == _KIND_ND:
        dt = np.dtype(dtype)
        flat = np.empty(nbytes // dt.itemsize if dt.itemsize else 0, dtype=dt)
        return flat, memoryview(flat.view(np.uint8)) if nbytes else memoryview(b"")
    buf = bytearray(nbytes)
    return buf, memoryview(buf)


def payload_finish(kind: int, shape: Tuple[int, ...], scratch: Any) -> Any:
    """Turn a filled :func:`payload_scratch` buffer into the payload."""
    if kind == _KIND_ND:
        return scratch.reshape(shape)
    return pickle.loads(bytes(scratch))


# ---------------------------------------------------------------------------
# the shared per-process endpoint skeleton
# ---------------------------------------------------------------------------
class MeshEndpoint:
    """One rank's view of a multiprocess mesh (transport-agnostic half).

    Implements the :class:`~repro.comm.backend.RouterLike` surface the
    shared :class:`~repro.comm.communicator.Communicator` is built on:
    local mailboxes per channel (dynamic ``"<base>.<suffix>"``
    sub-channels included, mirroring
    :meth:`repro.comm.router.Router.mailbox`), delivery bookkeeping, and
    the abort/close state machine every multiprocess transport shares.
    Subclasses implement :meth:`_send_frame` (write one frame to the
    peer's byte pipe) and the :meth:`_shutdown_transport` /
    :meth:`_join_receivers` teardown hooks.
    """

    #: Remote payloads are framed (copied onto the wire) synchronously
    #: inside :meth:`deliver`, so the communicator may skip its
    #: defensive pre-send copy for remote destinations.
    remote_payloads_framed = True

    def __init__(
        self, rank: int, world_size: int, channels: Sequence[str] = DEFAULT_CHANNELS
    ) -> None:
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.rank = int(rank)
        self.world_size = int(world_size)
        self.channels: Tuple[str, ...] = tuple(channels)
        if not self.channels:
            raise ValueError(f"at least one channel is required, got {channels!r}")
        self._mailboxes: Dict[str, Mailbox] = {
            ch: self._make_mailbox(self.rank, ch) for ch in self.channels
        }
        self._departed: set[int] = set()
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._message_count = 0
        self._byte_count = 0
        self._closed = False
        self._abort_reason: Optional[str] = None

    # ----------------------------------------------------------- plumbing
    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank {rank} out of range for world of size {self.world_size}"
            )

    def _make_mailbox(self, rank: int, channel: str) -> Mailbox:
        """Mailbox factory hook.

        The shm transport returns work-stealing mailboxes whose blocked
        receivers pump the rings themselves; the socket transport uses
        the plain kind (its receiver threads already block in the
        kernel, which is as direct as a socket wake-up gets).
        """
        return Mailbox(rank, channel)

    # ------------------------------------------------------------- access
    def mailbox(self, rank: int, channel: str) -> Mailbox:
        """Local mailbox for ``(rank, channel)``; only this rank's are held here."""
        self._check_rank(rank)
        if rank != self.rank:
            raise ValueError(
                f"rank {self.rank} cannot open rank {rank}'s mailbox: a "
                "multiprocess transport only holds local mailboxes"
            )
        mailbox = self._mailboxes.get(channel)
        if mailbox is None:
            base = channel.split(".", 1)[0]
            with self._lock:
                mailbox = self._mailboxes.get(channel)
                if mailbox is None:
                    if base == channel or base not in self.channels:
                        raise KeyError(
                            f"unknown channel {channel!r}; available: "
                            f"{self.channels} (plus '<known>.<suffix>' "
                            f"dynamic sub-channels)"
                        )
                    mailbox = self._make_mailbox(self.rank, channel)
                    if self._closed:
                        # Born closed, mirroring Router.close() semantics:
                        # a straggler blocked on a late-created channel is
                        # woken instead of hanging until its timeout.
                        mailbox.close()
                    self._mailboxes[channel] = mailbox
                    self.channels = self.channels + (channel,)
        return mailbox

    # ------------------------------------------------------------ deliver
    def deliver(self, message: Message, channel: str) -> None:
        """Route ``message`` to its destination (local put or wire frame)."""
        self._check_rank(message.dest)
        self._check_rank(message.source)
        base = channel.split(".", 1)[0]
        if channel not in self.channels and (base == channel or base not in self.channels):
            raise KeyError(
                f"unknown channel {channel!r}; available: {self.channels} "
                f"(plus '<known>.<suffix>' dynamic sub-channels)"
            )
        if self._closed:
            raise MailboxClosed(
                f"rank {self.rank}: endpoint is closed"
                + (f" ({self._abort_reason})" if self._abort_reason else "")
            )
        message.seq = next(self._seq)
        with self._lock:
            self._message_count += 1
            self._byte_count += message.nbytes()
        if message.dest == self.rank:
            self.mailbox(self.rank, channel).put(message)
            self._notify_local_delivery()
            return
        if message.dest in self._departed:
            # The peer already finished and tore its transport down; like
            # a thread world's mailbox-to-nobody, the send just evaporates.
            return
        self._send_frame(message, channel)

    def _send_frame(self, message: Message, channel: str) -> None:
        raise NotImplementedError

    def _notify_local_delivery(self) -> None:
        """Hook run after a same-rank ``put``.

        The ``put`` notifies the mailbox condition, which is where a
        socket-transport receiver blocks; a transport whose receivers
        park elsewhere wakes them here.
        """

    # ------------------------------------------------------------- stats
    @property
    def message_count(self) -> int:
        """Messages this endpoint has delivered (sent) so far."""
        with self._lock:
            return self._message_count

    @property
    def byte_count(self) -> int:
        """Array payload bytes this endpoint has delivered (sent) so far."""
        with self._lock:
            return self._byte_count

    def pending_messages(self) -> int:
        """Delivered-but-unreceived messages across this rank's mailboxes."""
        with self._lock:
            mailboxes = list(self._mailboxes.values())
        return sum(mb.pending() for mb in mailboxes)

    # -------------------------------------------------------------- close
    def abort(self, reason: str) -> None:
        """Wake every blocked receive on this rank (world failure path)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._abort_reason = reason
            mailboxes = list(self._mailboxes.values())
        for mb in mailboxes:
            mb.close()
        self._shutdown_transport()

    def close(self) -> None:
        """Orderly teardown after the SPMD function returned.

        Mailboxes stay readable (matching a finished thread rank whose
        queued messages remain inspectable); only the transport goes
        down, which peers observe as a normal departure.  Safe after an
        abort: the transport is already down, but receiver threads are
        still joined (and transport mappings released) exactly once.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if not already_closed:
            self._shutdown_transport()
        self._join_receivers()

    def _shutdown_transport(self) -> None:
        raise NotImplementedError

    def _join_receivers(self) -> None:
        """Wait briefly for receiver threads after an orderly close."""


# ---------------------------------------------------------------------------
# the socket endpoint
# ---------------------------------------------------------------------------
class SocketPeerMixin:
    """Per-peer socket machinery shared by the flat TCP mesh and the
    hierarchical endpoint's inter-host links.

    Mixed into a :class:`MeshEndpoint` subclass; uses its ``rank``,
    ``mailbox``, ``abort`` and ``_departed`` surfaces.  Attribute names
    are ``_sock``-prefixed so the shm ring state of a composite endpoint
    (:mod:`repro.comm.hier_backend`) never collides with them.
    """

    def _init_socket_peers(self) -> None:
        self._sock_peers: Dict[int, socket.socket] = {}
        self._sock_send_locks: Dict[int, threading.Lock] = {}
        self._sock_receivers: List[threading.Thread] = []

    def _notify_socket_delivery(self) -> None:
        """Hook run after a socket frame lands in a mailbox.

        The plain socket endpoint needs nothing (its receivers block in
        the kernel and ``put`` notifies the mailbox condition); the
        composite endpoint rings its shm doorbell here so a consumer
        parked on ring starvation wakes for socket arrivals too.
        """

    # ----------------------------------------------------------- plumbing
    def attach_peer(self, peer: int, sock: socket.socket) -> None:
        """Register the mesh socket for ``peer`` and start its receiver."""
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock_peers[peer] = sock
        self._sock_send_locks[peer] = threading.Lock()
        thread = threading.Thread(
            target=self._recv_loop,
            args=(peer, sock),
            name=f"sockrecv-r{self.rank}-p{peer}",
            daemon=True,
        )
        self._sock_receivers.append(thread)
        thread.start()

    # --------------------------------------------------------------- send
    def _send_socket_frame(self, message: Message, channel: str) -> None:
        dest = message.dest
        sock = self._sock_peers.get(dest)
        if sock is None:
            return
        head, body = pack_frame(message, channel)
        lock = self._sock_send_locks[dest]
        try:
            with lock:
                sock.sendall(_HEADER_LEN.pack(len(head)) + head)
                if len(body):
                    sock.sendall(body)
        except OSError:
            # EPIPE/ECONNRESET: the peer departed between our check and the
            # write.  Same no-op semantics as a departed peer; a *crash* is
            # handled by the launcher's abort broadcast, not the send path.
            self._departed.add(dest)

    # ----------------------------------------------------------- receive
    def _recv_loop(self, peer: int, sock: socket.socket) -> None:
        try:
            while True:
                head_len_buf = _read_exact(sock, _HEADER_LEN.size)
                if head_len_buf is None:
                    break  # orderly EOF at a frame boundary: peer departed
                (head_len,) = _HEADER_LEN.unpack(head_len_buf)
                head = _read_exact(sock, head_len)
                if head is None:
                    raise ConnectionResetError("EOF inside a frame header")
                channel, source, dest, tag, seq, kind, dtype, shape, nbytes = (
                    pickle.loads(bytes(head))
                )
                scratch, view = payload_scratch(kind, dtype, nbytes)
                if nbytes:
                    # Zero-copy receive: the socket fills the array's
                    # own buffer, no intermediate bytes object.
                    if not _read_exact_into(sock, view):
                        raise ConnectionResetError("EOF inside a frame payload")
                payload = payload_finish(kind, shape, scratch)
                msg = Message(source=source, dest=dest, tag=tag, payload=payload, seq=seq)
                try:
                    self.mailbox(self.rank, channel).put(msg)
                except MailboxClosed:
                    return  # aborted while delivering; drop and exit
                self._notify_socket_delivery()
        except OSError:
            # Reset/teardown on the peer socket (including mid-frame EOF,
            # which _read_exact_into raises as ConnectionResetError).  A
            # peer may answer its own close() with RST while our frame is
            # in flight, so a socket error here is *departure*, never a
            # world failure: genuine crashes are detected by the
            # launcher's liveness check, which aborts every rank through
            # the control pipes.  Mirrors the send path's handling.
            pass
        except (EOFError, pickle.UnpicklingError) as exc:
            # Both processes are alive but the stream is unreadable — the
            # launcher cannot see this, so wake the local rank ourselves.
            if not self._closed:
                self.abort(f"corrupted stream from rank {peer}: {exc}")
        finally:
            self._departed.add(peer)
            try:
                sock.close()
            except OSError:
                pass

    # -------------------------------------------------------------- close
    def _shutdown_socket_peers(self) -> None:
        for sock in self._sock_peers.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def _join_socket_receivers(self) -> None:
        for thread in self._sock_receivers:
            thread.join(timeout=2.0)


class SocketEndpoint(SocketPeerMixin, MeshEndpoint):
    """One rank's view of the TCP socket mesh."""

    def __init__(
        self, rank: int, world_size: int, channels: Sequence[str] = DEFAULT_CHANNELS
    ) -> None:
        super().__init__(rank, world_size, channels)
        self._init_socket_peers()

    def _send_frame(self, message: Message, channel: str) -> None:
        self._send_socket_frame(message, channel)

    def _shutdown_transport(self) -> None:
        self._shutdown_socket_peers()

    def _join_receivers(self) -> None:
        self._join_socket_receivers()


# ---------------------------------------------------------------------------
# rendezvous service (launcher side) + mesh establishment (rank side)
# ---------------------------------------------------------------------------
class _RendezvousService:
    """Launcher-side seed server: collect every rank's payload, broadcast
    the map.

    Serving the rendezvous from the launcher (instead of a fork-inherited
    listener inside rank 0) keeps the worker arguments free of live
    sockets — pickle-clean, so the ``spawn`` start method and the ``tcp``
    backend's cross-launcher seed use the same worker entry point.  For
    multi-launcher worlds only the launcher owning the seed address runs
    a service; every rank of every launcher connects to it as a client.
    """

    def __init__(
        self, world_size: int, addr: Tuple[str, int] = ("127.0.0.1", 0)
    ) -> None:
        self._world_size = world_size
        self._listener = _bind_listener(addr, backlog=world_size)
        #: The address ranks dial (concrete port even for ephemeral binds).
        self.addr: Tuple[str, int] = self._listener.getsockname()[:2]
        self._thread = threading.Thread(
            target=self._serve, name="rendezvous-seed", daemon=True
        )
        self._thread.start()

    def _serve(self) -> None:
        listener = self._listener
        listener.settimeout(_SETUP_TIMEOUT)
        payload_map: Dict[int, Any] = {}
        conns: List[socket.socket] = []
        try:
            while len(conns) < self._world_size:
                conn, _ = listener.accept()
                conn.settimeout(_SETUP_TIMEOUT)
                peer_rank, peer_payload = _recv_obj(conn)
                payload_map[int(peer_rank)] = peer_payload
                conns.append(conn)
            for conn in conns:
                _send_obj(conn, payload_map)
        except OSError:
            # Listener closed during teardown, or the accept timed out
            # because some rank never dialled in; the ranks observe their
            # own rendezvous failures and report through the launcher.
            pass
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:
                    pass

    def close(self) -> None:
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        self._thread.join(timeout=1.0)


def _rendezvous(
    rank: int,
    world_size: int,
    rendezvous_addr: Tuple[str, int],
    my_payload: Any,
) -> Dict[int, Any]:
    """Register with the seed service, receive the full payload map back.

    Used by the socket mesh (payloads are data-listener addresses) and
    as the setup barrier of the shm mesh (payloads are readiness
    markers, the broadcast doubles as the "all segments exist" signal).
    The dial retries: across launchers the seed may not be bound yet.
    """
    conn = _connect_with_retry(rendezvous_addr, _SETUP_TIMEOUT, what="rendezvous seed")
    conn.settimeout(_SETUP_TIMEOUT)
    try:
        _send_obj(conn, (rank, my_payload))
        payload_map = _recv_obj(conn)
    finally:
        conn.close()
    if len(payload_map) != world_size:
        raise RuntimeError(
            f"rendezvous returned {len(payload_map)} registrations for a "
            f"world of {world_size}"
        )
    return payload_map


def _build_mesh(
    rank: int,
    world_size: int,
    channels: Sequence[str],
    rendezvous_addr: Tuple[str, int],
    bind_host: str = "127.0.0.1",
) -> SocketEndpoint:
    endpoint = SocketEndpoint(rank, world_size, channels)
    if world_size == 1:
        return endpoint

    data_listener = _bind_listener((bind_host, 0), backlog=world_size)
    data_listener.settimeout(_SETUP_TIMEOUT)
    my_addr = data_listener.getsockname()[:2]

    # --- seed rendezvous: register, receive the full address map --------
    addr_map = _rendezvous(rank, world_size, rendezvous_addr, my_addr)

    # --- full mesh: dial the higher ranks, accept the lower ones --------
    for peer in range(rank + 1, world_size):
        sock = _connect_with_retry(
            tuple(addr_map[peer]), _SETUP_TIMEOUT, what=f"rank {peer}"
        )
        sock.sendall(_RANK_ID.pack(rank))
        endpoint.attach_peer(peer, sock)
    for _ in range(rank):
        sock, _ = data_listener.accept()
        sock.settimeout(_SETUP_TIMEOUT)
        raw = _read_exact(sock, _RANK_ID.size)
        if raw is None:
            raise ConnectionResetError("mesh peer closed during handshake")
        (peer,) = _RANK_ID.unpack(raw)
        endpoint.attach_peer(int(peer), sock)
    data_listener.close()
    return endpoint


# ---------------------------------------------------------------------------
# rank worker (child process)
# ---------------------------------------------------------------------------
def _pickle_safe_exception(exc: BaseException) -> BaseException:
    """Return ``exc`` if it survives a pickle round-trip, else a stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure takes the fallback
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _abort_listener(control, endpoint: MeshEndpoint, done: threading.Event) -> None:
    while not done.is_set():
        try:
            if control.poll(0.1):
                control.recv()
                endpoint.abort("aborted by launcher: another rank failed")
                return
        except (EOFError, OSError):
            return


def _worker_main(
    rank: int,
    world_size: int,
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    kwargs: Dict[str, Any],
    mesh_builder: Callable[..., MeshEndpoint],
    mesh_args: Tuple[Any, ...],
    channels: Sequence[str],
    channel: str,
    default_recv_timeout: Optional[float],
    result_conn,
    control_conn,
) -> None:
    endpoint: Optional[MeshEndpoint] = None
    done = threading.Event()
    try:
        endpoint = mesh_builder(rank, world_size, channels, *mesh_args)
        listener = threading.Thread(
            target=_abort_listener,
            args=(control_conn, endpoint, done),
            name=f"abort-listener-r{rank}",
            daemon=True,
        )
        listener.start()
        comm = Communicator(
            endpoint, rank, channel=channel, default_timeout=default_recv_timeout
        )
        result = fn(comm, *args, **kwargs)
        try:
            result_conn.send(("ok", result))
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            result_conn.send(
                (
                    "err",
                    RuntimeError(
                        f"rank {rank} returned an unpicklable result "
                        f"({type(result).__name__}): {exc}"
                    ),
                    traceback.format_exc(),
                )
            )
    except BaseException as exc:  # noqa: BLE001 - reported to the launcher
        try:
            result_conn.send(("err", _pickle_safe_exception(exc), traceback.format_exc()))
        except (OSError, ValueError, EOFError):
            pass
    finally:
        done.set()
        if endpoint is not None:
            endpoint.close()
        try:
            result_conn.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# the backend (launcher side)
# ---------------------------------------------------------------------------
@register_backend("process")
class ProcessBackend(CommBackend):
    """One OS process per rank over a local TCP socket mesh.

    The launcher below — spawn, result collection, liveness checks, the
    abort broadcast, the hang/timeout handling — is transport-agnostic;
    the shm backend (:mod:`repro.comm.shm_backend`) subclasses this
    class and overrides only the ``_setup_world`` / ``_mesh_args`` /
    ``_cleanup_world`` hooks that describe the byte pipe.
    """

    name = "process"

    #: Grace period for surviving ranks to drain after an abort broadcast.
    abort_grace: float = 10.0

    #: Start methods tried (in order) when the caller does not pick one.
    _START_METHOD_PREFERENCE: Tuple[str, ...] = ("fork", "spawn")

    def _context(self, start_method: Optional[str] = None):
        if start_method is not None:
            try:
                return multiprocessing.get_context(start_method)
            except ValueError as exc:
                raise ValueError(
                    f"unknown multiprocessing start method {start_method!r}; "
                    f"available: {multiprocessing.get_all_start_methods()}"
                ) from exc
        for method in self._START_METHOD_PREFERENCE:
            try:
                return multiprocessing.get_context(method)
            except ValueError:  # pragma: no cover - non-POSIX platforms
                continue
        raise BackendUnavailableError(  # pragma: no cover - spawn always exists
            f"the {self.name} backend found no usable start method; "
            "use backend='thread' on this platform"
        )

    # ------------------------------------------------------ transport hooks
    def _reject_unknown_opts(self, opts: Dict[str, Any]) -> None:
        if opts:
            raise TypeError(
                f"{self.name} backend got unexpected options {sorted(opts)}"
            )

    def _setup_world(self, ctx, world_size: int, opts: Dict[str, Any]) -> Dict[str, Any]:
        """Allocate launcher-side transport state.

        Everything handed to the workers afterwards (via
        :meth:`_mesh_args`) must be picklable: the rendezvous runs as a
        launcher-side service, so the workers only ever see its address.
        """
        self._reject_unknown_opts(opts)
        if world_size == 1:
            return {"service": None, "addr": None}
        service = _RendezvousService(world_size)
        return {"service": service, "addr": service.addr}

    def _mesh_builder(self) -> Callable[..., MeshEndpoint]:
        return _build_mesh

    def _mesh_args(self, setup: Dict[str, Any], rank: int) -> Tuple[Any, ...]:
        return (setup["addr"],)

    def _post_spawn(self, setup: Dict[str, Any]) -> None:
        """Release launcher copies of resources the children inherited."""

    def _cleanup_world(self, setup: Dict[str, Any]) -> None:
        """Tear down launcher-side transport state after the world ended."""
        service = setup.get("service")
        if service is not None:
            service.close()

    # -------------------------------------------------------------- launch
    def run(
        self,
        fn: Callable[..., Any],
        world_size: int,
        args: Tuple[Any, ...] = (),
        kwargs: Optional[Dict[str, Any]] = None,
        *,
        channels: Sequence[str] = DEFAULT_CHANNELS,
        channel: str = Channel.APP,
        timeout: Optional[float] = 300.0,
        default_recv_timeout: Optional[float] = 120.0,
        **opts: Any,
    ) -> List[Any]:
        kwargs = kwargs or {}
        start_method = opts.pop("start_method", None)
        ctx = self._context(start_method)
        setup = self._setup_world(ctx, world_size, opts)
        # A launcher may own only a subset of the ranks (the tcp backend's
        # multi-launcher mode); by default it spawns and monitors them all.
        local_ranks = list(setup.get("local_ranks") or range(world_size))
        try:
            result_pipes = {rank: ctx.Pipe(duplex=False) for rank in local_ranks}
            control_pipes = {rank: ctx.Pipe(duplex=False) for rank in local_ranks}
            procs: Dict[int, Any] = {}
            mesh_builder = self._mesh_builder()
            for rank in local_ranks:
                proc = ctx.Process(
                    target=_worker_main,
                    args=(
                        rank,
                        world_size,
                        fn,
                        args,
                        kwargs,
                        mesh_builder,
                        self._mesh_args(setup, rank),
                        tuple(channels),
                        channel,
                        default_recv_timeout,
                        result_pipes[rank][1],
                        control_pipes[rank][0],
                    ),
                    name=f"rank{rank}",
                    daemon=True,
                )
                procs[rank] = proc
                proc.start()
            # The children hold their ends now; release the parent's copies.
            self._post_spawn(setup)
            for recv_end, send_end in result_pipes.values():
                send_end.close()
            for recv_end, send_end in control_pipes.values():
                recv_end.close()
            return self._monitor(procs, result_pipes, control_pipes, world_size, timeout)
        finally:
            self._cleanup_world(setup)

    # ------------------------------------------------------------- monitor
    def _monitor(
        self,
        procs: Dict[int, Any],
        result_pipes: Dict[int, Any],
        control_pipes: Dict[int, Any],
        world_size: int,
        timeout: Optional[float],
    ) -> List[Any]:
        """Collect results from this launcher's ranks (keys of ``procs``).

        Returns a list indexed by *global* rank; positions owned by
        another launcher stay ``None``.  Failure semantics are per
        launcher: each launcher aborts and reports its own ranks, a
        remote launcher's crash surfaces here as peer departures (or a
        timeout) on the local ranks.
        """
        results: List[Any] = [None] * world_size
        reported: Dict[int, bool] = {}
        failures: Dict[int, BaseException] = {}
        tracebacks: Dict[int, str] = {}
        aborted = False

        def _broadcast_abort() -> None:
            nonlocal aborted
            if aborted:
                return
            aborted = True
            for rank in procs:
                if rank not in reported:
                    try:
                        control_pipes[rank][1].send("abort")
                    except (OSError, ValueError, BrokenPipeError):
                        pass

        def _drain(rank: int) -> None:
            conn = result_pipes[rank][0]
            try:
                if conn.poll(0):
                    outcome = conn.recv()
                    reported[rank] = True
                    if outcome[0] == "ok":
                        results[rank] = outcome[1]
                    else:
                        failures[rank] = outcome[1]
                        tracebacks[rank] = outcome[2]
            except (EOFError, OSError):
                pass  # handled by the liveness check below

        deadline = None if timeout is None else time.monotonic() + timeout
        grace_deadline: Optional[float] = None
        timed_out = False
        while len(reported) < len(procs):
            for rank in procs:
                if rank not in reported:
                    _drain(rank)
            for rank, proc in procs.items():
                if rank not in reported and not proc.is_alive():
                    _drain(rank)  # result may have raced the exit
                    if rank not in reported:
                        reported[rank] = True
                        failures[rank] = ProcessCrashError(
                            f"rank {rank} exited with code {proc.exitcode} "
                            "without reporting a result"
                        )
                        tracebacks[rank] = ""
            if failures:
                _broadcast_abort()
                if grace_deadline is None:
                    grace_deadline = time.monotonic() + self.abort_grace
            if len(reported) >= len(procs):
                break
            now = time.monotonic()
            if grace_deadline is not None and now >= grace_deadline:
                break
            if deadline is not None and now >= deadline:
                timed_out = True
                _broadcast_abort()
                # Short grace only: a rank blocked in communication wakes
                # on the abort, one stuck in compute needs terminate().
                grace_deadline = now + min(2.0, self.abort_grace)
                deadline = None
            # Block until a result arrives or a child exits — no busy
            # polling.  A drained-but-alive rank's pipe never re-signals,
            # so only unreported ranks' handles are waited on.
            pending = [r for r in procs if r not in reported]
            handles: List[Any] = [result_pipes[r][0] for r in pending]
            handles += [procs[r].sentinel for r in pending]
            wait_bounds = [
                b - time.monotonic()
                for b in (deadline, grace_deadline)
                if b is not None
            ]
            multiprocessing.connection.wait(
                handles, timeout=max(0.0, min(wait_bounds)) if wait_bounds else None
            )

        hung = []
        for rank, proc in procs.items():
            proc.join(timeout=0.5)
            if proc.is_alive():
                hung.append(proc.name)
                proc.terminate()
                proc.join(timeout=2.0)
                if proc.is_alive():  # pragma: no cover - terminate() sufficed so far
                    proc.kill()
                    proc.join(timeout=1.0)
        for rank in procs:
            for conn in (result_pipes[rank][0], control_pipes[rank][1]):
                try:
                    conn.close()
                except OSError:
                    pass

        if (timed_out or hung) and not failures:
            raise WorldError(
                {-1: TimeoutError(f"ranks did not finish within {timeout}s: {hung}")},
                {-1: ""},
            )
        if failures:
            raise WorldError(failures, tracebacks)
        return results
