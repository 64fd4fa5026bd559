"""Seeded fault actors: the reusable injection primitives of the chaos lane.

Each actor wraps one class of real-world failure the serving stack claims
to survive, driven by an injected :class:`random.Random` so a chaos run is
reproducible from its seed:

* :class:`ProcessReaper` -- SIGKILLs victim processes (forked engine
  replicas, whole ``SO_REUSEPORT`` shards) picked from a candidate list.
* :class:`SpoolCorruptor` -- truncates, tears, and garbage-appends the
  JSONL telemetry/metrics spools and atomically-published JSON documents
  that the cross-process machinery reads, simulating writers that crashed
  mid-write and disks that lied.
* :class:`PeerFreezer` -- SIGSTOP/SIGCONT suspends a coordinator peer so
  its published state goes stale while its pid stays alive (the wedged-
  but-not-dead failure mode the staleness horizon exists for).
* :class:`ClockPerturber` -- a forward-skewing clock plus a latency
  wrapper for batch runners, perturbing QoS ticks and batch timing.
* :class:`NetworkMangler` -- the HTTP-client-path fault class: slow-loris
  header drips, byte-drip response readers, half-open connections
  (connect, then silence), and mid-body disconnects (RST after a partial
  request body).
* :class:`DiskFiller` -- squeezes :class:`repro.utils.diskbudget.DiskBudget`
  quotas down (and restores them), the disk-exhaustion fault class for
  spools, exchanges and stores.

Actors only *inject*; they never assert.  The invariant checks live in
:mod:`repro.chaos.invariants` and the composition (what fires when) in
:mod:`repro.chaos.schedule`.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import struct
import threading
import time

from repro.cluster.documents import pid_alive

#: The corruption modes :meth:`SpoolCorruptor.corrupt_file` draws from.
CORRUPTION_MODES = ("truncate", "tear", "garbage", "non_event")


class ProcessReaper:
    """SIGKILLs victims chosen by a seeded RNG; remembers every kill."""

    def __init__(self, rng: random.Random | None = None):
        self.rng = rng or random.Random(0)
        self.killed: list[int] = []

    def kill(self, pid: int) -> bool:
        """SIGKILL one pid; False when it was already gone."""
        try:
            os.kill(pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError, OSError):
            return False
        self.killed.append(pid)
        return True

    def reap(self, pids) -> int | None:
        """SIGKILL one live pid from ``pids`` (seeded choice), or None.

        Candidates are sorted first so the victim depends only on the RNG
        state and the candidate *set*, not on iteration order.
        """
        candidates = sorted(pid for pid in pids if pid_alive(pid))
        while candidates:
            victim = candidates.pop(self.rng.randrange(len(candidates)))
            if self.kill(victim):
                return victim
        return None


class PeerFreezer:
    """Suspends (SIGSTOP) and resumes (SIGCONT) peer processes.

    A frozen peer keeps its pid alive -- exactly the failure the staleness
    horizon (not pid liveness) must catch.  :meth:`thaw_all` makes cleanup
    safe to call from ``finally`` blocks regardless of how far a test got.
    """

    def __init__(self):
        self._frozen: set[int] = set()

    @property
    def frozen(self) -> set[int]:
        return set(self._frozen)

    def freeze(self, pid: int) -> bool:
        try:
            os.kill(pid, signal.SIGSTOP)
        except (ProcessLookupError, PermissionError, OSError):
            return False
        self._frozen.add(pid)
        return True

    def thaw(self, pid: int) -> bool:
        self._frozen.discard(pid)
        try:
            os.kill(pid, signal.SIGCONT)
        except (ProcessLookupError, PermissionError, OSError):
            return False
        return True

    def thaw_all(self) -> None:
        for pid in list(self._frozen):
            self.thaw(pid)


class SpoolCorruptor:
    """Damages spool files the way crashed writers and bad disks do.

    Modes (see :data:`CORRUPTION_MODES`):

    * ``truncate`` -- cut the file at a random byte offset (mid-line).
    * ``tear`` -- append the head of a JSON document with no newline (a
      writer that died mid-``write``); a later writer appending a full
      line turns the tear into one corrupt complete line.
    * ``garbage`` -- append a complete line of binary junk.
    * ``non_event`` -- append a complete line of *valid* JSON of the wrong
      shape (readers must reject structure, not just syntax).
    """

    def __init__(self, rng: random.Random | None = None):
        self.rng = rng or random.Random(0)
        self.corrupted: list[tuple[str, str]] = []

    def corrupt_file(self, path: str, mode: str | None = None) -> str | None:
        """Apply one corruption to ``path``; returns the mode used."""
        mode = mode or self.rng.choice(CORRUPTION_MODES)
        try:
            # Stat first: corrupting damages existing files, the append
            # modes must never conjure a spool that was not there.
            size = os.path.getsize(path)
            if mode == "truncate":
                if size == 0:
                    return None
                os.truncate(path, self.rng.randrange(size))
            else:
                with open(path, "ab") as handle:
                    if mode == "tear":
                        handle.write(b'{"type":"torn","at":17')
                    elif mode == "garbage":
                        junk = bytes(
                            self.rng.randrange(256) for _ in range(24)
                        )
                        handle.write(junk.replace(b"\n", b"\x00") + b"\n")
                    else:  # non_event
                        handle.write(b'[1,2,{"not":"an event"}]\n')
        except OSError:
            return None
        self.corrupted.append((path, mode))
        return mode

    def corrupt_spool(
        self, directory: str, mode: str | None = None,
        suffixes: tuple[str, ...] = (".jsonl", ".jsonl.old"),
    ) -> tuple[str, str] | None:
        """Corrupt one random spool file under ``directory``."""
        try:
            names = sorted(
                name for name in os.listdir(directory)
                if name.endswith(suffixes)
            )
        except OSError:
            return None
        while names:
            name = names.pop(self.rng.randrange(len(names)))
            path = os.path.join(directory, name)
            used = self.corrupt_file(path, mode)
            if used is not None:
                return path, used
        return None

    def corrupt_document(self, path: str) -> bool:
        """Clobber an atomically-published JSON document in place.

        The atomic-rename protocol makes a torn *publish* impossible, but
        not a corrupted file (disk fault, a foreign writer): readers must
        drop the document, not crash or merge garbage.
        """
        try:
            with open(path, "rb") as handle:
                content = handle.read()
            with open(path, "wb") as handle:
                handle.write(content[: max(1, len(content) // 2)])
        except OSError:
            return False
        self.corrupted.append((path, "document"))
        return True


class NetworkMangler:
    """Misbehaving HTTP clients, as injectable faults against a front-end.

    Every method opens a *real* TCP connection to ``(host, port)`` and
    abuses it the way broken or malicious clients do.  The front-end's
    hardening (read/write timeouts, header caps, connection cap with
    idle eviction) must reclaim every connection these methods park; the
    conformance tests assert the cap never leaks and well-behaved traffic
    keeps flowing alongside.

    All methods are best-effort and never raise (a refused or reset
    connection just means the server already defended itself); each
    records what it did in :attr:`mangled`.
    """

    def __init__(
        self,
        host: str,
        port: int,
        rng: random.Random | None = None,
        connect_timeout_s: float = 5.0,
    ):
        self.host = host
        self.port = int(port)
        self.rng = rng or random.Random(0)
        self.connect_timeout_s = float(connect_timeout_s)
        #: ``(mode, detail)`` per injection, in order.
        self.mangled: list[tuple[str, str]] = []
        self._lock = threading.Lock()
        self._held: list[socket.socket] = []

    def _connect(self) -> socket.socket | None:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError:
            return None
        return sock

    def _record(self, mode: str, detail: str = "") -> None:
        with self._lock:
            self.mangled.append((mode, detail))

    def _hold(self, sock: socket.socket) -> None:
        with self._lock:
            self._held.append(sock)

    # -- the fault modes ---------------------------------------------------
    def slow_loris(self, header_bytes: int = 24) -> bool:
        """Drip a partial request header, then park the connection open.

        The classic connection-exhaustion attack: the request never
        completes, so a front-end without read timeouts / idle eviction
        holds the connection forever.
        """
        sock = self._connect()
        if sock is None:
            return False
        try:
            drip = (
                b"POST /v1/models/x:predict HTTP/1.1\r\n"
                b"X-Drip: " + b"a" * max(1, header_bytes)
            )
            sock.sendall(drip)  # no terminating CRLFCRLF, ever
        except OSError:
            sock.close()
            return False
        self._hold(sock)
        self._record("slow_loris", f"{header_bytes} header bytes, parked")
        return True

    def half_open(self) -> bool:
        """Connect and go silent: not one byte, no FIN, no RST.

        Models a peer whose network vanished (pulled cable, dead NAT
        mapping).  Only the server's header-read timeout can reclaim it.
        """
        sock = self._connect()
        if sock is None:
            return False
        self._hold(sock)
        self._record("half_open", "connected, silent")
        return True

    def mid_body_disconnect(self, declared_bytes: int = 4096) -> bool:
        """Send headers declaring a body, half the body, then RST.

        ``SO_LINGER`` zero makes the close a hard RST, not a graceful
        FIN: the server's ``readexactly`` sees a reset mid-request and
        must account the connection without a response.
        """
        sock = self._connect()
        if sock is None:
            return False
        try:
            head = (
                b"POST /v1/models/x:predict HTTP/1.1\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + str(declared_bytes).encode() + b"\r\n"
                b"\r\n"
            )
            sock.sendall(head + b"{" + b" " * (declared_bytes // 2))
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                struct.pack("ii", 1, 0),
            )
        except OSError:
            sock.close()
            return False
        sock.close()
        self._record("mid_body_disconnect", f"declared {declared_bytes}")
        return True

    def byte_drip_reader(self, path: str = "/v1/metrics") -> bool:
        """Issue a full request, then stop reading the response.

        With a tiny receive buffer the server's response write stalls in
        its send buffer; the write timeout must reclaim the connection
        instead of blocking the handler forever.
        """
        sock = self._connect()
        if sock is None:
            return False
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1)
            request = (
                f"GET {path} HTTP/1.1\r\n"
                f"Host: {self.host}\r\n"
                f"Connection: keep-alive\r\n\r\n"
            ).encode()
            sock.sendall(request)
        except OSError:
            sock.close()
            return False
        self._hold(sock)  # never read: the response wedges in flight
        self._record("byte_drip_reader", path)
        return True

    def inject(self) -> str | None:
        """Fire one seeded-choice fault mode (the schedule's entry point)."""
        modes = (
            self.slow_loris,
            self.half_open,
            self.mid_body_disconnect,
            self.byte_drip_reader,
        )
        mode = modes[self.rng.randrange(len(modes))]
        return mode.__name__ if mode() else None

    def release_all(self) -> int:
        """Close every parked connection (the faults lift)."""
        with self._lock:
            held, self._held = self._held, []
        for sock in held:
            try:
                sock.close()
            except OSError:
                pass
        return len(held)


class DiskFiller:
    """Quota squeeze against the :class:`~repro.utils.diskbudget.DiskBudget`
    layer: the injectable form of a disk filling up.

    Rather than actually exhausting the filesystem (slow, dangerous,
    unkillable in CI), the filler shrinks budgets to (at or below) their
    current usage -- every subsequent write is over quota, exactly the
    degrade path real ENOSPC exercises through ``note_enospc``.
    :meth:`restore` lifts the fault, and recovery must follow.
    """

    def __init__(self, rng: random.Random | None = None):
        self.rng = rng or random.Random(0)
        self._originals: dict[int, tuple[object, int]] = {}
        self._lock = threading.Lock()
        #: ``(budget name, squeezed-to bytes)`` per squeeze, in order.
        self.squeezed: list[tuple[str, int]] = []

    def squeeze(self, budget, to_bytes: int | None = None) -> int:
        """Shrink ``budget`` so current usage (or ``to_bytes``) is the cap.

        Remembers the original quota (first squeeze wins) for
        :meth:`restore`.
        """
        with self._lock:
            key = id(budget)
            if key not in self._originals:
                self._originals[key] = (budget, budget.max_bytes)
        if to_bytes is None:
            # At-or-below current usage: the very next write is denied.
            to_bytes = max(1, budget.usage_bytes(refresh=True) // 2)
        budget.set_max_bytes(int(to_bytes))
        self.squeezed.append((budget.name, int(to_bytes)))
        return int(to_bytes)

    def squeeze_one(self, budgets) -> str | None:
        """Squeeze one seeded-choice budget from ``budgets``."""
        budgets = sorted(budgets, key=lambda budget: budget.name)
        if not budgets:
            return None
        victim = budgets[self.rng.randrange(len(budgets))]
        self.squeeze(victim)
        return victim.name

    def restore(self) -> int:
        """Put every squeezed budget back to its original quota."""
        with self._lock:
            originals, self._originals = self._originals, {}
        for budget, max_bytes in originals.values():
            budget.set_max_bytes(max_bytes)
        return len(originals)


class ClockPerturber:
    """Forward-skewing clock plus a seeded latency tax for batch runners.

    :meth:`clock` stays monotone (skew only jumps forward), so it is safe
    to hand to :class:`repro.serve.qos.QoSController` -- perturbation
    compresses the controller's perceived sustain/cooldown windows without
    ever running time backwards.  :meth:`wrap_runner` adds a seeded delay
    to each executed batch, the injection point for service-time jitter.
    """

    def __init__(
        self,
        rng: random.Random | None = None,
        base_clock=time.monotonic,
        max_skew_s: float = 0.05,
        max_delay_s: float = 0.005,
    ):
        self.rng = rng or random.Random(0)
        self.base_clock = base_clock
        self.max_skew_s = float(max_skew_s)
        self.max_delay_s = float(max_delay_s)
        self._offset = 0.0
        self._lock = threading.Lock()

    def clock(self) -> float:
        with self._lock:
            return self.base_clock() + self._offset

    def perturb(self) -> float:
        """Jump the clock forward by a seeded skew; returns the jump."""
        jump = self.rng.uniform(0.0, self.max_skew_s)
        with self._lock:
            self._offset += jump
        return jump

    def wrap_runner(self, runner):
        """``runner`` plus a seeded pre-execution delay per batch.

        Forwards the batcher's ``trace=`` carrier.
        """

        def perturbed(payloads, trace=None):
            delay = self.rng.uniform(0.0, self.max_delay_s)
            if delay > 0:
                time.sleep(delay)
            return runner(payloads, trace=trace)

        return perturbed
