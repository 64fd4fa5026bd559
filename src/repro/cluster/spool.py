"""Event spools: per-writer append-only JSONL files + a merging follower.

The cross-process (and now cross-machine) event transport: each writer
appends events to its own ``<role>-<pid>.jsonl`` file in a shared spool
directory (append-only, one JSON document per line, atomic size-based
rotation to a single ``.old`` generation), and a :class:`SpoolFollower`
tails every file in the directory into one merged stream.  The telemetry
bus, the sharded metrics spool and the sweep progress ticker are all
thin clients of this module.  :class:`RingStore` turns a spool directory
into a bounded, restart-surviving event history (the alert history and
the trace ring).

**Ordering across clock skew.**  Events carry a wall-clock ``at`` stamp
(they cross processes and machines, so monotonic clocks would not
compare), but wall clocks drift and can be stepped -- on another machine
or under :class:`repro.chaos.actors.ClockPerturber`, a writer's
timestamps may jump backwards.  Each writer therefore also stamps a
**per-writer monotonic sequence number** (``wseq``) into every record,
and the follower merges with per-writer *monotone-clamped* effective
timestamps: one writer's events can never be reordered or interleaved
out of write order by its own clock going backwards, while cross-writer
order still approximates wall time.  Old spools without the field fall
back to file order, which is the same guarantee for records written by
one process.
"""

from __future__ import annotations

import io
import json
import os
import threading

from repro.cluster.documents import pid_alive

#: Rotate a spool file once it grows past this many bytes (one rotated
#: ``.old`` generation is kept so followers can finish reading it).
DEFAULT_ROTATE_BYTES = 4 * 1024 * 1024

#: How far back :class:`SpoolWriter` looks in an existing file to resume
#: its per-writer sequence counter (a tail window is enough: sequence
#: numbers only need to keep growing, not be dense).
_WSEQ_TAIL_BYTES = 64 * 1024


class Event:
    """One typed telemetry event.

    ``type`` names the event (``point_finished``, ``rung_transition``,
    ...); ``at`` is a ``time.time()`` wall-clock stamp (events cross
    processes, so monotonic clocks would not compare); ``source``
    identifies the publishing process (pid, role, optional shard index);
    ``seq`` orders events of one publisher; ``wseq`` is the per-writer
    monotonic spool sequence stamped at append time (``None`` until the
    event hits a spool, and on records written before the field
    existed); ``data`` carries the JSON-able payload.
    """

    __slots__ = ("type", "at", "source", "seq", "data", "wseq")

    def __init__(
        self, type: str, at: float, source: dict, seq: int, data: dict,
        wseq: int | None = None,
    ):
        self.type = type
        self.at = at
        self.source = source
        self.seq = seq
        self.data = data
        self.wseq = wseq

    def to_json(self) -> str:
        document = {
            "type": self.type,
            "at": self.at,
            "source": self.source,
            "seq": self.seq,
            "data": self.data,
        }
        if self.wseq is not None:
            document["wseq"] = self.wseq
        return json.dumps(document, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "Event":
        doc = json.loads(line)
        if not isinstance(doc, dict):
            raise ValueError(f"event line is not a JSON object: {line!r}")
        wseq = doc.get("wseq")
        return cls(
            type=doc["type"],
            at=float(doc["at"]),
            source=doc.get("source", {}),
            seq=int(doc.get("seq", 0)),
            data=doc.get("data", {}),
            wseq=int(wseq) if wseq is not None else None,
        )

    def describe(self) -> dict:
        return {
            "type": self.type,
            "at": self.at,
            "source": self.source,
            "seq": self.seq,
            "data": self.data,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.type!r}, seq={self.seq}, data={self.data!r})"


class SpoolWriter:
    """Append-only JSONL writer for one process's share of a spool dir.

    The file is named ``<role>-<pid>.jsonl`` so concurrent writers never
    contend; a write is one line + flush (readers only parse complete
    lines).  Once the file passes ``rotate_bytes`` it is atomically
    renamed to ``.old`` (replacing the previous generation) and a fresh
    file is started.  The writer is fork-safe: a pid change is detected on
    the next append and a new per-pid file is opened.

    Every appended record is stamped with this writer's monotonic
    ``wseq`` (resumed from the file tail when re-opening an existing
    spool, carried across rotation) so followers can order one writer's
    events even when its wall clock is skewed or stepped.
    """

    #: Inherited parent file objects abandoned after a fork.  Kept alive
    #: forever (one small object per fork) so their destructors never run:
    #: close()/GC-flush in the child would write the child's copy of any
    #: partially-buffered parent line into the parent's shared fd, tearing
    #: the parent's next event line.
    _ABANDONED_HANDLES: list = []

    def __init__(
        self, directory: str, role: str = "events",
        rotate_bytes: int = DEFAULT_ROTATE_BYTES,
        budget=None,
    ):
        self.directory = str(directory)
        self.role = role
        self.rotate_bytes = int(rotate_bytes)
        #: Optional :class:`repro.utils.diskbudget.DiskBudget` over the
        #: spool directory.  Telemetry is auxiliary: an event that would
        #: bust the quota (or hits real ENOSPC) is *dropped and counted*,
        #: never raised into the publishing hot path.
        self.budget = budget
        self.dropped_events = 0
        self.enospc_drops = 0
        os.makedirs(self.directory, exist_ok=True)
        self._lock = threading.Lock()
        self._pid: int | None = None
        self._handle: io.TextIOWrapper | None = None
        self._written = 0
        self._wseq = 0

    @property
    def path(self) -> str:
        return os.path.join(self.directory, f"{self.role}-{os.getpid()}.jsonl")

    def _recover_wseq(self) -> int:
        """The highest ``wseq`` already in this writer's file pair.

        Re-opening an existing spool (a restart reusing a pid, or a
        rotation-surviving writer) must keep the sequence monotone; only
        the tail window is scanned -- a partial first line after the
        seek simply fails to parse and is skipped.
        """
        best = 0
        for path in (self.path + ".old", self.path):
            try:
                size = os.path.getsize(path)
                with open(path, "rb") as handle:
                    handle.seek(max(0, size - _WSEQ_TAIL_BYTES))
                    tail = handle.read()
            except OSError:
                continue
            for line in tail.splitlines():
                try:
                    doc = json.loads(line)
                    best = max(best, int(doc.get("wseq", 0)))
                except (TypeError, ValueError):
                    continue
        return best

    def _ensure_open(self) -> None:
        pid = os.getpid()
        if self._handle is not None and self._pid == pid:
            if self._handle.closed:  # pragma: no cover - failed rotation
                self._handle = None
            else:
                return
        if self._handle is not None:
            # Crossed a fork: the handle belongs to the parent's file.
            # Never close it here (see _ABANDONED_HANDLES).
            SpoolWriter._ABANDONED_HANDLES.append(self._handle)
        self._pid = pid
        self._handle = open(self.path, "a", encoding="utf-8")
        self._written = self._handle.tell()
        self._wseq = self._recover_wseq()

    def rearm_after_fork(self) -> None:
        """Make this (inherited) spool usable in a freshly forked child.

        The inherited lock may be held by a parent thread that was inside
        :meth:`append` at fork time -- that thread does not exist in the
        child, so the lock would never be released.  The child is
        single-threaded at this point, so replacing the lock (and
        abandoning the inherited handle) is race-free.
        """
        self._lock = threading.Lock()
        if self._handle is not None:
            SpoolWriter._ABANDONED_HANDLES.append(self._handle)
            self._handle = None
        self._pid = None

    def append(self, event: Event) -> None:
        with self._lock:
            self._ensure_open()
            self._wseq += 1
            event.wseq = self._wseq
            line = event.to_json() + "\n"
            if self.budget is not None and not self.budget.admit(len(line)):
                # A dropped event leaves a gap in ``wseq`` -- the
                # sequence is monotone, not dense, so followers are
                # unaffected.
                self.dropped_events += 1
                return
            try:
                self._handle.write(line)
                self._handle.flush()
            except OSError as exc:
                from repro.utils.diskbudget import is_enospc

                if is_enospc(exc):
                    # The disk itself is full (quota or not): drop with a
                    # counter -- the degrade contract for spools.
                    self.dropped_events += 1
                    self.enospc_drops += 1
                    if self.budget is not None:
                        self.budget.note_enospc()
                    return
                raise
            self._written += len(line)
            if self._written >= self.rotate_bytes:
                self._rotate()

    def stats(self) -> dict:
        """Degrade counters (and the budget's view, when one is attached)."""
        stats = {
            "dropped_events": self.dropped_events,
            "enospc_drops": self.enospc_drops,
        }
        if self.budget is not None:
            stats["budget"] = self.budget.snapshot()
        return stats

    def _rotate(self) -> None:
        # Drop the handle reference first: if the rename or reopen fails
        # (spool directory torn down mid-shutdown), the next append must
        # find no handle and retry the open -- never write to the closed
        # object, which would raise ValueError past publish()'s OSError
        # guard and crash the publishing thread.
        handle, self._handle = self._handle, None
        handle.close()
        try:
            os.replace(self.path, self.path + ".old")
        except OSError:  # pragma: no cover - spool dir torn down
            pass
        self._handle = open(self.path, "a", encoding="utf-8")
        self._written = 0
        if self.budget is not None:
            # Rotation just deleted the previous ``.old`` generation;
            # re-ground the quota so writes resume as soon as space does.
            self.budget.usage_bytes(refresh=True)

    def close(self) -> None:
        with self._lock:
            if self._handle is not None and self._pid == os.getpid():
                try:
                    self._handle.close()
                except OSError:  # pragma: no cover
                    pass
            self._handle = None
            self._pid = None


class SpoolFollower:
    """Tails every spool file of a directory, yielding new events.

    Per-file read offsets persist across :meth:`poll` calls; only complete
    lines are parsed (a writer mid-line is picked up next poll).  Rotation
    is handled by watching the ``.old`` generation too and by detecting
    truncation (offset past the new, smaller file).

    Events of one poll are merged across files in wall-clock order --
    but per writer the order is made *skew-proof*: each writer's
    effective merge timestamp is clamped monotone (an event stamped
    earlier than its writer's previous event inherits that event's
    effective time) and ties break on the writer's ``wseq``, so a
    stepped or drifting clock on one machine can never reorder or mask
    that machine's events.  Records without ``wseq`` (old spools) use
    their file read order, which is the same per-writer guarantee.

    The follower is torn-write tolerant: a corrupt *complete* line (a
    crashed writer's garbage, a torn mid-file write, a non-event JSON
    document) is skipped and counted in :attr:`corrupt_lines` -- reading
    resumes at the next newline, so one bad line never kills a follower
    thread or hides the valid events behind it.  :meth:`stats` reports the
    damage per file.
    """

    def __init__(self, directory: str, skip_basenames: set[str] | None = None):
        self.directory = str(directory)
        self.skip_basenames = set(skip_basenames or ())
        self._offsets: dict[str, int] = {}
        self._inodes: dict[str, int] = {}
        #: Per-writer monotone clamp state: the effective merge timestamp
        #: of the writer's latest event (shared across its rotation pair).
        self._order_at: dict[str, float] = {}
        #: Per-writer fallback sequence for records without ``wseq``.
        self._order_seq: dict[str, int] = {}
        #: Complete-but-unparseable lines skipped so far (all files).
        self.corrupt_lines = 0
        self._corrupt_by_file: dict[str, int] = {}

    def _spool_names(self) -> list[str]:
        try:
            names = sorted(os.listdir(self.directory))
        except OSError:
            return []
        return [
            name
            for name in names
            if name.endswith((".jsonl", ".jsonl.old"))
            and name not in self.skip_basenames
            and name.removesuffix(".old") not in self.skip_basenames
        ]

    def _read_new(self, path: str, records: list) -> None:
        """Append ``(writer, event)`` for complete new lines of ``path``."""
        writer = os.path.basename(path).removesuffix(".old")
        offset = self._offsets.get(path, 0)
        try:
            if os.path.getsize(path) == offset:
                return
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            return
        # Only complete lines: a torn tail is re-read next poll.
        end = chunk.rfind(b"\n")
        if end < 0:
            return
        self._offsets[path] = offset + end + 1
        for line in chunk[: end + 1].splitlines():
            if not line.strip():
                continue
            try:
                records.append((writer, Event.from_json(line.decode("utf-8"))))
            except (ValueError, KeyError, TypeError):
                # Torn/garbage line: count it, keep tailing from the next
                # newline.  UnicodeDecodeError is a ValueError.
                self.corrupt_lines += 1
                name = os.path.basename(path)
                self._corrupt_by_file[name] = self._corrupt_by_file.get(name, 0) + 1
                continue

    @property
    def files(self) -> list[str]:
        """Paths of the spool files read so far (``.old`` generations too)."""
        return list(self._offsets)

    def stats(self) -> dict:
        """Corruption tally: total skipped lines and a per-file breakdown."""
        return {
            "corrupt_lines": self.corrupt_lines,
            "corrupt_by_file": dict(self._corrupt_by_file),
        }

    def poll(self) -> list[Event]:
        records: list[tuple[str, Event]] = []
        names = self._spool_names()
        mains = [name for name in names if name.endswith(".jsonl")]
        olds = {name for name in names if name.endswith(".jsonl.old")}
        for name in mains:
            main = os.path.join(self.directory, name)
            old = main + ".old"
            try:
                stat = os.stat(main)
                main_size, main_inode = stat.st_size, stat.st_ino
            except OSError:
                main_size, main_inode = 0, None
            known_inode = self._inodes.get(main)
            rotated = (
                # The inode changed: the file we were reading is now the
                # ``.old`` generation, even if the fresh main has already
                # grown past our stored offset (a size-only check misses
                # that and would resume mid-line in the wrong file).
                (known_inode is not None and main_inode != known_inode)
                or main_size < self._offsets.get(main, 0)
            )
            if main_inode is not None:
                self._inodes[main] = main_inode
            if rotated and main in self._offsets:
                # Everything we had consumed of the old main is now the
                # head of the fresh ``.old`` generation (an unread tail of
                # the *previous* ``.old`` is gone -- rotation keeps
                # exactly one generation).
                self._offsets[old] = self._offsets.pop(main)
            if os.path.basename(old) in olds:
                self._read_new(old, records)
                olds.discard(os.path.basename(old))
            self._read_new(main, records)
        for name in olds:  # orphaned .old (writer gone mid-rotation)
            self._read_new(os.path.join(self.directory, name), records)
        # Merge: per-writer monotone-clamped effective time, then writer,
        # then the writer's sequence.  Records are appended in file order
        # per writer (``.old`` before main), so the clamp sees each
        # writer's events in write order -- within and across polls.
        ordered: list[tuple[float, str, int, int, Event]] = []
        for writer, event in records:
            seq = event.wseq
            if seq is None:
                seq = self._order_seq.get(writer, 0) + 1
            self._order_seq[writer] = max(self._order_seq.get(writer, 0), seq)
            order_at = max(event.at, self._order_at.get(writer, event.at))
            self._order_at[writer] = order_at
            ordered.append(
                (order_at, writer, seq, event.source.get("pid", 0), event)
            )
        ordered.sort(key=lambda record: record[:4])
        return [record[4] for record in ordered]


def _writer_pid(basename: str) -> int | None:
    """The pid baked into a ``<role>-<pid>.jsonl`` spool basename."""
    stem = basename.removesuffix(".jsonl")
    _, _, pid_text = stem.rpartition("-")
    try:
        return int(pid_text)
    except ValueError:
        return None


class RingStore:
    """Ring-file persistence of selected event types in one directory.

    One :class:`SpoolWriter` per process appends the selected event
    types into ``directory`` with a small rotation size -- the "ring":
    disk usage is bounded, the newest window survives.

    :meth:`load` replays everything still in the ring (merged across
    writers/restarts in skew-proof spool order) and then *compacts*:
    files left by dead writers are folded into this process's fresh ring
    file and deleted, so restarts do not accumulate files forever.
    Files of live writers (peer shards sharing the directory) are left
    alone.
    """

    def __init__(self, directory: str, role: str, event_types,
                 rotate_bytes: int):
        self.directory = str(directory)
        self.event_types = frozenset(event_types)
        self._writer = SpoolWriter(self.directory, role, rotate_bytes)
        self._lock = threading.Lock()

    def record(self, event: Event) -> None:
        """Bus-subscriber entry point: persist the selected event types."""
        if event.type not in self.event_types:
            return
        try:
            self._writer.append(event)
        except (OSError, ValueError):  # pragma: no cover - dir torn down
            pass

    def load(self, compact: bool = True) -> list[Event]:
        """Replay the ring (merged, oldest first); optionally compact it.

        Compaction folds files abandoned by dead writers into this
        process's own ring file (bounded by its rotation) and unlinks
        them; live peers' files (shards sharing the directory) are left
        alone -- their events replay but are never re-appended, so the
        next restart sees each event exactly once.
        """
        with self._lock:
            own = os.path.basename(self._writer.path)
            follower = SpoolFollower(self.directory)
            events = follower.poll()
            if not compact:
                return events
            dead_pids: set[int] = set()
            for path in follower.files:
                base = os.path.basename(path).removesuffix(".old")
                if base == own:
                    continue
                pid = _writer_pid(base)
                if pid is None or pid_alive(pid):
                    continue
                try:
                    os.unlink(path)
                except OSError:
                    continue
                dead_pids.add(pid)
            # Re-append the dead writers' window under our own writer so
            # the next restart finds one ring, not a file per past process.
            for event in events:
                if (
                    event.source.get("pid") in dead_pids
                    and event.type in self.event_types
                ):
                    self._writer.append(event)
            return events

    def stats(self) -> dict:
        return {"writer": self._writer.stats()}

    def close(self) -> None:
        self._writer.close()
