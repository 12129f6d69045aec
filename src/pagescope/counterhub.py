"""Hardware-counter sessions with named, nestable region attribution.

A session reads a fixed set of cumulative event counters from a backend
(the OS perf interface, or a deterministic simulated backend for desk-scale
testing). A RegionCollector brackets code with begin/end calls and merges
the counter deltas into per-region records, PAPI-style: nesting is allowed
and attribution is inclusive (a parent's totals include its children).
"""

from __future__ import annotations

import ctypes
import enum
import os
import platform
import struct
from dataclasses import dataclass, field


class EventId(enum.Enum):
    CpuCycles = "cpu-cycles"
    CacheMisses = "cache-misses"
    DtlbLoadMisses = "dtlb-load-misses"
    SveInstRetired = "sve-inst-retired"
    StalledCyclesBackend = "stalled-cycles-backend"
    StalledCyclesFrontend = "stalled-cycles-frontend"


# Platform event-name strings, bit-exact: used in config files and report labels.
EVENT_NAMES: dict[EventId, str] = {
    EventId.CpuCycles: "PERF_COUNT_HW_CPU_CYCLES",
    EventId.CacheMisses: "PERF_COUNT_HW_CACHE_MISSES",
    EventId.DtlbLoadMisses: "DTLB-LOAD-MISSES",
    EventId.SveInstRetired: "SVE_INST_RETIRED",
    EventId.StalledCyclesBackend: "PERF_COUNT_HW_STALLED_CYCLES_BACKEND",
    EventId.StalledCyclesFrontend: "PERF_COUNT_HW_STALLED_CYCLES_FRONTEND",
}

NAME_TO_EVENT: dict[str, EventId] = {name: ev for ev, name in EVENT_NAMES.items()}

ALL_EVENTS: frozenset[EventId] = frozenset(EventId)

PAPI_EVENTS_ENV = "PAPI_EVENTS"


class UnknownEventName(ValueError):
    pass


class _EventError(RuntimeError):
    """A counter that cannot be opened. The message leads with the event's
    name when one is given; `reason` is the message without it."""

    def __init__(self, reason: str, event: EventId | None = None):
        super().__init__(reason if event is None
                         else f"{EVENT_NAMES[event]}: {reason}")
        self.reason = reason


class UnsupportedEvent(_EventError):
    """The backend cannot program this event (hardware or kernel limit)."""


class PermissionDenied(_EventError):
    """OS counter access forbidden (perf_event_paranoid, capabilities)."""


class CounterWentBackward(RuntimeError):
    """A cumulative counter decreased between reads; treated as corruption."""


class MismatchedRegion(RuntimeError):
    pass


class NoOpenRegion(RuntimeError):
    pass


def default_events() -> frozenset[EventId]:
    """The six-event working set, or the PAPI_EVENTS override if set."""
    override = os.environ.get(PAPI_EVENTS_ENV)
    if not override:
        return ALL_EVENTS
    return parse_event_names(override)


def parse_event_names(spec: str) -> frozenset[EventId]:
    events = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in NAME_TO_EVENT:
            raise UnknownEventName(f"unknown event name: {token!r}")
        events.add(NAME_TO_EVENT[token])
    if not events:
        raise UnknownEventName("empty event set")
    return frozenset(events)


@dataclass(frozen=True)
class CounterSample:
    """Cumulative counter values at one instant."""

    values: dict[EventId, int]


@dataclass
class RegionRecord:
    """Summed counter deltas attributed to one named region."""

    name: str
    region_count: int
    totals: dict[EventId, int]

    def merged_with(self, other: "RegionRecord") -> "RegionRecord":
        if other.name != self.name:
            raise ValueError(f"cannot merge {other.name!r} into {self.name!r}")
        totals = dict(self.totals)
        for ev, v in other.totals.items():
            totals[ev] = totals.get(ev, 0) + v
        return RegionRecord(self.name, self.region_count + other.region_count, totals)


def aggregate(records: list[RegionRecord]) -> dict[str, RegionRecord]:
    """Merge records with equal names; distinct names pass through."""
    out: dict[str, RegionRecord] = {}
    for rec in records:
        if rec.name in out:
            out[rec.name] = out[rec.name].merged_with(rec)
        else:
            out[rec.name] = RegionRecord(rec.name, rec.region_count, dict(rec.totals))
    return out


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

SIM_TICK_NS = 1_000_000


class SimulatedBackend:
    """Deterministic backend: read N yields exactly N * increment per event.

    Events without a configured increment read 0. The clock advances by
    SIM_TICK_NS per read so downstream consumers see a monotonic clock that
    is reproducible across runs.
    """

    def __init__(self, increments: dict[EventId, int] | None = None):
        self.increments = dict(increments or {})
        self._reads = 0

    def open(self, events: frozenset[EventId]) -> None:
        pass

    def read(self, events: frozenset[EventId]) -> CounterSample:
        self._reads += 1
        values = {ev: self._reads * self.increments.get(ev, 0) for ev in events}
        return CounterSample(values)

    def now_ns(self) -> int:
        return self._reads * SIM_TICK_NS

    def close(self) -> None:
        pass


# perf_event_open plumbing (Linux). Constants from linux/perf_event.h.
_PERF_TYPE_HARDWARE = 0
_PERF_TYPE_HW_CACHE = 3
_PERF_TYPE_RAW = 4

_PERF_COUNT_HW_CPU_CYCLES = 0
_PERF_COUNT_HW_CACHE_MISSES = 3
_PERF_COUNT_HW_STALLED_CYCLES_FRONTEND = 7
_PERF_COUNT_HW_STALLED_CYCLES_BACKEND = 8

_PERF_COUNT_HW_CACHE_DTLB = 3
_PERF_COUNT_HW_CACHE_OP_READ = 0
_PERF_COUNT_HW_CACHE_RESULT_MISS = 1

# Arm PMU event number for retired SVE instructions; only programmable on
# SVE-capable cores, everywhere else the open fails and we report it.
_ARM_SVE_INST_RETIRED_RAW = 0x8002

_PERF_EVENT_CONFIGS: dict[EventId, tuple[int, int]] = {
    EventId.CpuCycles: (_PERF_TYPE_HARDWARE, _PERF_COUNT_HW_CPU_CYCLES),
    EventId.CacheMisses: (_PERF_TYPE_HARDWARE, _PERF_COUNT_HW_CACHE_MISSES),
    EventId.DtlbLoadMisses: (
        _PERF_TYPE_HW_CACHE,
        _PERF_COUNT_HW_CACHE_DTLB
        | (_PERF_COUNT_HW_CACHE_OP_READ << 8)
        | (_PERF_COUNT_HW_CACHE_RESULT_MISS << 16),
    ),
    EventId.SveInstRetired: (_PERF_TYPE_RAW, _ARM_SVE_INST_RETIRED_RAW),
    EventId.StalledCyclesFrontend: (_PERF_TYPE_HARDWARE,
                                    _PERF_COUNT_HW_STALLED_CYCLES_FRONTEND),
    EventId.StalledCyclesBackend: (_PERF_TYPE_HARDWARE,
                                   _PERF_COUNT_HW_STALLED_CYCLES_BACKEND),
}

_SYSCALL_NR = {"x86_64": 298, "aarch64": 241, "riscv64": 241}


class _PerfEventAttr(ctypes.Structure):
    _fields_ = [
        ("type", ctypes.c_uint),
        ("size", ctypes.c_uint),
        ("config", ctypes.c_ulonglong),
        ("sample_period", ctypes.c_ulonglong),
        ("sample_type", ctypes.c_ulonglong),
        ("read_format", ctypes.c_ulonglong),
        ("flags", ctypes.c_ulonglong),
        ("wakeup_events", ctypes.c_uint),
        ("bp_type", ctypes.c_uint),
        ("config1", ctypes.c_ulonglong),
        ("config2", ctypes.c_ulonglong),
    ]


_FLAG_INHERIT = 1 << 1  # children spawned after open count toward the read
_FLAG_EXCLUDE_KERNEL = 1 << 5
_FLAG_EXCLUDE_HV = 1 << 6


def _perf_event_open(attr: _PerfEventAttr) -> int:
    nr = _SYSCALL_NR.get(platform.machine())
    if nr is None or platform.system() != "Linux":
        raise UnsupportedEvent(f"no perf_event_open on {platform.system()}/"
                               f"{platform.machine()}")
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(ctypes.c_long(nr), ctypes.byref(attr),
                      ctypes.c_int(0), ctypes.c_int(-1),
                      ctypes.c_int(-1), ctypes.c_ulong(0))
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))
    return fd


class RealOsBackend:
    """Per-thread counters via the kernel perf interface.

    Availability differs per host: some events are simply not programmable
    on a given core or kernel, so probe() reports per-event state instead of
    assuming the full working set exists everywhere.
    """

    def __init__(self):
        self._fds: dict[EventId, int] = {}

    @staticmethod
    def _open_event(event: EventId) -> int:
        etype, config = _PERF_EVENT_CONFIGS[event]
        attr = _PerfEventAttr()
        attr.type = etype
        attr.size = ctypes.sizeof(_PerfEventAttr)
        attr.config = config
        attr.flags = _FLAG_INHERIT | _FLAG_EXCLUDE_KERNEL | _FLAG_EXCLUDE_HV
        try:
            return _perf_event_open(attr)
        except OSError as exc:
            if exc.errno in (13, 1):  # EACCES, EPERM
                raise PermissionDenied(
                    f"{exc.strerror}; check kernel.perf_event_paranoid",
                    event) from exc
            raise UnsupportedEvent(exc.strerror, event) from exc

    @classmethod
    def probe(cls, events: frozenset[EventId] = ALL_EVENTS) -> dict[EventId, str]:
        """Try each event once; return 'ok' or the failure reason per event."""
        result = {}
        for ev in sorted(events, key=lambda e: e.name):
            try:
                fd = cls._open_event(ev)
            except (UnsupportedEvent, PermissionDenied) as exc:
                # The caller shows each reason beside its event's name.
                result[ev] = exc.reason
            else:
                os.close(fd)
                result[ev] = "ok"
        return result

    def open(self, events: frozenset[EventId]) -> None:
        try:
            for ev in events:
                self._fds[ev] = self._open_event(ev)
        except Exception:
            self.close()
            raise

    def read(self, events: frozenset[EventId]) -> CounterSample:
        values = {}
        for ev in events:
            raw = os.read(self._fds[ev], 8)
            values[ev] = struct.unpack("<Q", raw)[0]
        return CounterSample(values)

    def close(self) -> None:
        for fd in self._fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._fds.clear()


# ---------------------------------------------------------------------------
# Sessions and regions
# ---------------------------------------------------------------------------

class CounterSession:
    """An open set of counters bound to one thread; reads are cumulative."""

    def __init__(self, backend, events: frozenset[EventId]):
        self.backend = backend
        self.events = events
        self._last: CounterSample | None = None

    def read(self) -> CounterSample:
        sample = self.backend.read(self.events)
        if self._last is not None:
            for ev in self.events:
                if sample.values[ev] < self._last.values[ev]:
                    raise CounterWentBackward(
                        f"{EVENT_NAMES[ev]} decreased: "
                        f"{self._last.values[ev]} -> {sample.values[ev]}")
        self._last = sample
        return sample

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "CounterSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_session(backend, events: frozenset[EventId] | set[EventId]) -> CounterSession:
    """Open counters for a non-empty subset of the six events.

    Raises UnsupportedEvent or PermissionDenied when the backend cannot
    program an event.
    """
    events = frozenset(events)
    if not events:
        raise ValueError("event set must be non-empty")
    unknown = events - ALL_EVENTS
    if unknown:
        raise UnknownEventName(f"not EventIds: {unknown}")
    backend.open(events)
    session = CounterSession(backend, events)
    # Counters are cumulative from open, so the baseline is the zero sample;
    # taking it without a backend read keeps the simulated backend's
    # N-reads = N*increment contract intact.
    session._last = CounterSample({ev: 0 for ev in events})
    return session


@dataclass
class _OpenRegion:
    name: str
    snapshot: CounterSample


class RegionCollector:
    """begin/end bracketing with inclusive attribution into named records.

    Empty region names are accepted: a long run should not abort on a
    degenerate label, and tables print it as "(unnamed region)".
    """

    def __init__(self, session: CounterSession):
        self.session = session
        self._stack: list[_OpenRegion] = []
        self._records: dict[str, RegionRecord] = {}

    @property
    def depth(self) -> int:
        return len(self._stack)

    def region_begin(self, name: str) -> _OpenRegion:
        region = _OpenRegion(name, self.session.read())
        self._stack.append(region)
        return region

    def region_end(self, name: str) -> RegionRecord:
        if not self._stack:
            raise NoOpenRegion(f"region_end({name!r}) with no open region")
        innermost = self._stack[-1]
        if innermost.name != name:
            raise MismatchedRegion(
                f"region_end({name!r}) but innermost open region is "
                f"{innermost.name!r}")
        self._stack.pop()
        sample = self.session.read()
        delta = {ev: sample.values[ev] - innermost.snapshot.values[ev]
                 for ev in self.session.events}
        record = RegionRecord(name, 1, delta)
        if name in self._records:
            self._records[name] = self._records[name].merged_with(record)
        else:
            self._records[name] = record
        return record

    def records(self) -> dict[str, RegionRecord]:
        return {name: RegionRecord(r.name, r.region_count, dict(r.totals))
                for name, r in self._records.items()}
