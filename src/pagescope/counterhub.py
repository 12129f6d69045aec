"""Hardware-counter sessions.

An event is one EventId member whose value is its platform name
(`EventId("DTLB-LOAD-MISSES")` looks one up; an unknown name raises
ValueError). A session reads a fixed set of cumulative event counters
from a backend (the OS perf interface, or a deterministic simulated
backend for desk-scale testing); a reading is a plain `dict[EventId, int]`.
A caller brackets a region with two session reads and keeps each event's
difference as that region's totals. Counters that cannot be opened, or a
count that runs backward, raise CounterUnavailable.
"""

from __future__ import annotations

import ctypes
import enum
import errno
import os
import platform
import struct
import time


class EventId(enum.Enum):
    """A counter event. Its value is the platform event name, bit-exact:
    the spelling config files, `--events` and report labels use."""

    CpuCycles = "PERF_COUNT_HW_CPU_CYCLES"
    CacheMisses = "PERF_COUNT_HW_CACHE_MISSES"
    DtlbLoadMisses = "DTLB-LOAD-MISSES"
    SveInstRetired = "SVE_INST_RETIRED"
    StalledCyclesBackend = "PERF_COUNT_HW_STALLED_CYCLES_BACKEND"
    StalledCyclesFrontend = "PERF_COUNT_HW_STALLED_CYCLES_FRONTEND"

    @classmethod
    def _missing_(cls, value):
        # EventId(name) is the one lookup by name; an unknown one says so.
        raise ValueError(f"unknown event name: {value!r}")


ALL_EVENTS: frozenset[EventId] = frozenset(EventId)


class CounterUnavailable(RuntimeError):
    """Counters that cannot be opened or that read wrong; `cli.main`
    answers it with the --simulate-counters hint."""


def parse_event_names(spec: str) -> frozenset[EventId]:
    events = set()
    for token in spec.split(","):
        token = token.strip()
        if token:
            events.add(EventId(token))
    if not events:
        raise ValueError("empty event set")
    return frozenset(events)


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

    def read(self, events: frozenset[EventId]) -> dict[EventId, int]:
        self._reads += 1
        return {ev: self._reads * self.increments.get(ev, 0) for ev in events}

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
        raise OSError(errno.ENOSYS, f"no perf_event_open on {platform.system()}/"
                                    f"{platform.machine()}")
    libc = ctypes.CDLL(None, use_errno=True)
    fd = libc.syscall(ctypes.c_long(nr), ctypes.byref(attr),
                      ctypes.c_int(0), ctypes.c_int(-1),
                      ctypes.c_int(-1), ctypes.c_ulong(0))
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))
    return fd


def _reason(exc: OSError) -> str:
    """Why an event did not open, without the event's name."""
    if exc.errno in (errno.EACCES, errno.EPERM):
        return f"{exc.strerror}; check kernel.perf_event_paranoid"
    return exc.strerror


class RealOsBackend:
    """Per-thread counters via the kernel perf interface.

    Availability differs per host: some events are simply not programmable
    on a given core or kernel, so probe() reports per-event state instead of
    assuming the full working set exists everywhere.
    """

    now_ns = staticmethod(time.perf_counter_ns)  # a monotonic clock

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
        return _perf_event_open(attr)

    @classmethod
    def probe(cls, events: frozenset[EventId] = ALL_EVENTS) -> dict[EventId, str]:
        """Try each event once; return 'ok' or the failure reason per event."""
        result = {}
        for ev in sorted(events, key=lambda e: e.name):
            try:
                os.close(cls._open_event(ev))
                result[ev] = "ok"
            except OSError as exc:
                # The caller shows each reason beside its event's name.
                result[ev] = _reason(exc)
        return result

    def open(self, events: frozenset[EventId]) -> None:
        """Open each event, in member-name order. If any fails, close every
        one that opened and raise CounterUnavailable with each failure's
        reason, so a run learns it here, before anything has run."""
        failed = {}
        for ev in sorted(events, key=lambda e: e.name):
            try:
                self._fds[ev] = self._open_event(ev)
            except OSError as exc:
                failed[ev.value] = _reason(exc)
        if failed:
            self.close()
            raise CounterUnavailable(f"events not programmable: {failed}")

    def read(self, events: frozenset[EventId]) -> dict[EventId, int]:
        return {ev: struct.unpack("<Q", os.read(self._fds[ev], 8))[0]
                for ev in events}

    def close(self) -> None:
        for fd in self._fds.values():
            try:
                os.close(fd)
            except OSError:
                pass
        self._fds.clear()


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------

class CounterSession:
    """An open set of counters bound to one thread; reads are cumulative."""

    def __init__(self, backend, events: frozenset[EventId]):
        self.backend = backend
        self.events = events
        # Counters are cumulative from open, so the baseline is the zero
        # reading; taking it without a backend read keeps the simulated
        # backend's N-reads = N*increment contract intact.
        self._last = {ev: 0 for ev in events}

    def read(self) -> dict[EventId, int]:
        """Each event's count since the session opened."""
        reading = self.backend.read(self.events)
        for ev in self.events:
            if reading[ev] < self._last[ev]:
                raise CounterUnavailable(
                    f"{ev.value} decreased: {self._last[ev]} -> {reading[ev]}")
        self._last = reading
        return reading

    def close(self) -> None:
        self.backend.close()

    def __enter__(self) -> "CounterSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_session(backend, events: frozenset[EventId] | set[EventId]) -> CounterSession:
    """Open counters for a non-empty subset of the six events.

    Raises CounterUnavailable, naming each event and why, when the backend
    cannot program one of them.
    """
    events = frozenset(events)
    if not events:
        raise ValueError("event set must be non-empty")
    unknown = events - ALL_EVENTS
    if unknown:
        raise ValueError(f"not EventIds: {unknown}")
    backend.open(events)
    return CounterSession(backend, events)
