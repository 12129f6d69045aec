import pytest

from pagescope import counterhub as ch
from pagescope.blockmesh import UnkLayout
from pagescope.counterhub import (
    ALL_EVENTS,
    CounterWentBackward,
    EventId,
    PermissionDenied,
    RegionRecord,
    SimulatedBackend,
    UnknownEventName,
    UnsupportedEvent,
    open_session,
)
from pagescope.hugepagectl import HugePageMode
from pagescope.report import WorkloadSpec, _run_rep


def test_event_name_mapping_is_exact_and_injective():
    assert EventId.CpuCycles.value == "PERF_COUNT_HW_CPU_CYCLES"
    assert EventId.CacheMisses.value == "PERF_COUNT_HW_CACHE_MISSES"
    assert EventId.DtlbLoadMisses.value == "DTLB-LOAD-MISSES"
    assert EventId.SveInstRetired.value == "SVE_INST_RETIRED"
    assert (EventId.StalledCyclesBackend.value
            == "PERF_COUNT_HW_STALLED_CYCLES_BACKEND")
    assert (EventId.StalledCyclesFrontend.value
            == "PERF_COUNT_HW_STALLED_CYCLES_FRONTEND")
    # An equal value would make a member an alias, not a seventh event.
    assert len({ev.value for ev in EventId}) == 6 == len(EventId)
    assert all(EventId(ev.value) is ev for ev in EventId)


def test_zero_increments_read_zero():
    session = open_session(SimulatedBackend({}), ALL_EVENTS)
    assert all(v == 0 for v in session.read().values())


def test_reads_are_deterministic_multiples():
    session = open_session(SimulatedBackend({EventId.CpuCycles: 100}),
                           {EventId.CpuCycles})
    got = [session.read()[EventId.CpuCycles] for _ in range(3)]
    assert got == [100, 200, 300]


def test_empty_event_set_rejected():
    with pytest.raises(ValueError):
        open_session(SimulatedBackend({}), set())


def test_papi_events_env_override(monkeypatch):
    monkeypatch.setenv(ch.PAPI_EVENTS_ENV,
                       "PERF_COUNT_HW_CPU_CYCLES,DTLB-LOAD-MISSES")
    assert ch.default_events() == {EventId.CpuCycles, EventId.DtlbLoadMisses}
    monkeypatch.delenv(ch.PAPI_EVENTS_ENV)
    assert ch.default_events() == ALL_EVENTS


def test_unknown_event_name_rejected(monkeypatch):
    monkeypatch.setenv(ch.PAPI_EVENTS_ENV, "NOT_AN_EVENT")
    with pytest.raises(UnknownEventName):
        ch.default_events()


def test_region_delta_single_pair():
    # One repetition brackets its kernel with two session reads; its record
    # is one region whose totals are the reads' difference.
    session = open_session(SimulatedBackend({EventId.CpuCycles: 500}),
                           ALL_EVENTS)
    session.read()  # a nonzero start, so only a difference reads 500
    workload = WorkloadSpec(kind="zone-sweep",
                            layout=UnkLayout.simple(2, 4, 4, 2, 2))
    clock = iter([1.0, 3.0])
    record, elapsed, _ = _run_rep(workload, HugePageMode.Off, session,
                                  lambda: next(clock))
    assert record == RegionRecord("zone-sweep", 1, record.totals)
    assert record.totals[EventId.CpuCycles] == 500
    assert record.totals[EventId.DtlbLoadMisses] == 0
    assert elapsed == 2.0


def test_two_pairs_merge():
    # A role's record is its repetitions' records merged in order.
    one = RegionRecord("EOS", 1, {EventId.CpuCycles: 500})
    merged = one.merged_with(one)
    assert merged == RegionRecord("EOS", 2, {EventId.CpuCycles: 1000})
    with pytest.raises(ValueError):
        one.merged_with(RegionRecord("Hydro", 1, {}))


def test_session_reads_monotonic():
    session = open_session(SimulatedBackend({ev: 3 for ev in EventId}), ALL_EVENTS)
    prev = session.read()
    for _ in range(5):
        cur = session.read()
        assert all(cur[ev] >= prev[ev] for ev in EventId)
        prev = cur


class _BrokenBackend:
    """Scripted backend whose counter goes backward on the second read."""

    def __init__(self):
        self.script = iter([100, 40])

    def open(self, events):
        pass

    def read(self, events):
        v = next(self.script)
        return {ev: v for ev in events}

    def close(self):
        pass


def test_counter_went_backward_detected():
    session = open_session(_BrokenBackend(), {EventId.CpuCycles})
    session.read()
    with pytest.raises(CounterWentBackward):
        session.read()


def test_realos_permission_denied(monkeypatch):
    def deny(attr):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(ch, "_perf_event_open", deny)
    with pytest.raises(PermissionDenied, match="^DTLB-LOAD-MISSES: Permission "
                       "denied; check kernel.perf_event_paranoid$"):
        open_session(ch.RealOsBackend(), {EventId.DtlbLoadMisses})


def test_realos_unsupported_event(monkeypatch):
    def missing(attr):
        raise OSError(2, "No such file or directory")

    monkeypatch.setattr(ch, "_perf_event_open", missing)
    with pytest.raises(UnsupportedEvent,
                       match="^SVE_INST_RETIRED: No such file or directory$"):
        open_session(ch.RealOsBackend(), {EventId.SveInstRetired})


def test_realos_probe_reports_per_event(monkeypatch):
    def flaky(attr):
        if attr.config == ch._ARM_SVE_INST_RETIRED_RAW:
            raise OSError(2, "No such file or directory")
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(ch, "_perf_event_open", flaky)
    state = ch.RealOsBackend.probe()
    assert set(state) == set(EventId)
    assert "No such file" in state[EventId.SveInstRetired]
    assert "perf_event_paranoid" in state[EventId.CpuCycles]
    assert all("ok" != msg for msg in state.values())
    # doctor prints each reason after its event's name; the reason omits it.
    assert all(ev.value not in msg for ev, msg in state.items())
