import pytest

from pagescope import counterhub as ch
from pagescope.blockmesh import UnkLayout
from pagescope.counterhub import (
    ALL_EVENTS,
    CounterUnavailable,
    EventId,
    SimulatedBackend,
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


def test_unknown_event_name_rejected():
    with pytest.raises(ValueError, match="^unknown event name: 'NOT_AN_EVENT'$"):
        ch.parse_event_names("NOT_AN_EVENT")


def test_region_delta_single_pair():
    # One repetition brackets its kernel with two session reads; its totals
    # are the reads' difference, one per event of the session.
    session = open_session(SimulatedBackend({EventId.CpuCycles: 500}),
                           ALL_EVENTS)
    session.read()  # a nonzero start, so only a difference reads 500
    workload = WorkloadSpec(kind="zone-sweep",
                            layout=UnkLayout.simple(2, 4, 4, 2, 2))
    clock = iter([1.0, 3.0])
    totals, elapsed, _ = _run_rep(workload, HugePageMode.Off, session,
                                  lambda: next(clock), lambda: None, 1.0)
    assert set(totals) == ALL_EVENTS
    assert totals[EventId.CpuCycles] == 500
    assert totals[EventId.DtlbLoadMisses] == 0
    assert elapsed == 2.0


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
    with pytest.raises(CounterUnavailable,
                       match="^PERF_COUNT_HW_CPU_CYCLES decreased: 100 -> 40$"):
        session.read()


def test_realos_permission_denied(monkeypatch):
    def deny(attr):
        raise OSError(13, "Permission denied")

    monkeypatch.setattr(ch, "_perf_event_open", deny)
    with pytest.raises(CounterUnavailable, match="^events not programmable: "
                       "{'DTLB-LOAD-MISSES': 'Permission denied; check "
                       "kernel.perf_event_paranoid'}$"):
        open_session(ch.RealOsBackend(), {EventId.DtlbLoadMisses})


def test_realos_unsupported_event(monkeypatch):
    def missing(attr):
        raise OSError(2, "No such file or directory")

    monkeypatch.setattr(ch, "_perf_event_open", missing)
    with pytest.raises(CounterUnavailable, match="^events not programmable: "
                       "{'SVE_INST_RETIRED': 'No such file or directory'}$"):
        open_session(ch.RealOsBackend(), {EventId.SveInstRetired})


def test_realos_open_names_every_failing_event_and_closes_the_rest(pipe_counters):
    counters = pipe_counters(fail={ch._ARM_SVE_INST_RETIRED_RAW: 2,
                                   ch._PERF_COUNT_HW_CACHE_MISSES: 13})
    with pytest.raises(CounterUnavailable) as err:
        open_session(ch.RealOsBackend(), ALL_EVENTS)
    assert str(err.value) == (
        "events not programmable: {'PERF_COUNT_HW_CACHE_MISSES': 'Permission "
        "denied; check kernel.perf_event_paranoid', 'SVE_INST_RETIRED': "
        "'No such file or directory'}")
    # Every event was tried, and each of the four that opened was closed.
    assert counters.calls == len(ALL_EVENTS) and len(counters.opened) == 4
    assert counters.all_closed()


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
