import pytest
from hypothesis import given, strategies as st

from pagescope import counterhub as ch
from pagescope.counterhub import (
    ALL_EVENTS,
    CounterWentBackward,
    EventId,
    MismatchedRegion,
    NoOpenRegion,
    PermissionDenied,
    RegionCollector,
    RegionRecord,
    SimulatedBackend,
    UnknownEventName,
    UnsupportedEvent,
    open_session,
)


def _collector(increments):
    session = open_session(SimulatedBackend(increments), ALL_EVENTS)
    return RegionCollector(session)


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
    coll = _collector({EventId.CpuCycles: 500})
    coll.region_begin("EOS")
    record = coll.region_end("EOS")
    assert record == RegionRecord("EOS", 1, record.totals)
    assert record.totals[EventId.CpuCycles] == 500
    assert coll.records()["EOS"].region_count == 1


def test_two_pairs_merge():
    coll = _collector({EventId.CpuCycles: 500})
    for _ in range(2):
        coll.region_begin("EOS")
        coll.region_end("EOS")
    merged = coll.records()["EOS"]
    assert merged.region_count == 2
    assert merged.totals[EventId.CpuCycles] == 1000


def test_nesting_depth_and_inclusive_attribution():
    coll = _collector({EventId.CpuCycles: 10})
    coll.region_begin("hydro")
    assert coll.depth == 1
    coll.region_begin("flux")
    assert coll.depth == 2
    coll.region_end("flux")
    coll.region_end("hydro")
    assert coll.depth == 0
    records = coll.records()
    # Parent totals include the nested child's interval.
    assert records["hydro"].totals[EventId.CpuCycles] >= \
        records["flux"].totals[EventId.CpuCycles]


def test_sibling_children_totals_bounded_by_parent():
    coll = _collector({EventId.CpuCycles: 7})
    coll.region_begin("parent")
    for name in ("a", "b"):
        coll.region_begin(name)
        coll.region_end(name)
    coll.region_end("parent")
    records = coll.records()
    child_sum = sum(records[n].totals[EventId.CpuCycles] for n in ("a", "b"))
    assert child_sum <= records["parent"].totals[EventId.CpuCycles]


def test_empty_region_name_accepted():
    coll = _collector({})
    coll.region_begin("")
    record = coll.region_end("")
    assert record.name == ""


def test_mismatched_region():
    coll = _collector({})
    coll.region_begin("A")
    with pytest.raises(MismatchedRegion):
        coll.region_end("B")


def test_end_without_begin():
    coll = _collector({})
    with pytest.raises(NoOpenRegion):
        coll.region_end("A")


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


def _run_script(tree, coll, depth=0):
    """Begin/end regions following a nesting tree; returns node count."""
    nodes = 0
    for i, sub in enumerate(tree):
        name = f"r{depth}.{i}"
        coll.region_begin(name)
        nodes += _run_script(sub, coll, depth + 1)
        coll.region_end(name)
        nodes += 1
    return nodes


nesting_trees = st.recursive(st.just([]),
                             lambda kids: st.lists(kids, max_size=3),
                             max_leaves=12)


@given(nesting_trees)
def test_balanced_scripts_leave_depth_zero(tree):
    coll = _collector({EventId.CpuCycles: 1})
    ends = _run_script(tree, coll)
    assert coll.depth == 0
    assert sum(r.region_count for r in coll.records().values()) == ends


@given(nesting_trees)
def test_identical_scripts_identical_records(tree):
    results = []
    for _ in range(2):
        coll = _collector({ev: 11 for ev in EventId})
        _run_script(tree, coll)
        results.append(coll.records())
    assert results[0] == results[1]


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
