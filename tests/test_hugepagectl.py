import pytest
from hypothesis import given, strategies as st

from pagescope.hugepagectl import (
    MEMINFO_PATH,
    THP_ENABLED_PATH,
    FixtureFs,
    HugePageMode,
    MalformedLine,
    MalformedThpState,
    MeminfoMonitor,
    MissingField,
    SystemWriteNotAllowed,
    ThpMode,
    UsageVerdict,
    detect_usage,
    parse_meminfo,
    parse_thp,
    plan_launch,
    render_thp,
    thp_state_text,
    write_thp,
)

from conftest import meminfo_text

TRACKED_KEYS = ["AnonHugePages", "ShmemHugePages", "HugePages_Total",
                "HugePages_Free", "HugePages_Rsvd", "HugePages_Surp",
                "Hugepagesize", "Hugetlb"]


def test_parse_constructed_document():
    snap = parse_meminfo(meminfo_text(total=6, surp=6, hugetlb_kb=12288))
    assert snap.hp_total == 6
    assert snap.hugetlb_kb == 12288
    assert snap.anon_huge_kb == 0
    assert snap.hugepagesize_kb == 2048


def test_parse_all_zero_document():
    snap = parse_meminfo(meminfo_text(pagesize_kb=2048))
    assert (snap.anon_huge_kb, snap.shmem_huge_kb, snap.hugetlb_kb,
            snap.hp_total, snap.hp_free, snap.hp_rsvd, snap.hp_surp) == (0,) * 7


def test_missing_tracked_field():
    doc = meminfo_text(order=[k for k in TRACKED_KEYS if k != "Hugepagesize"])
    with pytest.raises(MissingField) as err:
        parse_meminfo(doc)
    assert err.value.name == "Hugepagesize"


def test_malformed_tracked_line_reports_line_number():
    doc = "AnonHugePages:  lots kB\n" + meminfo_text(
        order=[k for k in TRACKED_KEYS if k != "AnonHugePages"],
        tracked_only=True)
    with pytest.raises(MalformedLine) as err:
        parse_meminfo(doc)
    assert err.value.line_no == 1


def test_untracked_garbage_ignored():
    doc = meminfo_text() + "NotAField: banana\nDirectMap4k: x y z\n"
    snap = parse_meminfo(doc)
    assert snap.hp_total == 0


@given(st.permutations(TRACKED_KEYS))
def test_parse_total_over_permuted_documents(order):
    doc = meminfo_text(anon_kb=2048, total=6, free=2, surp=6, hugetlb_kb=12288,
                       order=list(order), tracked_only=True)
    snap = parse_meminfo(doc)
    assert (snap.anon_huge_kb, snap.hp_total, snap.hp_free, snap.hugetlb_kb) \
        == (2048, 6, 2, 12288)


def test_snapshot_invariant_free_within_pool():
    with pytest.raises(ValueError):
        parse_meminfo(meminfo_text(total=1, free=5, surp=0))


@pytest.mark.parametrize("text,mode", [
    ("[always] madvise never", ThpMode.Always),
    ("always madvise [never]", ThpMode.Never),
    ("always [madvise] never", ThpMode.Madvise),
])
def test_parse_thp_literal_documents(text, mode):
    assert parse_thp(text) == mode
    assert parse_thp(text + "\n") == mode


@pytest.mark.parametrize("bad", [
    "always madvise never",          # nothing selected
    "[always] [madvise] never",      # two selected
    "[always] madvise",              # token missing
    "[always] madvise never extra",  # unknown token
    "",
])
def test_parse_thp_malformed(bad):
    with pytest.raises(MalformedThpState):
        parse_thp(bad)


def test_render_thp_tokens():
    assert render_thp(ThpMode.Always) == "always"
    assert render_thp(ThpMode.Never) == "never"
    assert render_thp(ThpMode.Madvise) == "madvise"


@pytest.mark.parametrize("mode", list(ThpMode))
def test_thp_round_trip(mode):
    assert parse_thp(thp_state_text(mode)) == mode


def test_plan_transparent_wrapper():
    plan = plan_launch(HugePageMode.Transparent)
    assert plan.wrapper_argv == ("hugectl", "--shm", "--thp")
    assert plan.env == {}
    assert plan.command(["./app", "-x"]) == ["hugectl", "--shm", "--thp",
                                             "./app", "-x"]


def test_plan_preload_env():
    plan = plan_launch(HugePageMode.PreloadHugetlbfs)
    assert plan.env == {"LD_PRELOAD": "libhugetlbfs.so",
                        "HUGETLB_MORECORE": "yes"}
    assert plan.wrapper_argv == ()


@pytest.mark.parametrize("mode,value", [
    (HugePageMode.FujitsuHugetlbfs, "hugetlbfs"),
    (HugePageMode.FujitsuThp, "thp"),
    (HugePageMode.FujitsuNone, "none"),
])
def test_plan_fujitsu_env(mode, value):
    plan = plan_launch(mode)
    assert plan.env == {"XOS_MMM_L_HPAGE_TYPE": value}


def test_plan_off_is_empty():
    plan = plan_launch(HugePageMode.Off)
    assert plan.env == {} and plan.wrapper_argv == ()


def test_plans_injective():
    plans = [(plan_launch(m).wrapper_argv, tuple(sorted(plan_launch(m).env.items())))
             for m in HugePageMode]
    assert len(set(plans)) == len(HugePageMode)


def test_plan_environ_merges_over_base():
    merged = plan_launch(HugePageMode.PreloadHugetlbfs).environ({"PATH": "/bin"})
    assert merged["PATH"] == "/bin"
    assert merged["LD_PRELOAD"] == "libhugetlbfs.so"


def _snap(**kw):
    return parse_meminfo(meminfo_text(**kw))


def test_detect_active_on_hugetlb_growth():
    before = _snap()
    during = [_snap(total=6, surp=6, hugetlb_kb=12288)]
    verdict = detect_usage(before, during)
    assert verdict.state == "active"
    assert ("hugetlb_kb", 12288) in verdict.evidence


def test_detect_inactive_when_nothing_moves():
    before = _snap()
    assert detect_usage(before, [before, before]).state == "inactive"


def test_detect_self_comparison_inactive():
    snap = _snap(total=4, free=4, surp=0, hugetlb_kb=8192)
    assert detect_usage(snap, [snap]).state == "inactive"


kb = st.integers(min_value=0, max_value=1 << 20)


@given(anon=kb, shmem=kb, hugetlb=kb, total=st.integers(0, 512),
       free=st.integers(0, 512), rsvd=st.integers(0, 512),
       surp=st.integers(0, 512))
def test_detect_self_comparison_inactive_for_any_snapshot(
        anon, shmem, hugetlb, total, free, rsvd, surp):
    if free > total + surp:
        free = total + surp
    snap = _snap(anon_kb=anon, shmem_kb=shmem, hugetlb_kb=hugetlb,
                 total=total, free=free, rsvd=rsvd, surp=surp)
    assert detect_usage(snap, [snap]).state == "inactive"


def test_detect_indeterminate_on_non_monotone_pool():
    before = _snap(total=6, free=2, surp=6)
    during = [_snap(total=6, free=4, surp=6), _snap(total=6, free=1, surp=6)]
    verdict = detect_usage(before, during)
    assert verdict.state == "indeterminate"
    assert "hp_free" in verdict.reason


def test_detect_indeterminate_on_pool_growth_without_evidence():
    before = _snap(total=6, free=2, surp=6)
    during = [_snap(total=6, free=5, surp=6)]
    verdict = detect_usage(before, during)
    assert verdict.state == "indeterminate"


def test_detect_requires_snapshots():
    with pytest.raises(ValueError):
        detect_usage(_snap(), [])


def test_active_verdict_requires_positive_delta():
    with pytest.raises(ValueError):
        UsageVerdict.active([("hugetlb_kb", 0)])


def test_fixture_fs_replays_sequences():
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(), meminfo_text(total=6, surp=6)]})
    first = parse_meminfo(fs.read_text(MEMINFO_PATH))
    second = parse_meminfo(fs.read_text(MEMINFO_PATH))
    third = parse_meminfo(fs.read_text(MEMINFO_PATH))  # sticky
    assert first.hp_total == 0
    assert second.hp_total == 6 == third.hp_total
    with pytest.raises(FileNotFoundError):
        fs.read_text("/nonexistent")


def test_write_thp_needs_explicit_opt_in():
    fs = FixtureFs({})
    with pytest.raises(SystemWriteNotAllowed):
        write_thp(fs, ThpMode.Always)
    assert fs.written == []
    write_thp(fs, ThpMode.Always, allow_system_writes=True)
    assert fs.written == [(THP_ENABLED_PATH, "always")]


def test_monitor_poll_once_and_thread_drain():
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(),
                                   meminfo_text(anon_kb=4096),
                                   meminfo_text(anon_kb=8192)]})
    monitor = MeminfoMonitor(fs, cadence_s=0.001)
    before = monitor.poll_once()
    monitor.start()
    import time
    time.sleep(0.05)
    during = monitor.stop()
    assert during, "thread should have delivered snapshots"
    verdict = detect_usage(before, during)
    assert verdict.state == "active"
    assert verdict.evidence[0][0] == "anon_huge_kb"


def test_monitor_thread_counts_unreadable_samples():
    fs = FixtureFs({MEMINFO_PATH: ["AnonHugePages: x kB\n",
                                   meminfo_text(anon_kb=4096)]})
    monitor = MeminfoMonitor(fs, cadence_s=0.001)
    monitor.start()
    import time
    time.sleep(0.05)
    during = monitor.stop()
    assert monitor.dropped == 1
    assert monitor.samples == len(during) + 1
    assert during and all(snap.anon_huge_kb == 4096 for snap in during)
