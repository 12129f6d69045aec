import re

import pytest
from hypothesis import given, strategies as st

from pagescope.hugepagectl import (
    MEMINFO_PATH,
    FixtureFs,
    HugePageMode,
    MeminfoMonitor,
    ThpMode,
    UsageVerdict,
    detect_usage,
    parse_meminfo,
    parse_thp,
    plan_launch,
    render_thp,
    thp_state_text,
)

from conftest import meminfo_text

TRACKED_KEYS = ["AnonHugePages", "ShmemHugePages", "HugePages_Total",
                "HugePages_Free", "HugePages_Rsvd", "HugePages_Surp",
                "Hugepagesize", "Hugetlb"]


def test_parse_constructed_document():
    snap = parse_meminfo(meminfo_text(total=6, surp=6, hugetlb_kb=12288))
    assert snap == {"anon_huge_kb": 0, "shmem_huge_kb": 0, "hugetlb_kb": 12288,
                    "hugepagesize_kb": 2048, "hp_total": 6, "hp_free": 0,
                    "hp_rsvd": 0, "hp_surp": 6}


def test_parse_all_zero_document():
    snap = parse_meminfo(meminfo_text(pagesize_kb=2048))
    assert snap == {"anon_huge_kb": 0, "shmem_huge_kb": 0, "hugetlb_kb": 0,
                    "hugepagesize_kb": 2048, "hp_total": 0, "hp_free": 0,
                    "hp_rsvd": 0, "hp_surp": 0}


def test_missing_tracked_field():
    doc = meminfo_text(order=[k for k in TRACKED_KEYS if k != "Hugepagesize"])
    with pytest.raises(ValueError, match="^meminfo document is missing 'Hugepagesize'$"):
        parse_meminfo(doc)


def test_malformed_tracked_line_reports_line_number():
    rest = meminfo_text(order=[k for k in TRACKED_KEYS if k != "AnonHugePages"],
                        tracked_only=True)
    last = len(rest.splitlines()) + 1
    # Not a number, a unit other than kB, a negative size.
    for bad in ("AnonHugePages:  lots kB", "AnonHugePages:  2 MB",
                "AnonHugePages:  -5 kB"):
        for doc, line_no in ((f"{bad}\n{rest}", 1), (f"{rest}{bad}\n", last)):
            with pytest.raises(ValueError, match=re.escape(
                    f"meminfo line {line_no} is malformed: {bad!r}")):
                parse_meminfo(doc)


def test_untracked_garbage_ignored():
    doc = meminfo_text() + "NotAField: banana\nDirectMap4k: x y z\n"
    snap = parse_meminfo(doc)
    assert snap["hp_total"] == 0


@given(st.permutations(TRACKED_KEYS))
def test_parse_total_over_permuted_documents(order):
    doc = meminfo_text(anon_kb=2048, total=6, free=2, surp=6, hugetlb_kb=12288,
                       order=list(order), tracked_only=True)
    snap = parse_meminfo(doc)
    assert (snap["anon_huge_kb"], snap["hp_total"], snap["hp_free"],
            snap["hugetlb_kb"]) == (2048, 6, 2, 12288)


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
    with pytest.raises(ValueError, match="^(duplicate token |multiple bracketed "
                       "tokens |not a THP state document: )"):
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


# meminfo_text's keyword for each sample key, in the verdict's field order:
# the four evidence fields, then the four pool fields.
VERDICT_FIELDS = {"anon_huge_kb": "anon_kb", "shmem_huge_kb": "shmem_kb",
                  "hugetlb_kb": "hugetlb_kb", "hp_total": "total",
                  "hp_free": "free", "hp_rsvd": "rsvd", "hp_surp": "surp",
                  "hugepagesize_kb": "pagesize_kb"}

# Values in 0..2, so fields tie, rise and fall often; free stays within
# the pool, as parse_meminfo requires.
counts = st.fixed_dictionaries(
    {kw: st.integers(0, 2) for kw in VERDICT_FIELDS.values()}).map(
        lambda kw: {**kw, "free": min(kw["free"], kw["total"] + kw["surp"])})


def _rule(before: dict, during: list[dict]) -> UsageVerdict:
    """The verdict rule, written out over meminfo_text keywords."""
    names = list(VERDICT_FIELDS)
    deltas = {name: [d[kw] - before[kw] for d in during]
              for name, kw in VERDICT_FIELDS.items()}
    evidence = tuple((name, max(deltas[name])) for name in names[:4]
                     if any(d > 0 for d in deltas[name]))
    if evidence:
        return UsageVerdict("active", evidence)
    for name in names:
        went_up = any(d > 0 for d in deltas[name])
        went_down = any(d < 0 for d in deltas[name])
        if went_up and went_down:
            return UsageVerdict("indeterminate", reason=f"{name} non-monotone")
        if went_up:
            return UsageVerdict(
                "indeterminate",
                reason=f"{name} increased without huge-page evidence")
    return UsageVerdict("inactive")


@given(before=counts, during=st.lists(counts, min_size=1, max_size=4))
def test_detect_follows_the_verdict_rule(before, during):
    verdict = detect_usage(_snap(**before), [_snap(**d) for d in during])
    assert verdict == _rule(before, during)


def test_detect_requires_snapshots():
    assert detect_usage(None, []) == UsageVerdict(
        "indeterminate", reason="meminfo unavailable")
    assert detect_usage(_snap(), []) == UsageVerdict(
        "indeterminate", reason="no meminfo sample during the run")


# A sample's meminfo_text keywords, or None for a document that cannot be parsed.
MALFORMED = "AnonHugePages: x kB\n"
documents = st.lists(st.one_of(st.none(), counts), min_size=1, max_size=6)


@given(docs=documents)
def test_monitor_folds_samples_into_the_verdict_of_them_all(docs):
    fs = FixtureFs({MEMINFO_PATH: [MALFORMED if d is None else meminfo_text(**d)
                                   for d in docs]})
    monitor = MeminfoMonitor(fs)
    for _ in docs:
        monitor.sample()
    first, later = docs[0], [d for d in docs[1:] if d is not None]
    if first is None:  # without a baseline no later sample is taken
        expected = UsageVerdict("indeterminate", reason="meminfo unavailable")
        assert (monitor.samples, monitor.dropped) == (1, 1)
    else:
        expected = (_rule(first, later) if later else UsageVerdict(
            "indeterminate", reason="no meminfo sample during the run"))
        assert (monitor.samples, monitor.dropped) == (len(docs), docs.count(None))
    assert detect_usage(monitor.before, monitor.during) == expected


def test_fixture_fs_replays_sequences():
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(), meminfo_text(total=6, surp=6)]})
    first = parse_meminfo(fs.read_text(MEMINFO_PATH))
    second = parse_meminfo(fs.read_text(MEMINFO_PATH))
    third = parse_meminfo(fs.read_text(MEMINFO_PATH))  # sticky
    assert first["hp_total"] == 0
    assert second["hp_total"] == 6 == third["hp_total"]
    with pytest.raises(FileNotFoundError):
        fs.read_text("/nonexistent")


def test_monitor_samples_in_the_order_they_are_taken():
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(),
                                   meminfo_text(anon_kb=4096),
                                   meminfo_text(anon_kb=8192)]})
    monitor = MeminfoMonitor(fs)
    for _ in range(3):
        monitor.sample()
    assert monitor.before["anon_huge_kb"] == 0
    peaks, troughs = monitor.during
    assert (peaks["anon_huge_kb"], troughs["anon_huge_kb"]) == (8192, 4096)
    assert (monitor.samples, monitor.dropped) == (3, 0)
    verdict = detect_usage(monitor.before, monitor.during)
    assert verdict.state == "active"
    assert verdict.evidence == (("anon_huge_kb", 8192),)


def test_monitor_counts_unreadable_samples():
    fs = FixtureFs({MEMINFO_PATH: [meminfo_text(), MALFORMED,
                                   meminfo_text(anon_kb=4096)]})
    monitor = MeminfoMonitor(fs)
    for _ in range(3):
        monitor.sample()
    assert (monitor.samples, monitor.dropped) == (3, 1)
    assert [d["anon_huge_kb"] for d in monitor.during] == [4096, 4096]
    # Once the first sample fails, later ones are neither taken nor counted.
    monitor = MeminfoMonitor(FixtureFs({MEMINFO_PATH: [MALFORMED, meminfo_text()]}))
    for _ in range(3):
        monitor.sample()
    assert (monitor.samples, monitor.dropped) == (1, 1)
    assert (monitor.before, monitor.during) == (None, [])
