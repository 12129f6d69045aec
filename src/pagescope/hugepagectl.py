"""Observe, plan, and verify huge-page usage on Linux.

Everything here reads three files, /proc/meminfo,
/sys/kernel/mm/transparent_hugepage/enabled and (for doctor)
/proc/sys/kernel/perf_event_paranoid, through a small read-only filesystem
abstraction so the whole module is testable from canned fixtures without
root or even Linux. Nothing here writes a host setting: huge pages are
chosen per command by its launch plan. Launch plans render the three
enablement mechanisms (hugectl wrapper, libhugetlbfs preload, the Fujitsu
runtime env var) as exact env/argv fragments, and each records whether its
mode asks for huge pages at all; usage verification compares a meminfo
sample (a dict keyed by the field names in _TRACKED) taken before a run
with each field's peak and trough over the samples taken during it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

MEMINFO_PATH = "/proc/meminfo"
THP_ENABLED_PATH = "/sys/kernel/mm/transparent_hugepage/enabled"
PERF_PARANOID_PATH = "/proc/sys/kernel/perf_event_paranoid"

# Node provisioning the harness documents but never applies.
BOOT_PARAM_CHECKLIST = (
    "kernel boot parameters: hugepagesz=2M hugepagesz=512M default_hugepagesz=2M",
    "sysctl: kernel.perf_event_paranoid=1",
    "THP mode, as root: echo madvise > /sys/kernel/mm/transparent_hugepage/enabled",
    "package libhugetlbfs-utils installed (provides hugeadm)",
)


# ---------------------------------------------------------------------------
# Filesystem abstraction
# ---------------------------------------------------------------------------

class RealFs:
    def read_text(self, path: str) -> str:
        with open(path, "r") as f:
            return f.read()


class FixtureFs:
    """Replayable fixture filesystem.

    A path maps either to one document or to a list of documents handed out
    on successive reads (the last one repeats), which scripts the samples
    a run takes, in the order it takes them.
    """

    def __init__(self, files: dict[str, str | list[str]]):
        self._files = dict(files)
        self._cursor: dict[str, int] = {}

    def read_text(self, path: str) -> str:
        if path not in self._files:
            raise FileNotFoundError(path)
        doc = self._files[path]
        if isinstance(doc, str):
            return doc
        i = self._cursor.get(path, 0)
        self._cursor[path] = i + 1
        return doc[min(i, len(doc) - 1)]


# ---------------------------------------------------------------------------
# /proc/meminfo
# ---------------------------------------------------------------------------

# meminfo key -> (sample key, value carries a kB suffix)
_TRACKED = {
    "AnonHugePages": ("anon_huge_kb", True),
    "ShmemHugePages": ("shmem_huge_kb", True),
    "Hugetlb": ("hugetlb_kb", True),
    "Hugepagesize": ("hugepagesize_kb", True),
    "HugePages_Total": ("hp_total", False),
    "HugePages_Free": ("hp_free", False),
    "HugePages_Rsvd": ("hp_rsvd", False),
    "HugePages_Surp": ("hp_surp", False),
}

EVIDENCE_FIELDS = ("anon_huge_kb", "shmem_huge_kb", "hugetlb_kb", "hp_total")
_POOL_FIELDS = ("hp_free", "hp_rsvd", "hp_surp", "hugepagesize_kb")


def parse_meminfo(text: str) -> dict[str, int]:
    """Extract the eight huge-page fields from a /proc/meminfo document,
    keyed by their names in _TRACKED.

    Untracked lines are ignored; a tracked line that fails to parse, or a
    tracked key that never appears, raises ValueError naming it.
    """
    found: dict[str, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        if ":" not in line:
            continue
        key, rest = line.split(":", 1)
        key = key.strip()
        if key not in _TRACKED:
            continue
        fieldname, has_unit = _TRACKED[key]
        parts = rest.split()
        try:
            value = int(parts[0])
            bad = value < 0 or has_unit and parts[1:2] not in ([], ["kB"])
        except (IndexError, ValueError):
            bad = True
        if bad:
            raise ValueError(f"meminfo line {line_no} is malformed: {line!r}")
        found[fieldname] = value
    for key, (fieldname, _) in _TRACKED.items():
        if fieldname not in found:
            raise ValueError(f"meminfo document is missing {key!r}")
    if found["hp_free"] > found["hp_total"] + found["hp_surp"]:
        raise ValueError("hp_free exceeds hp_total + hp_surp")
    return found


# ---------------------------------------------------------------------------
# Transparent huge pages sysfs state
# ---------------------------------------------------------------------------

class ThpMode(enum.Enum):
    Always = "always"
    Madvise = "madvise"
    Never = "never"


def parse_thp(text: str) -> ThpMode:
    """Decode `always madvise never` with exactly one token bracketed."""
    tokens = text.split()
    selected = None
    seen = set()
    for tok in tokens:
        word = tok
        bracketed = tok.startswith("[") and tok.endswith("]")
        if bracketed:
            word = tok[1:-1]
        if word in seen:
            raise ValueError(f"duplicate token {word!r} in {text!r}")
        seen.add(word)
        if bracketed:
            if selected is not None:
                raise ValueError(f"multiple bracketed tokens in {text!r}")
            selected = word
    if seen != {"always", "madvise", "never"} or selected is None:
        raise ValueError(f"not a THP state document: {text!r}")
    return ThpMode(selected)


def render_thp(mode: ThpMode) -> str:
    """The token that selects a mode when written, by hand, to the sysfs
    file (the provisioning checklist shows how)."""
    return mode.value


def thp_state_text(mode: ThpMode) -> str:
    """The sysfs file content showing a mode as selected."""
    return " ".join(f"[{m.value}]" if m is mode else m.value for m in ThpMode)


# ---------------------------------------------------------------------------
# Launch plans
# ---------------------------------------------------------------------------

class HugePageMode(enum.Enum):
    Off = "off"
    Transparent = "thp"
    PreloadHugetlbfs = "preload"
    FujitsuHugetlbfs = "fj-hugetlbfs"
    FujitsuThp = "fj-thp"
    FujitsuNone = "fj-none"


@dataclass(frozen=True)
class LaunchPlan:
    huge: bool  # whether the mode asks for huge pages
    env: dict[str, str] = field(default_factory=dict)
    wrapper_argv: tuple[str, ...] = ()


def plan_launch(mode: HugePageMode) -> LaunchPlan:
    """Env/wrapper recipe for running a workload under one huge-page mode:
    hugectl (THP), a libhugetlbfs preload, or the Fujitsu runtime's env.
    The table is built per call, so no caller shares a plan's env."""
    return {
        HugePageMode.Off: LaunchPlan(huge=False),
        HugePageMode.Transparent: LaunchPlan(
            huge=True, wrapper_argv=("hugectl", "--shm", "--thp")),
        HugePageMode.PreloadHugetlbfs: LaunchPlan(
            huge=True, env={"LD_PRELOAD": "libhugetlbfs.so",
                            "HUGETLB_MORECORE": "yes"}),
        HugePageMode.FujitsuHugetlbfs: LaunchPlan(
            huge=True, env={"XOS_MMM_L_HPAGE_TYPE": "hugetlbfs"}),
        HugePageMode.FujitsuThp: LaunchPlan(
            huge=True, env={"XOS_MMM_L_HPAGE_TYPE": "thp"}),
        HugePageMode.FujitsuNone: LaunchPlan(
            huge=False, env={"XOS_MMM_L_HPAGE_TYPE": "none"}),
    }[mode]


# ---------------------------------------------------------------------------
# Usage verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UsageVerdict:
    state: str  # "active" | "inactive" | "indeterminate"
    evidence: tuple[tuple[str, int], ...] = ()
    reason: str | None = None


def detect_usage(before: dict[str, int] | None,
                 during: list[dict[str, int]]) -> UsageVerdict:
    """Judge whether huge pages were in use from meminfo movement.

    Active: any positive delta versus the baseline in an evidence field
    (AnonHugePages, ShmemHugePages, Hugetlb, HugePages_Total).
    Inactive: nothing moved upward at all.
    Indeterminate: pool counters moved without evidence, or moved both ways
    (another tenant churning the pool), or before is None or during empty.
    """
    if before is None:
        return UsageVerdict("indeterminate", reason="meminfo unavailable")
    if not during:
        return UsageVerdict("indeterminate",
                            reason="no meminfo sample during the run")

    evidence = tuple((name, peak) for name in EVIDENCE_FIELDS
                     if (peak := max(s[name] for s in during) - before[name]) > 0)
    if evidence:
        return UsageVerdict("active", evidence)

    # No evidence field rose, so only a pool field can have.
    for name in _POOL_FIELDS:
        values = [s[name] for s in during]
        if max(values) > before[name]:
            how = ("non-monotone" if min(values) < before[name]
                   else "increased without huge-page evidence")
            return UsageVerdict("indeterminate", reason=f"{name} {how}")
    return UsageVerdict("inactive")


# ---------------------------------------------------------------------------
# Meminfo sampling
# ---------------------------------------------------------------------------

class MeminfoMonitor:
    """Reads meminfo samples on the caller's thread and counts the reads.
    It keeps the first sample as `before` and folds each later one into
    `during`: [each field's peak, each field's trough], or [] before any.

    The caller takes each sample itself, at the points of its run it
    chooses (report._run_one_mode names them), so nothing runs beside the
    workload and nothing is shared with it.
    """

    def __init__(self, fs):
        self.fs = fs
        self.samples = 0  # reads attempted through sample()
        self.dropped = 0  # of those, reads that failed
        self.before: dict[str, int] | None = None
        self.during: list[dict[str, int]] = []

    def poll_once(self) -> dict[str, int]:
        return parse_meminfo(self.fs.read_text(MEMINFO_PATH))

    def sample(self) -> None:
        """One poll, folded into `before` or `during`; a failed read is
        counted in `dropped` instead of raising, so one bad read neither
        ends the run nor goes unreported. Once the first has failed, no
        more are taken or counted: without a baseline they show nothing."""
        if self.samples and self.before is None:
            return
        self.samples += 1
        try:
            snap = self.poll_once()
        except (OSError, ValueError):
            self.dropped += 1
            return
        if self.before is None:
            self.before = snap
        else:
            peaks, troughs = self.during or (snap, snap)
            self.during = [{name: max(v, snap[name]) for name, v in peaks.items()},
                           {name: min(v, snap[name]) for name, v in troughs.items()}]
