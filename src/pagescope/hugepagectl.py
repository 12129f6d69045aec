"""Observe, plan, and verify huge-page usage on Linux.

Everything here works off two files, /proc/meminfo and
/sys/kernel/mm/transparent_hugepage/enabled, read through a small
filesystem abstraction so the whole module is testable from canned
fixtures without root or even Linux. Launch plans render the three
enablement mechanisms (hugectl wrapper, libhugetlbfs preload, the Fujitsu
runtime env var) as exact env/argv fragments; usage verification compares
meminfo snapshots taken before and during a run.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass, field

MEMINFO_PATH = "/proc/meminfo"
THP_ENABLED_PATH = "/sys/kernel/mm/transparent_hugepage/enabled"
PERF_PARANOID_PATH = "/proc/sys/kernel/perf_event_paranoid"

DEFAULT_CADENCE_S = 1.0

# Node provisioning the harness documents but never applies.
BOOT_PARAM_CHECKLIST = (
    "kernel boot parameters: hugepagesz=2M hugepagesz=512M default_hugepagesz=2M",
    "sysctl: kernel.perf_event_paranoid=1",
    "package libhugetlbfs-utils installed (provides hugeadm)",
)


class MissingField(ValueError):
    def __init__(self, name: str):
        super().__init__(f"meminfo document is missing {name!r}")
        self.name = name


class MalformedLine(ValueError):
    def __init__(self, line_no: int, line: str):
        super().__init__(f"meminfo line {line_no} is malformed: {line!r}")
        self.line_no = line_no


class MalformedThpState(ValueError):
    pass


class SystemWriteNotAllowed(RuntimeError):
    """Sysfs writes are privileged node changes; they need the explicit
    --allow-system-writes opt-in."""


# ---------------------------------------------------------------------------
# Filesystem abstraction
# ---------------------------------------------------------------------------

class RealFs:
    def read_text(self, path: str) -> str:
        with open(path, "r") as f:
            return f.read()

    def write_text(self, path: str, text: str) -> None:
        with open(path, "w") as f:
            f.write(text)


class FixtureFs:
    """Replayable fixture filesystem.

    A path maps either to one document or to a list of documents handed out
    on successive reads (the last one repeats), which scripts the view a
    polling monitor would have seen during a run.
    """

    def __init__(self, files: dict[str, str | list[str]]):
        self._files = dict(files)
        self._cursor: dict[str, int] = {}
        self.written: list[tuple[str, str]] = []

    def read_text(self, path: str) -> str:
        if path not in self._files:
            raise FileNotFoundError(path)
        doc = self._files[path]
        if isinstance(doc, str):
            return doc
        i = self._cursor.get(path, 0)
        self._cursor[path] = i + 1
        return doc[min(i, len(doc) - 1)]

    def write_text(self, path: str, text: str) -> None:
        self.written.append((path, text))


# ---------------------------------------------------------------------------
# /proc/meminfo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeminfoSnapshot:
    anon_huge_kb: int
    shmem_huge_kb: int
    hugetlb_kb: int
    hugepagesize_kb: int
    hp_total: int
    hp_free: int
    hp_rsvd: int
    hp_surp: int

    def __post_init__(self):
        for name in ("anon_huge_kb", "shmem_huge_kb", "hugetlb_kb",
                     "hugepagesize_kb", "hp_total", "hp_free", "hp_rsvd",
                     "hp_surp"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.hp_free > self.hp_total + self.hp_surp:
            raise ValueError("hp_free exceeds hp_total + hp_surp")


# meminfo key -> (snapshot field, value carries a kB suffix)
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


def parse_meminfo(text: str) -> MeminfoSnapshot:
    """Extract the eight huge-page fields from a /proc/meminfo document.

    Untracked lines are ignored; a tracked line that fails to parse raises
    MalformedLine, and a tracked key that never appears raises MissingField.
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
        except (IndexError, ValueError):
            raise MalformedLine(line_no, line) from None
        if has_unit and len(parts) > 1 and parts[1] != "kB":
            raise MalformedLine(line_no, line)
        if value < 0:
            raise MalformedLine(line_no, line)
        found[fieldname] = value
    for key, (fieldname, _) in _TRACKED.items():
        if fieldname not in found:
            raise MissingField(key)
    return MeminfoSnapshot(**found)


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
            raise MalformedThpState(f"duplicate token {word!r} in {text!r}")
        seen.add(word)
        if bracketed:
            if selected is not None:
                raise MalformedThpState(f"multiple bracketed tokens in {text!r}")
            selected = word
    if seen != {"always", "madvise", "never"} or selected is None:
        raise MalformedThpState(f"not a THP state document: {text!r}")
    return ThpMode(selected)


def render_thp(mode: ThpMode) -> str:
    """The token written to the sysfs file to select a mode."""
    return mode.value


def thp_state_text(mode: ThpMode) -> str:
    """The sysfs file content showing a mode as selected."""
    return " ".join(f"[{m.value}]" if m is mode else m.value for m in ThpMode)


def write_thp(fs, mode: ThpMode, allow_system_writes: bool = False) -> None:
    """Write the THP mode. Node-level privileged change; refused without the
    explicit opt-in flag."""
    if not allow_system_writes:
        raise SystemWriteNotAllowed(
            "writing THP state requires --allow-system-writes")
    fs.write_text(THP_ENABLED_PATH, render_thp(mode))


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
    env: dict[str, str] = field(default_factory=dict)
    wrapper_argv: tuple[str, ...] = ()

    def command(self, argv: list[str]) -> list[str]:
        return list(self.wrapper_argv) + list(argv)

    def environ(self, base: dict[str, str]) -> dict[str, str]:
        merged = dict(base)
        merged.update(self.env)
        return merged


def plan_launch(mode: HugePageMode) -> LaunchPlan:
    """Env/wrapper recipe for running a workload under one huge-page mode:
    hugectl (THP), a libhugetlbfs preload, or the Fujitsu runtime's env."""
    if mode is HugePageMode.Off:
        return LaunchPlan()
    if mode is HugePageMode.Transparent:
        return LaunchPlan(wrapper_argv=("hugectl", "--shm", "--thp"))
    if mode is HugePageMode.PreloadHugetlbfs:
        return LaunchPlan(env={"LD_PRELOAD": "libhugetlbfs.so",
                               "HUGETLB_MORECORE": "yes"})
    hpage_type = {
        HugePageMode.FujitsuHugetlbfs: "hugetlbfs",
        HugePageMode.FujitsuThp: "thp",
        HugePageMode.FujitsuNone: "none",
    }[mode]
    return LaunchPlan(env={"XOS_MMM_L_HPAGE_TYPE": hpage_type})


# ---------------------------------------------------------------------------
# Usage verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UsageVerdict:
    state: str  # "active" | "inactive" | "indeterminate"
    evidence: tuple[tuple[str, int], ...] = ()
    reason: str | None = None

    @classmethod
    def active(cls, evidence: list[tuple[str, int]]) -> "UsageVerdict":
        if not any(delta > 0 for _, delta in evidence):
            raise ValueError("active verdict needs a positive evidence delta")
        return cls("active", tuple(evidence))

    @classmethod
    def inactive(cls) -> "UsageVerdict":
        return cls("inactive")

    @classmethod
    def indeterminate(cls, reason: str) -> "UsageVerdict":
        return cls("indeterminate", reason=reason)


def detect_usage(before: MeminfoSnapshot,
                 during: list[MeminfoSnapshot]) -> UsageVerdict:
    """Judge whether huge pages were in use from meminfo movement.

    Active: any positive delta versus the baseline in an evidence field
    (AnonHugePages, ShmemHugePages, Hugetlb, HugePages_Total).
    Inactive: nothing moved upward at all.
    Indeterminate: pool counters moved without evidence, or moved both ways
    (another tenant churning the pool).
    """
    if not during:
        raise ValueError("need at least one during-run snapshot")

    evidence = []
    for name in EVIDENCE_FIELDS:
        peak = max(getattr(snap, name) - getattr(before, name) for snap in during)
        if peak > 0:
            evidence.append((name, peak))
    if evidence:
        return UsageVerdict.active(evidence)

    for name in EVIDENCE_FIELDS + _POOL_FIELDS:
        deltas = [getattr(snap, name) - getattr(before, name) for snap in during]
        went_up = any(d > 0 for d in deltas)
        went_down = any(d < 0 for d in deltas)
        if went_up and went_down:
            return UsageVerdict.indeterminate(f"{name} non-monotone")
        if went_up:
            return UsageVerdict.indeterminate(
                f"{name} increased without huge-page evidence")
    return UsageVerdict.inactive()


# ---------------------------------------------------------------------------
# Polling monitor
# ---------------------------------------------------------------------------

class MeminfoMonitor:
    """Polls meminfo into a list while a workload runs.

    Only the polling thread appends to the list, and `stop` joins that
    thread before it hands the list over, so no lock is needed; snapshot
    parsing is pure so the thread shares nothing mutable with the workload.
    """

    def __init__(self, fs, cadence_s: float = DEFAULT_CADENCE_S):
        self.fs = fs
        self.cadence_s = cadence_s
        self._snaps: list[MeminfoSnapshot] = []
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples = 0  # reads attempted through sample()
        self.dropped = 0  # of those, reads that failed

    def poll_once(self) -> MeminfoSnapshot:
        return parse_meminfo(self.fs.read_text(MEMINFO_PATH))

    def sample(self) -> MeminfoSnapshot | None:
        """One poll, or None when meminfo cannot be read or parsed; a
        failed read is counted in `dropped` instead of raising, so one bad
        read neither kills the polling thread nor goes unreported."""
        self.samples += 1
        try:
            return self.poll_once()
        except (OSError, ValueError):
            self.dropped += 1
            return None

    def _run(self) -> None:
        while not self._stop.is_set():
            snap = self.sample()
            if snap is not None:
                self._snaps.append(snap)
            self._stop.wait(self.cadence_s)

    def start(self) -> None:
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def stop(self) -> list[MeminfoSnapshot]:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        snaps, self._snaps = self._snaps, []
        return snaps
