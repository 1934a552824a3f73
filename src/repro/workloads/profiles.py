"""Profile programs: bison / calc / screen / tar, structurally.

The paper's Tables 1-3 measure the *installer's static analysis* over
four real Unix programs.  Those binaries cannot exist on SVM32, so each
is synthesized from its published static profile: the same number of
call sites, the same count of distinct system calls, and an argument
mix (constants / strings / unknowns / output pointers / fd provenance /
multi-value) planned to land on the published Table 3 row.  The
synthesized program is then fed through the *real* analysis and
installation pipeline — nothing in the measured path is faked.

Each program really runs: sites execute in order against the simulated
VFS (errors from probe calls are tolerated, as real programs tolerate
ENOENT).  A command-line mode gates the rare regions in two levels:
no argument runs only the common paths; ``train`` additionally runs
the rares the *published* trained policies observed; ``full`` runs
everything.  Training never reaches the last tier — which is precisely
why trained Systrace policies miss those calls while conservative
static analysis finds them (§4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.asm import assemble
from repro.binfmt import SefBinary
from repro.kernel.syscalls import SYSCALLS
from repro.workloads.runtime import runtime_source, stub_label


@dataclass(frozen=True)
class Table3Row:
    sites: int
    calls: int
    args: int
    outputs: int  # "o/p"
    auth: int
    mv: int
    fds: int


@dataclass
class ProgramProfile:
    name: str
    #: Distinct syscalls exercised on common paths (training sees these).
    common_calls: tuple
    #: Distinct syscalls on rare paths (static analysis only).
    rare_calls: tuple
    #: Rare-path syscalls that the *published trained policies* did
    #: observe (their training was broader than ours); executed at
    #: gate level 1 ("train" mode) as well as level 2 ("full").
    trained_rare: tuple = ()
    #: Syscalls present on Linux but not the OpenBSD build, and vice
    #: versa (personality differences beyond the mmap/close mechanics).
    linux_only: tuple = ()
    openbsd_only: tuple = ()
    target: Optional[Table3Row] = None
    #: Relative site-count weights (default 1).
    weights: dict = field(default_factory=dict)


#: Baseline weights: I/O-heavy calls own most sites in real binaries.
_DEFAULT_WEIGHTS = {
    "read": 10, "write": 14, "open": 8, "close": 8, "lseek": 4,
    "stat": 4, "fstat": 3, "brk": 3, "access": 3, "ioctl": 3,
    "fcntl": 3, "writev": 2, "mmap": 2, "getdirentries": 2,
}

# Per-program syscall inventories.  ``common`` and ``rare`` are
# disjoint and personality-independent; ``linux_only``/``openbsd_only``
# are rare-path additions of one personality.  Distinct-call counts are
# arranged so Table 1 is met exactly:
#   linux ASC     = |common| + |rare| + |linux_only|
#   openbsd ASC   = |common| + |rare| + |openbsd_only| - 1   (close is
#                   unidentifiable on OpenBSD, §4.2)

_BISON_COMMON = (
    "exit", "read", "write", "open", "close", "brk", "lseek", "access",
    "stat", "fstat", "dup", "chdir", "ioctl", "umask", "getuid", "mmap",
)
_BISON_RARE = (
    "fcntl", "getdirentries", "getpid", "gettimeofday", "kill",
    "madvise", "nanosleep", "sendto", "sigaction", "socket", "sysconf",
    "uname", "writev", "geteuid", "time",
)

_CALC_COMMON = _BISON_COMMON + ("getgid",)
_CALC_RARE = _BISON_RARE + (
    "getegid", "times", "getcwd", "mprotect", "munmap",
    "alarm", "utime", "sigprocmask", "getrlimit", "getrusage", "truncate",
    "ftruncate", "fchmod", "fsync", "select", "poll", "statfs",
    "rename", "unlink",
)

_SCREEN_COMMON = _CALC_COMMON + (
    "getpgrp", "setsid", "getppid", "link", "symlink", "readlink",
)
_SCREEN_RARE = _CALC_RARE + (
    "setuid", "setgid", "setrlimit", "fchown", "chown", "fchdir",
)

_TAR_COMMON = _BISON_COMMON + (
    "rename", "unlink", "mkdir", "readlink", "link", "utime",
)
_TAR_RARE = _BISON_RARE + (
    "symlink", "rmdir", "fchmod", "chown", "getgid", "getegid",
    "sigprocmask", "getrlimit", "select", "times", "mprotect", "getcwd",
    "getpgrp", "setuid", "setgid", "flock", "fsync", "truncate",
    "ftruncate", "statfs", "poll",
)

PROFILE_PROGRAMS: dict[str, ProgramProfile] = {
    "bison": ProgramProfile(
        name="bison",
        common_calls=_BISON_COMMON,           # 16
        rare_calls=_BISON_RARE,               # 15 -> base 31
        openbsd_only=("fstatfs",),
        target=Table3Row(sites=158, calls=31, args=321, outputs=31, auth=90, mv=2, fds=69),
    ),
    "calc": ProgramProfile(
        name="calc",
        common_calls=_CALC_COMMON,            # 22
        rare_calls=_CALC_RARE,                # 29 -> base 51
        linux_only=("readv", "sched_yield", "getgroups"),
        openbsd_only=("fstatfs",),
        target=Table3Row(sites=275, calls=54, args=544, outputs=78, auth=183, mv=2, fds=109),
    ),
    "screen": ProgramProfile(
        name="screen",
        common_calls=_SCREEN_COMMON,
        rare_calls=_SCREEN_RARE,
        trained_rare=(
            "fcntl", "getdirentries", "getpid", "gettimeofday", "sigaction",
            "socket", "uname", "writev", "geteuid", "time", "getegid",
            "times", "getcwd", "mprotect", "munmap", "alarm", "sigprocmask",
            "getrlimit", "getrusage", "select", "statfs", "rename", "unlink",
            "setuid", "setgid", "setrlimit", "fchown", "chown",
        ),
        linux_only=("pipe", "dup2", "chmod", "flock"),
        openbsd_only=("fstatfs",),
        target=Table3Row(sites=639, calls=67, args=1164, outputs=133, auth=363, mv=7, fds=297),
    ),
    "tar": ProgramProfile(
        name="tar",
        common_calls=_TAR_COMMON,             # 22
        rare_calls=_TAR_RARE,                 # 36 -> base 58
        openbsd_only=("fstatfs",),
        target=Table3Row(sites=381, calls=58, args=750, outputs=105, auth=238, mv=3, fds=152),
    ),
}


def profile_syscalls(name: str, personality: str = "linux") -> list[str]:
    """The distinct syscalls the ``personality`` build of ``name`` uses."""
    profile = PROFILE_PROGRAMS[name]
    calls = list(profile.common_calls) + list(profile.rare_calls)
    extras = profile.linux_only if personality == "linux" else profile.openbsd_only
    calls += [c for c in extras if c not in calls]
    return calls


# ---------------------------------------------------------------------------
# site planning
# ---------------------------------------------------------------------------


@dataclass
class SitePlan:
    syscall: str
    #: per-argument plan: "out" | "const" | "str" | "fd" | "mv" | "unk"
    args: list
    rare: bool = False
    #: Producer sites open the scratch file / directory / socket whose
    #: descriptors feed the "fd" arguments of later sites.
    producer: str = ""


def _allocate_sites(
    calls: list[str], profile: ProgramProfile
) -> dict[str, int]:
    """Distribute the target site count across the distinct calls."""
    target = profile.target
    counts = {name: 1 for name in calls}
    weights = {
        name: profile.weights.get(name, _DEFAULT_WEIGHTS.get(name, 1))
        for name in calls
    }
    remaining = target.sites - len(calls)
    if remaining < 0:
        raise ValueError(
            f"{profile.name}: more distinct calls than sites ({len(calls)} "
            f"> {target.sites})"
        )
    total_weight = sum(weights.values())
    fractions = []
    for name in calls:
        share = remaining * weights[name] / total_weight
        counts[name] += int(share)
        fractions.append((share - int(share), name))
    leftover = target.sites - sum(counts.values())
    for _, name in sorted(fractions, reverse=True)[:leftover]:
        counts[name] += 1

    # Local search: nudge counts so total args, output-args, and the
    # fd-argument capacity approach the published row (moving a site
    # between calls keeps `sites` constant while shifting the sums by
    # the signature differences).  Sums are maintained incrementally so
    # each candidate move is O(1).
    arity = {n: SYSCALLS[n].nargs for n in calls}
    outs_of = {n: len(SYSCALLS[n].outputs) for n in calls}
    fds_of = {n: len(SYSCALLS[n].fd_args) for n in calls}
    args_sum = sum(arity[n] * c for n, c in counts.items())
    outs_sum = sum(outs_of[n] * c for n, c in counts.items())
    fd_slots = sum(fds_of[n] * c for n, c in counts.items())
    # A move's effect depends only on the two calls' (arity, outputs,
    # fd args) class, and the first pair in scan order wins a tie, so
    # only the first donor and the first receiver of each class can
    # win: the scan below tries those, in call order, and picks the
    # move the all-pairs scan would.  A move within a class changes no
    # sum, so it never beats the current score.
    class_of = {n: (arity[n], outs_of[n], fds_of[n]) for n in calls}

    def first_of_each_class(names) -> list:
        first: dict[tuple, str] = {}
        for name in names:
            first.setdefault(class_of[name], name)
        return list(first.values())

    receivers = first_of_each_class(calls)

    def score(args, outs, slots) -> int:
        shortfall = max(0, target.fds - slots)
        return (
            abs(args - target.args)
            + 2 * abs(outs - target.outputs)
            + 2 * shortfall
        )

    for _ in range(800):
        best = score(args_sum, outs_sum, fd_slots)
        best_move = None
        for donor in first_of_each_class(n for n in calls if counts[n] > 1):
            for receiver in receivers:
                if class_of[receiver] == class_of[donor]:
                    continue
                candidate = score(
                    args_sum - arity[donor] + arity[receiver],
                    outs_sum - outs_of[donor] + outs_of[receiver],
                    fd_slots - fds_of[donor] + fds_of[receiver],
                )
                if candidate < best:
                    best = candidate
                    best_move = (donor, receiver)
        if best_move is None:
            break
        donor, receiver = best_move
        counts[donor] -= 1
        counts[receiver] += 1
        args_sum += arity[receiver] - arity[donor]
        outs_sum += outs_of[receiver] - outs_of[donor]
        fd_slots += fds_of[receiver] - fds_of[donor]
    return counts


def plan_sites(profile: ProgramProfile, personality: str) -> list[SitePlan]:
    """Produce per-site argument plans hitting the Table 3 budgets."""
    calls = profile_syscalls(profile.name, personality)
    counts = _allocate_sites(calls, profile)
    rare = set(profile.rare_calls) | set(profile.linux_only) | set(profile.openbsd_only)
    target = profile.target

    plans: list[SitePlan] = []
    for name in calls:
        spec = SYSCALLS[name]
        for _ in range(counts[name]):
            plans.append(
                SitePlan(syscall=name, args=[None] * spec.nargs, rare=name in rare)
            )

    # Producer sites: the first two open sites and the first socket site
    # have fixed, fully-constant arguments (they must really succeed so
    # later fd arguments have live descriptors to carry).
    producers_needed = ["file", "dir"]
    for plan in plans:
        if plan.syscall == "open" and producers_needed:
            plan.producer = producers_needed.pop(0)
            plan.args = ["str", "const", "const"]
            plan.rare = False
    # (sendto sites borrow the file descriptor, so no socket producer
    # is needed; socket sites stay ordinary — and rare — sites.)
    # The one live exit site always passes a constant status.
    for plan in plans:
        if plan.syscall == "exit":
            plan.producer = "exit"
            plan.args = ["const"]
            plan.rare = False
            break

    # Pass 1: outputs are fixed; fd arguments claim the fd budget.
    fd_budget = target.fds
    mv_budget = target.mv
    for plan in plans:
        spec = SYSCALLS[plan.syscall]
        for index in range(spec.nargs):
            if index in spec.outputs:
                plan.args[index] = "out"
            elif index in spec.fd_args:
                if fd_budget > 0:
                    plan.args[index] = "fd"
                    fd_budget -= 1
                else:
                    plan.args[index] = "unk"

    # Pass 2: constants claim the auth budget (string args become AS
    # strings, others immediates); a few become multi-value; the rest
    # are unknown.  Producer sites' fixed constants are pre-charged.
    auth_budget = target.auth - sum(
        1
        for plan in plans
        if plan.producer
        for kind in plan.args
        if kind in ("str", "const")
    )
    for plan in plans:
        spec = SYSCALLS[plan.syscall]
        for index in range(spec.nargs):
            if plan.args[index] is not None:
                continue
            if (
                mv_budget > 0
                and index not in spec.string_args
                and plan.syscall != "exit"
            ):
                plan.args[index] = "mv"
                mv_budget -= 1
            elif auth_budget > 0:
                plan.args[index] = "str" if index in spec.string_args else "const"
                auth_budget -= 1
            else:
                plan.args[index] = "unk"
    return plans


# ---------------------------------------------------------------------------
# program emission
# ---------------------------------------------------------------------------

_SAFE_CONSTS = {  # innocuous constant per (syscall, arg) where it matters
    ("kill", 1): 0,  # signal 0: existence probe, never lethal
    ("exit", 0): 0,
    ("open", 1): 0,  # O_RDONLY
    ("setuid", 0): 1000,
    ("setgid", 0): 1000,
}

_PATHS = ["/tmp/prof.dat", "/tmp", "/etc/motd", "/tmp/prof2.dat", "/dev/console"]


def build_profile_program(name: str, personality: str = "linux") -> SefBinary:
    """Synthesize and assemble one profile program."""
    profile = PROFILE_PROGRAMS[name]
    plans = plan_sites(profile, personality)
    lines: list[str] = [
        ".section .text",
        ".global _start",
        "_start:",
        "    mov r12, r1",  # argc (also the dynamic seed for mv branches)
        # gate level: 0 = common only, 1 = +trained rares ("train"),
        # 2 = everything ("full" - any argv[1] starting with 'f')
        "    li r11, 0",
        "    cmpi r12, 2",
        "    blt .mode_done",
        "    li r11, 1",
        "    ld r9, [r2+4]",   # argv[1]
        "    ldb r9, [r9+0]",
        "    cmpi r9, 'f'",
        "    bne .mode_done",
        "    li r11, 2",
        ".mode_done:",
    ]

    # fd producers: scratch file (r4), directory (r5), socket (r6).
    for plan in plans:
        if plan.producer == "file":
            lines += [
                "    li r1, path_scratch",
                "    li r2, 0x242",  # O_RDWR|O_CREAT|O_TRUNC
                "    li r3, 0x1a4",
                f"    call {stub_label('open')}",
                "    mov r13, r0",
            ]
        elif plan.producer == "dir":
            lines += [
                "    li r1, path_dir",
                "    li r2, 0",
                "    li r3, 0",
                f"    call {stub_label('open')}",
                "    mov r14, r0",
            ]


    label_counter = [0]

    def fresh(stem: str) -> str:
        label_counter[0] += 1
        return f".{stem}{label_counter[0]}"

    strings: dict[str, str] = {}

    def string_label(text: str) -> str:
        if text not in strings:
            strings[text] = f"pstr_{len(strings)}"
        return strings[text]

    # Pre-claim producer/path labels.
    string_label("/tmp/prof.dat")
    string_label("/tmp")

    def emit_site(plan: SitePlan, site_index: int) -> None:
        for index, kind in enumerate(plan.args):
            reg = f"r{1 + index}"
            if kind == "out":
                lines.append(f"    li {reg}, scratch")
            elif kind == "fd":
                source = "r14" if plan.syscall == "getdirentries" else "r13"
                lines.append(f"    mov {reg}, {source}")
            elif kind == "const":
                value = _SAFE_CONSTS.get((plan.syscall, index), (site_index + index) % 7)
                lines.append(f"    li {reg}, {value}")
            elif kind == "str":
                path = _PATHS[(site_index + index) % len(_PATHS)]
                lines.append(f"    li {reg}, {string_label(path)}")
            elif kind == "mv":
                a, b = fresh("mva"), fresh("mvb")
                lines.extend([
                    "    andi r9, r12, 1",
                    "    cmpi r9, 0",
                    f"    beq {a}",
                    f"    li {reg}, {2 + index}",
                    f"    jmp {b}",
                    f"{a}:",
                    f"    li {reg}, {4 + index}",
                    f"{b}:",
                ])
            else:  # unknown
                lines.extend([
                    "    li r10, scratch",
                    f"    ld {reg}, [r10+0]",
                ])
        lines.append(f"    call {stub_label(plan.syscall)}")

    # kill sites need the current pid in arg 0 to be a harmless probe;
    # override: arg0 dynamic (unknown), arg1 constant 0 is handled by
    # _SAFE_CONSTS.  exit sites other than the last must never run.
    exit_plans = [p for p in plans if p.syscall == "exit"]
    common = [p for p in plans if not p.rare and p.syscall != "exit" and not p.producer]
    trained = set(profile.trained_rare)
    rare_trained = [
        p for p in plans if p.rare and p.syscall != "exit" and p.syscall in trained
    ]
    rare_untrained = [
        p for p in plans
        if p.rare and p.syscall != "exit" and p.syscall not in trained
    ]

    site_index = 0
    for plan in common:
        emit_site(plan, site_index)
        site_index += 1

    skip_trained = fresh("skiptrained")
    lines += ["    cmpi r11, 1", f"    blt {skip_trained}"]
    for plan in rare_trained:
        emit_site(plan, site_index)
        site_index += 1
    lines.append(f"{skip_trained}:")

    skip_rare = fresh("skiprare")
    lines += ["    cmpi r11, 2", f"    blt {skip_rare}"]
    for plan in rare_untrained:
        emit_site(plan, site_index)
        site_index += 1
    lines.append(f"{skip_rare}:")

    # Dead exit sites (statically present, dynamically unreachable:
    # argc is never 0, so the branch is never taken at runtime).
    for plan in exit_plans[1:]:
        taken = fresh("deadexit")
        cont = fresh("cont")
        lines += [
            "    cmpi r12, 0",
            f"    beq {taken}",
            f"    jmp {cont}",
            f"{taken}:",
        ]
        emit_site(plan, site_index)
        lines.append(f"{cont}:")
        site_index += 1

    # The one live exit.
    final = exit_plans[0] if exit_plans else SitePlan("exit", ["const"])
    if final.args and final.args[0] != "const":
        final.args[0] = "const"
    emit_site(final, site_index)

    # Data sections.
    lines.append(".section .rodata")
    lines.append("path_scratch:")
    lines.append('    .asciz "/tmp/prof.dat"')
    lines.append("path_dir:")
    lines.append('    .asciz "/tmp"')
    for text, label in strings.items():
        lines.append(f"{label}:")
        escaped = text.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'    .asciz "{escaped}"')
    lines.append(".section .bss")
    lines.append("scratch:")
    lines.append("    .space 8192")

    used = sorted({p.syscall for p in plans} | {"open", "exit"})
    source = "\n".join(lines) + "\n" + runtime_source(personality, tuple(used))
    return assemble(
        source,
        metadata={"program": name, "personality": personality},
    )
