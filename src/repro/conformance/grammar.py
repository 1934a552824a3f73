"""The conformance generator: seeded, valid-but-adversarial guest programs.

A generated program is a :class:`ProgramSpec` — a flat sequence of
*ops* drawn from a small grammar, each rendering to a self-contained
assembly fragment.  The grammar is chosen to stress exactly the places
where the five engine configurations could diverge:

- ``write`` / ``openclose`` / ``getpid`` — straight-line syscall
  chains through the mini-libc stubs (file-family traps, warm sites).
- ``spin`` — near-budget loops that bump a ``.data`` counter word
  through ``ld``/``st`` every trip, with trip counts seeded around
  multiples of the sweep timeslice, so preemption points land on block
  boundaries and mid-block.  About half of the near-budget loops run
  past the threaded engine's 256-execution fusion threshold, so their
  tail runs as a compiled superblock (data-TLB loads and stores
  included) and slices also end between its passes.
- ``smc`` — a callable instruction slot in ``.data`` (writable, and
  executable because the paper's 2005-era testbed has no NX bit) that
  the program executes, patches with stores, and executes again: the
  self-modifying-store path that the threaded engine's write-version
  guards and chain-severing must get right.
- ``forkpipe`` — fork a child that feeds 8-byte records through a
  kernel pipe, with EOF, blocking, and ``wait4`` reconciliation.
- ``socket`` — a one-client echo exchange over the loopback socket
  stack (bind/listen/accept/connect/send/recv/shutdown), the
  socket-family trap set with authenticated string addresses.

Every op verifies its own results and branches to a shared ``fail:``
exit(1) on any mismatch, so a clean run exiting 0 really did observe
the semantics it was generated to observe.  Specs are pure data
(JSON-able), which is what lets the shrinker drop and simplify ops and
the corpus replay exact pinned sources.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.asm import assemble
from repro.binfmt import SefBinary
from repro.isa import Instruction, encode_instruction
from repro.isa.opcodes import Op
from repro.workloads.runtime import runtime_source, stub_label

#: Timeslice the oracle schedules every conformance run with.  Small on
#: purpose: many preemption boundaries per program, and the ``spin``
#: op seeds its trip counts around multiples of it.
DEFAULT_TIMESLICE = 200

#: Marker word carried in every pipe/socket record (and checked on the
#: other side).
RECORD_MARKER = 0x43464D4B  # "CFMK"

#: Bytes per pipe/socket record.
RECORD_SIZE = 8

#: Instructions per ``spin`` trip (ld, addi, st, subi, cmpi, bgt).
SPIN_TRIP_INSNS = 6

#: Constant messages the ``write`` op prints (lengths differ so seeded
#: partial writes exercise distinct Immediate length constraints).
MESSAGES = ("conform\n", "ok\n", "abcdefghijklmnop")

#: Paths the ``openclose`` op opens; the oracle's kernel pre-creates
#: every one of them.
PATHS = ("/etc/motd", "/tmp/conform.dat")

#: Op kinds in grammar order.
OP_KINDS = ("write", "openclose", "getpid", "spin", "smc", "forkpipe", "socket")

#: kind -> syscall family it exercises (corpus coverage tags).
FAMILIES = {
    "write": "file",
    "openclose": "file",
    "getpid": "process",
    "spin": "loop",
    "smc": "smc",
    "forkpipe": "pipe",
    "socket": "socket",
}


@dataclass(frozen=True)
class GenOp:
    """One grammar op: a kind plus its seeded parameters."""

    kind: str
    #: write: message index / openclose: path index / smc: first
    #: immediate / forkpipe, socket: record count / spin: unused.
    value: int = 0
    #: spin: trip count / smc: second immediate / write: byte length.
    extra: int = 0

    def to_json(self) -> list:
        return [self.kind, self.value, self.extra]

    @classmethod
    def from_json(cls, row: list) -> "GenOp":
        return cls(kind=row[0], value=int(row[1]), extra=int(row[2]))


@dataclass(frozen=True)
class ProgramSpec:
    """One generated program: an id and its op sequence."""

    program_id: int
    ops: tuple

    def to_json(self) -> dict:
        return {
            "program_id": self.program_id,
            "ops": [op.to_json() for op in self.ops],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ProgramSpec":
        return cls(
            program_id=int(payload["program_id"]),
            ops=tuple(GenOp.from_json(row) for row in payload["ops"]),
        )

    def families(self) -> tuple:
        return tuple(dict.fromkeys(FAMILIES[op.kind] for op in self.ops))


def generate_specs(seed: int, count: int) -> list[ProgramSpec]:
    """Derive ``count`` program specs from ``seed`` (same arguments ->
    identical spec list, the determinism the report contract needs)."""
    rng = random.Random(seed)
    return [_one_spec(rng, index) for index in range(count)]


def _one_spec(rng: random.Random, program_id: int) -> ProgramSpec:
    ops = [_one_op(rng) for _ in range(rng.randrange(1, 6))]
    return ProgramSpec(program_id=program_id, ops=tuple(ops))


def _one_op(rng: random.Random) -> GenOp:
    # Straight-line syscall ops dominate; the heavier multi-process ops
    # appear often enough that a 50-program sweep covers every family.
    kind = rng.choices(
        OP_KINDS, weights=(5, 4, 3, 4, 3, 2, 2), k=1
    )[0]
    if kind == "write":
        message = rng.randrange(len(MESSAGES))
        return GenOp(kind, message, rng.randrange(1, len(MESSAGES[message]) + 1))
    if kind == "openclose":
        return GenOp(kind, rng.randrange(len(PATHS)))
    if kind == "getpid":
        return GenOp(kind)
    if kind == "spin":
        return GenOp(kind, extra=_near_budget_trips(rng))
    if kind == "smc":
        first = rng.randrange(1, 1 << 16)
        second = rng.randrange(1, 1 << 16)
        return GenOp(kind, first, second if second != first else second + 1)
    # forkpipe / socket: a few records each; blocking and EOF matter,
    # volume does not.
    return GenOp(kind, rng.randrange(1, 5))


def _near_budget_trips(rng: random.Random) -> int:
    """Trip counts clustered around timeslice multiples: each trip is
    ``SPIN_TRIP_INSNS`` instructions, so ``timeslice * k / 6 ± delta``
    lands the loop's preemption point just before, on, and just after
    block boundaries.  Half of the clustered loops take k = 8..12
    (264-402 trips), past the 256 executions that make the threaded
    engine fuse the loop into a superblock."""
    roll = rng.random()
    if roll < 0.7:
        k = rng.randrange(1, 4) if roll < 0.35 else rng.randrange(8, 13)
        delta = rng.randrange(-2, 3)
        return max(1, (DEFAULT_TIMESLICE * k) // SPIN_TRIP_INSNS + delta)
    return rng.randrange(1, 64)


# -- rendering --------------------------------------------------------------


def render(spec: ProgramSpec) -> str:
    """Render a spec to assembly source (deterministic)."""
    text: list[str] = [
        ".section .text",
        ".global _start",
        "_start:",
    ]
    data: list[str] = []
    bss_needed = False
    syscalls = {"exit"}
    for index, op in enumerate(spec.ops):
        renderer = _RENDERERS[op.kind]
        fragment, data_fragment, used, scratch = renderer(index, op)
        text += fragment
        data += data_fragment
        syscalls |= used
        bss_needed = bss_needed or scratch
    text += [
        "    li r1, 0",
        f"    call {stub_label('exit')}",
        "fail:",
        "    li r1, 1",
        f"    call {stub_label('exit')}",
    ]
    source = "\n".join(text) + "\n"
    source += _rodata(spec)
    if data:
        source += ".section .data\n" + "\n".join(data) + "\n"
    if bss_needed:
        source += (
            ".section .bss\n"
            "cf_iobuf:\n"
            f"    .space {RECORD_SIZE}\n"
            "cf_wstatus:\n"
            "    .space 4\n"
        )
    source += runtime_source("linux", tuple(sorted(syscalls)))
    return source


def build(spec: ProgramSpec) -> SefBinary:
    """Assemble a spec into an (uninstalled) binary."""
    return assemble(
        render(spec), metadata={"program": f"conform-{spec.program_id}"}
    )


def _rodata(spec: ProgramSpec) -> str:
    lines = [".section .rodata"]
    for index, message in enumerate(MESSAGES):
        escaped = message.replace("\n", "\\n")
        lines.append(f"cf_msg{index}:")
        lines.append(f'    .ascii "{escaped}"')
    for index, path in enumerate(PATHS):
        lines.append(f"cf_path{index}:")
        lines.append(f'    .asciz "{path}"')
    for index, op in enumerate(spec.ops):
        if op.kind == "socket":
            lines.append(f"cf_svc{index}:")
            lines.append(f'    .asciz "svc:cf{index}"')
    return "\n".join(lines) + "\n"


def _render_write(index: int, op: GenOp):
    length = min(op.extra, len(MESSAGES[op.value]))
    fragment = [
        f"    ; op {index}: write {length} bytes of msg{op.value}",
        "    li r1, 1",
        f"    li r2, cf_msg{op.value}",
        f"    li r3, {length}",
        f"    call {stub_label('write')}",
        f"    cmpi r0, {length}",
        "    bne fail",
    ]
    return fragment, [], {"write"}, False


def _render_openclose(index: int, op: GenOp):
    fragment = [
        f"    ; op {index}: open+close path{op.value}",
        f"    li r1, cf_path{op.value}",
        "    li r2, 0",
        f"    call {stub_label('open')}",
        "    cmpi r0, 0",
        "    blt fail",
        "    mov r1, r0",
        f"    call {stub_label('close')}",
        "    cmpi r0, 0",
        "    bne fail",
    ]
    return fragment, [], {"open", "close"}, False


def _render_getpid(index: int, op: GenOp):
    fragment = [
        f"    ; op {index}: getpid",
        f"    call {stub_label('getpid')}",
        "    cmpi r0, 0",
        "    ble fail",
    ]
    return fragment, [], {"getpid"}, False


def _render_spin(index: int, op: GenOp):
    """Count ``extra`` trips down in a register and up in a ``.data``
    word, then check the word."""
    fragment = [
        f"    ; op {index}: near-budget spin ({op.extra} trips)",
        f"    li r9, {op.extra}",
        f"    li r10, cf_spinw{index}",
        f"cf_spin{index}:",
        "    ld r11, [r10+0]",
        "    addi r11, r11, 1",
        "    st r11, [r10+0]",
        "    subi r9, r9, 1",
        "    cmpi r9, 0",
        f"    bgt cf_spin{index}",
        "    ld r11, [r10+0]",
        f"    cmpi r11, {op.extra}",
        "    bne fail",
    ]
    return fragment, [f"cf_spinw{index}:", "    .word 0"], set(), False


def _encode_words(instruction: Instruction) -> tuple:
    blob = encode_instruction(instruction)
    return tuple(
        int.from_bytes(blob[offset:offset + 4], "little")
        for offset in range(0, len(blob), 4)
    )


def _render_smc(index: int, op: GenOp):
    """A callable two-instruction slot in .data (``li r0, A; ret``)
    executed, patched in place to ``li r0, B``, and executed again.
    Stores go through the canonical write path, so the threaded
    engine's block cache must invalidate the compiled slot."""
    before = _encode_words(Instruction(Op.LI, regs=(0,), imm=op.value))
    after = _encode_words(Instruction(Op.LI, regs=(0,), imm=op.extra))
    ret = _encode_words(Instruction(Op.RET))
    data = [f"cf_slot{index}:"]
    for word in before + ret:
        data.append(f"    .word 0x{word:08X}")
    fragment = [
        f"    ; op {index}: self-modifying slot ({op.value} -> {op.extra})",
        # Indirect calls: the installer's CFG (correctly) refuses a
        # direct branch to a data symbol, but a register-indirect call
        # into the writable slot is exactly the shape real JIT/SMC
        # code takes.  The ordering analysis models CALLR as "any
        # known function"; calling the syscall-free rt_strlen helper
        # directly keeps a syscall-free static path through the
        # indirect call, so the data-slot detour stays admissible
        # under the control-flow policy.
        "    li r1, cf_path0",
        "    call rt_strlen",
        f"    li r9, cf_slot{index}",
        "    callr r9",
        f"    cmpi r0, {op.value}",
        "    bne fail",
        f"    li r9, cf_slot{index}",
        f"    li r10, 0x{after[0]:08X}",
        "    st r10, [r9+0]",
        f"    li r10, 0x{after[1]:08X}",
        "    st r10, [r9+4]",
        f"    li r9, cf_slot{index}",
        "    callr r9",
        f"    cmpi r0, {op.extra}",
        "    bne fail",
    ]
    return fragment, data, set(), False


def _render_forkpipe(index: int, op: GenOp):
    """Fork a child that feeds ``value`` marked records through a pipe;
    the parent drains to EOF, reaps, and reconciles every count."""
    records = op.value
    data = [f"cf_pipefds{index}:", "    .space 8"]
    fragment = [
        f"    ; op {index}: fork + pipe, {records} records",
        f"    li r1, cf_pipefds{index}",
        f"    call {stub_label('pipe')}",
        "    cmpi r0, 0",
        "    bne fail",
        f"    call {stub_label('fork')}",
        "    cmpi r0, 0",
        f"    beq cf_fp_child{index}",
        "    blt fail",
        # parent: close the write end, drain records to EOF
        f"    li r9, cf_pipefds{index}",
        "    ld r1, [r9+4]",
        f"    call {stub_label('close')}",
        "    li r13, 0",
        f"cf_fp_read{index}:",
        f"    li r9, cf_pipefds{index}",
        "    ld r1, [r9+0]",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        f"    call {stub_label('read')}",
        "    cmpi r0, 0",
        f"    beq cf_fp_eof{index}",
        f"    cmpi r0, {RECORD_SIZE}",
        "    bne fail",
        "    li r9, cf_iobuf",
        "    ld r10, [r9+4]",
        f"    cmpi r10, {RECORD_MARKER}",
        "    bne fail",
        "    addi r13, r13, 1",
        f"    jmp cf_fp_read{index}",
        f"cf_fp_eof{index}:",
        f"    li r9, cf_pipefds{index}",
        "    ld r1, [r9+0]",
        f"    call {stub_label('close')}",
        f"    cmpi r13, {records}",
        "    bne fail",
        # reap the child; its exit status carries its sent count
        "    li r1, 0xFFFFFFFF",
        "    li r2, cf_wstatus",
        "    li r3, 0",
        "    li r4, 0",
        f"    call {stub_label('wait4')}",
        "    cmpi r0, 0",
        "    blt fail",
        "    li r9, cf_wstatus",
        "    ld r10, [r9+0]",
        "    shri r10, r10, 8",
        f"    cmpi r10, {records}",
        "    bne fail",
        f"    jmp cf_fp_done{index}",
        # child: close the read end, send marked records, exit(count)
        f"cf_fp_child{index}:",
        f"    li r9, cf_pipefds{index}",
        "    ld r1, [r9+0]",
        f"    call {stub_label('close')}",
        "    li r13, 0",
        f"cf_fp_send{index}:",
        f"    cmpi r13, {records}",
        f"    bge cf_fp_childdone{index}",
        "    li r9, cf_iobuf",
        "    st r13, [r9+0]",
        f"    li r10, {RECORD_MARKER}",
        "    st r10, [r9+4]",
        f"    li r9, cf_pipefds{index}",
        "    ld r1, [r9+4]",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        f"    call {stub_label('write')}",
        f"    cmpi r0, {RECORD_SIZE}",
        "    bne fail",
        "    addi r13, r13, 1",
        f"    jmp cf_fp_send{index}",
        f"cf_fp_childdone{index}:",
        f"    li r9, cf_pipefds{index}",
        "    ld r1, [r9+4]",
        f"    call {stub_label('close')}",
        "    mov r1, r13",
        f"    call {stub_label('exit')}",
        f"cf_fp_done{index}:",
    ]
    used = {"pipe", "fork", "read", "write", "close", "wait4", "exit"}
    return fragment, data, used, True


def _render_socket(index: int, op: GenOp):
    """A one-client echo exchange over the loopback stack: the parent
    listens on this op's constant service name, the forked child dials
    it and round-trips ``value`` marked records."""
    requests = op.value
    fragment = [
        f"    ; op {index}: socket echo, {requests} requests",
        "    li r1, 2",
        "    li r2, 1",
        "    li r3, 0",
        f"    call {stub_label('socket')}",
        "    cmpi r0, 0",
        "    blt fail",
        "    mov r12, r0",
        "    mov r1, r12",
        f"    li r2, cf_svc{index}",
        "    li r3, 0",
        f"    call {stub_label('bind')}",
        "    cmpi r0, 0",
        "    bne fail",
        "    mov r1, r12",
        "    li r2, 1",
        f"    call {stub_label('listen')}",
        "    cmpi r0, 0",
        "    bne fail",
        f"    call {stub_label('fork')}",
        "    cmpi r0, 0",
        f"    beq cf_sk_child{index}",
        "    blt fail",
        # parent: accept, echo to EOF, close, reap
        "    mov r1, r12",
        "    li r2, 0",
        "    li r3, 0",
        f"    call {stub_label('accept')}",
        "    cmpi r0, 0",
        "    blt fail",
        "    mov r13, r0",
        "    li r14, 0",
        f"cf_sk_echo{index}:",
        "    mov r1, r13",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        "    li r4, 0",
        f"    call {stub_label('recv')}",
        "    cmpi r0, 0",
        f"    beq cf_sk_eof{index}",
        f"    cmpi r0, {RECORD_SIZE}",
        "    bne fail",
        "    mov r1, r13",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        "    li r4, 0",
        f"    call {stub_label('send')}",
        f"    cmpi r0, {RECORD_SIZE}",
        "    bne fail",
        "    addi r14, r14, 1",
        f"    jmp cf_sk_echo{index}",
        f"cf_sk_eof{index}:",
        "    mov r1, r13",
        f"    call {stub_label('close')}",
        "    mov r1, r12",
        f"    call {stub_label('close')}",
        f"    cmpi r14, {requests}",
        "    bne fail",
        "    li r1, 0xFFFFFFFF",
        "    li r2, cf_wstatus",
        "    li r3, 0",
        "    li r4, 0",
        f"    call {stub_label('wait4')}",
        "    cmpi r0, 0",
        "    blt fail",
        "    li r9, cf_wstatus",
        "    ld r10, [r9+0]",
        "    shri r10, r10, 8",
        f"    cmpi r10, {requests}",
        "    bne fail",
        f"    jmp cf_sk_done{index}",
        # child: dial, round-trip records, half-close, observe EOF
        f"cf_sk_child{index}:",
        "    mov r1, r12",
        f"    call {stub_label('close')}",
        "    li r1, 2",
        "    li r2, 1",
        "    li r3, 0",
        f"    call {stub_label('socket')}",
        "    cmpi r0, 0",
        "    blt fail",
        "    mov r12, r0",
        "    mov r1, r12",
        f"    li r2, cf_svc{index}",
        "    li r3, 0",
        f"    call {stub_label('connect')}",
        "    cmpi r0, 0",
        "    bne fail",
        "    li r13, 0",
        f"cf_sk_loop{index}:",
        f"    cmpi r13, {requests}",
        f"    bge cf_sk_childdone{index}",
        "    li r9, cf_iobuf",
        "    st r13, [r9+0]",
        f"    li r10, {RECORD_MARKER}",
        "    st r10, [r9+4]",
        "    mov r1, r12",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        "    li r4, 0",
        f"    call {stub_label('send')}",
        f"    cmpi r0, {RECORD_SIZE}",
        "    bne fail",
        "    mov r1, r12",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        "    li r4, 0",
        f"    call {stub_label('recv')}",
        f"    cmpi r0, {RECORD_SIZE}",
        "    bne fail",
        "    li r9, cf_iobuf",
        "    ld r10, [r9+4]",
        f"    cmpi r10, {RECORD_MARKER}",
        "    bne fail",
        "    addi r13, r13, 1",
        f"    jmp cf_sk_loop{index}",
        f"cf_sk_childdone{index}:",
        "    mov r1, r12",
        "    li r2, 1",
        f"    call {stub_label('shutdown')}",
        "    cmpi r0, 0",
        "    bne fail",
        "    mov r1, r12",
        "    li r2, cf_iobuf",
        f"    li r3, {RECORD_SIZE}",
        "    li r4, 0",
        f"    call {stub_label('recv')}",
        "    cmpi r0, 0",
        "    bne fail",
        "    mov r1, r12",
        f"    call {stub_label('close')}",
        "    mov r1, r13",
        f"    call {stub_label('exit')}",
        f"cf_sk_done{index}:",
    ]
    used = {
        "socket", "bind", "listen", "accept", "connect",
        "send", "recv", "shutdown", "close", "fork", "wait4", "exit",
    }
    return fragment, [], used, True


_RENDERERS = {
    "write": _render_write,
    "openclose": _render_openclose,
    "getpid": _render_getpid,
    "spin": _render_spin,
    "smc": _render_smc,
    "forkpipe": _render_forkpipe,
    "socket": _render_socket,
}
