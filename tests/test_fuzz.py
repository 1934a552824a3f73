"""Fuzzing the trust boundaries.

The kernel-side checker processes attacker-controlled memory; the
paper's design requires that *nothing* a guest does can break the
kernel — at worst the process is fail-stopped.  These tests throw
garbage at each boundary and assert that only the documented,
well-typed outcomes occur (never an unhandled Python exception).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.asm import AsmError, AsmSyntaxError, assemble
from repro.binfmt import BinaryFormatError, SefBinary
from repro.cpu import ExecutionFault, Memory, PROT_EXEC, PROT_READ, PROT_WRITE, VM
from repro.crypto import Key
from repro.kernel import Kernel
from repro.kernel.sched.scheduler import Scheduler, TaskState

KEY = Key.from_passphrase("fuzz", provider="fast-hmac")


def _run_one_task(kernel, process, vm, max_instructions):
    """Run a kernel-loaded process as a one-task scheduler run and
    check it ended by exit or kill (a Python exception fails the
    property by propagating)."""
    scheduler = Scheduler(
        kernel, timeslice=max_instructions, max_instructions=max_instructions
    )
    task = scheduler.adopt(process, vm)
    scheduler.run()
    assert task.state is TaskState.REAPED
    assert task.exit_status is not None
    return task


class TestVmFuzz:
    @settings(max_examples=80, deadline=None)
    @given(code=st.binary(min_size=8, max_size=256))
    def test_random_code_faults_cleanly(self, code):
        """Arbitrary bytes as .text, trapping into a real kernel: the
        process exits or is killed (a machine fault is a fault kill) —
        never anything else."""
        memory = Memory()
        memory.map_region(
            0x1000, max(len(code), 16) + 16,
            PROT_READ | PROT_WRITE | PROT_EXEC, data=code, name="fuzz",
        )
        kernel = Kernel(key=KEY)
        vm = VM(memory=memory, entry=0x1000, trap_handler=kernel)
        process = kernel.load(_trivial_binary())[0]
        kernel._vm_process[id(vm)] = process  # give traps a process to charge
        _run_one_task(kernel, process, vm, 2000)

    @settings(max_examples=40, deadline=None)
    @given(
        regs=st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            min_size=16, max_size=16,
        )
    )
    def test_hostile_asys_registers_fail_stop(self, regs):
        """ASYS with arbitrary register contents (random record pointer,
        random syscall number) must fail-stop, not crash the kernel."""
        source = ".section .text\n_start:\n    asys\n    halt\n"
        kernel = Kernel(key=KEY)
        process, vm = kernel.load(assemble(source, metadata={"program": "hostile"}))
        process.authenticated = True
        entry = vm.pc
        vm.regs[:] = [r & 0xFFFFFFFF for r in regs]
        vm.pc = entry  # entry unchanged by the register clobber
        assert _run_one_task(kernel, process, vm, 100).killed

    @settings(max_examples=25, deadline=None)
    @given(record=st.binary(min_size=0, max_size=64))
    def test_hostile_record_contents_fail_stop(self, record):
        """A forged record placed in guest memory and pointed at by r7
        is rejected by the MAC (or faults cleanly on truncation)."""
        source = ".section .text\n_start:\n    li r0, 20\n    li r7, rec\n    asys\n    halt\n"
        source += ".section .data\nrec:\n    .space 96\n"
        kernel = Kernel(key=KEY)
        binary = assemble(source, metadata={"program": "forged"})
        process, vm = kernel.load(binary)
        process.authenticated = True
        from repro.binfmt import link

        rec = link(binary).address_of("rec")
        vm.memory.write(rec, record, force=True)
        assert _run_one_task(kernel, process, vm, 100).killed


def _trivial_binary():
    return assemble(".section .text\n_start:\n    halt\n")


class TestEngineDifferentialFuzz:
    """The threaded translation cache vs the reference interpreter.

    Random programs — both raw bytes and structured instruction soup
    with loops, stores into code, and stack traffic — must leave the
    two engines in bit-identical architectural state: registers,
    flags, PC, cycle/instruction/syscall counters, memory contents,
    exit status, and fault message.
    """

    @staticmethod
    def _final_state(engine, code, reg_seed, budget):
        import hashlib

        memory = Memory()
        memory.map_region(
            0x1000, max(len(code), 16) + 64,
            PROT_READ | PROT_WRITE | PROT_EXEC, data=code, name="fuzz",
        )
        memory.map_region(
            0x8000, 256, PROT_READ | PROT_WRITE,
            data=bytes(range(256)), name="data",
        )
        vm = VM(memory=memory, entry=0x1000, engine=engine)
        for i, value in enumerate(reg_seed):
            vm.regs[i] = value
        fault = None
        try:
            vm.run(max_instructions=budget)
        except ExecutionFault as err:
            fault = str(err)
        digest = hashlib.sha256()
        for region in vm.memory.regions():
            digest.update(region.name.encode())
            digest.update(bytes(region.data))
        return {
            "regs": tuple(vm.regs),
            "pc": vm.pc,
            "flags": (vm.flag_zero, vm.flag_neg),
            "cycles": vm.cycles,
            "instructions": vm.instructions_executed,
            "syscalls": vm.syscall_count,
            "exit_status": vm.exit_status,
            "memory": digest.hexdigest(),
            "fault": fault,
        }

    @settings(max_examples=60, deadline=None)
    @given(
        code=st.binary(min_size=8, max_size=256),
        reg_seed=st.lists(
            st.integers(min_value=0, max_value=0xFFFFFFFF),
            min_size=4, max_size=4,
        ),
        budget=st.integers(min_value=1, max_value=400),
    )
    def test_random_bytes_identical_state(self, code, reg_seed, budget):
        interp = self._final_state("interp", code, reg_seed, budget)
        threaded = self._final_state("threaded", code, reg_seed, budget)
        assert interp == threaded

    @settings(max_examples=60, deadline=None)
    @given(
        instrs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=14),  # template index
                st.integers(min_value=0, max_value=11),  # register a
                st.integers(min_value=0, max_value=11),  # register b
                st.integers(min_value=0, max_value=40),  # immediate knob
            ),
            min_size=1, max_size=48,
        ),
        budget=st.integers(min_value=1, max_value=2000),
    )
    def test_structured_programs_identical_state(self, instrs, budget):
        """Instruction soup biased toward interesting interactions:
        back-branches (loops), stores aimed at the code region itself
        (self-modification), RDTSC mid-run, stack churn."""
        from repro.isa import Instruction, encode_instruction
        from repro.isa.opcodes import Op

        program = []
        for which, ra, rb, knob in instrs:
            target = 0x1000 + 8 * (knob % (len(instrs) + 1))
            program.append([
                Instruction(Op.LI, regs=(ra,), imm=knob * 97),
                Instruction(Op.ADDI, regs=(ra, rb), imm=knob),
                Instruction(Op.SUB, regs=(ra, ra, rb)),
                Instruction(Op.MUL, regs=(ra, ra, rb)),
                Instruction(Op.DIV, regs=(ra, ra, rb)),
                Instruction(Op.CMP, regs=(ra, rb)),
                Instruction(Op.CMPI, regs=(ra,), imm=knob),
                Instruction(Op.BNE, imm=target),
                Instruction(Op.BLE, imm=target),
                Instruction(Op.JMP, imm=target),
                Instruction(Op.LD, regs=(ra, rb), imm=0x8000 + knob),
                # Stores whose address depends on fuzzed registers can
                # land inside the code region -> self-modification.
                Instruction(Op.ST, regs=(ra, rb), imm=0x1000 + knob * 4),
                Instruction(Op.PUSH, regs=(ra,)),
                Instruction(Op.POP, regs=(ra,)),
                Instruction(Op.RDTSC, regs=(ra,)),
            ][which])
        program.append(Instruction(Op.HALT))
        code = b"".join(encode_instruction(i) for i in program)
        reg_seed = [0, 0, 0, 0]
        interp = self._final_state("interp", code, reg_seed, budget)
        threaded = self._final_state("threaded", code, reg_seed, budget)
        assert interp == threaded


class TestParserFuzz:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(text=st.text(max_size=200))
    def test_assembler_never_crashes(self, text):
        try:
            assemble(text)
        except (AsmSyntaxError, AsmError, BinaryFormatError):
            pass

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from([
                ".section .text", ".section .data", "_start:", "x:",
                "li r1, 5", "add r1, r2, r3", "jmp x", "sys", "halt",
                ".word x", ".byte 1", ".asciz \"s\"", "ld r1, [sp+4]",
                ".equ K, 3", "li r2, K", "call x", "ret",
            ]),
            max_size=20,
        )
    )
    def test_structured_fragments(self, lines):
        try:
            assemble("\n".join(lines))
        except (AsmSyntaxError, AsmError, BinaryFormatError):
            pass


class TestBinaryFormatFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.binary(max_size=200))
    def test_random_bytes_rejected_cleanly(self, data):
        try:
            SefBinary.from_bytes(data)
        except (BinaryFormatError, IndexError):
            # struct.unpack_from on truncated input surfaces as an
            # error; the loader path (kernel.execve) maps any parse
            # failure to EACCES.
            pass
        except Exception as err:
            import struct

            assert isinstance(err, struct.error), err

    @settings(max_examples=60, deadline=None)
    @given(
        flip=st.integers(min_value=0, max_value=100_000),
        value=st.integers(min_value=0, max_value=255),
    )
    def test_mutated_valid_binary(self, flip, value):
        """Bit-flipped serialized binaries parse or fail cleanly; if
        they parse, the kernel refuses them with a BinaryFormatError or
        runs them to an exit or a kill — never another exception."""
        import struct as struct_module

        base = bytearray(
            assemble(
                ".section .text\n_start:\n    li r0, 1\n    li r1, 0\n    sys\n"
            ).to_bytes()
        )
        base[flip % len(base)] ^= value or 0x01
        try:
            binary = SefBinary.from_bytes(bytes(base))
        except (BinaryFormatError, IndexError, UnicodeDecodeError,
                struct_module.error, ValueError):
            return
        kernel = Kernel(key=KEY)
        try:
            result = kernel.run(binary, max_instructions=1000)
        except BinaryFormatError:
            return
        assert result.exit_status is not None
