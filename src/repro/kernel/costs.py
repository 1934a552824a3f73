"""The deterministic cycle-cost model.

Two halves:

1. **Baseline syscall costs**, calibrated so that an *unmodified*
   system call measured the way the paper measures it (rdtsc around a
   tight loop) reproduces Table 4's "Original cost" column exactly:

   =============== =======
   getpid          1,141
   gettimeofday    1,395
   read(4096)      7,324
   write(4096)     39,479
   brk             1,155
   =============== =======

2. **Authentication surcharge**, modeled from first principles: a fixed
   verification overhead (argument copy-in, encoded-call construction,
   table walks) plus a per-16-byte-block cost for every AES invocation
   the check performs (call MAC, authenticated-string MACs, and — when
   control-flow policies are enabled — the two memory-checker MACs).
   The constants land the authenticated getpid at ~5,045 cycles
   (paper: 5,045), i.e. the ~3,900-cycle check cost §4.3 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Fixed cost of entering and leaving the software trap handler
#: (mode switch, register save/restore, syscall table dispatch).
TRAP_COST = 1000

#: Per-syscall service costs (cycles), excluding the trap overhead and
#: any per-byte transfer costs.  Calibrated against Table 4.
SERVICE_COST = {
    "getpid": 141,
    "gettimeofday": 395,
    "brk": 155,
    "read": 36,
    "write": 1615,
    "time": 395,
}

#: Catch-all service cost for calls without a calibrated entry.
DEFAULT_SERVICE_COST = 400

#: Per-byte data-transfer costs (dyadic rationals, so the products are
#: exact in floating point).  read(4096) = 1000 + 36 + 4096*1.53515625
#: = 7,324; write(4096) = 1000 + 1615 + 4096*9.0 = 39,479.
READ_BYTE_COST = 1.53515625
WRITE_BYTE_COST = 9.0

#: Authentication model.  AUTH_FIXED covers copying the five extra
#: arguments from user space, building the encoded call, and the policy
#: checks that involve no cryptography; MAC_BLOCK_COST is one AES-128
#: block operation inside the CMAC (~214 cycles is in line with a
#: table-based software AES on the paper's hardware generation).
#: Calibrated against Table 4's authenticated column for the three
#: transfer-free calls: getpid 5,045; gettimeofday 5,703; brk 5,083.
AUTH_FIXED = 3690
MAC_BLOCK_COST = 214

#: Fast-path accounting.  When a compiled per-site verifier thunk
#: accepts a trap (see :mod:`repro.kernel.verifierjit`), the check
#: performs no OMAC setup and no AES for the call MAC: it compares the
#: trap's arguments against the call the full check verified at that
#: site.  AUTH_FIXED_HIT covers that copy/compare/bookkeeping work —
#: much smaller than AUTH_FIXED, which also pays the CMAC
#: subkey/finalisation overhead — and CACHE_HIT_COST is the per-hit
#: compare itself (~48 bytes of sequential loads and xors).  Charging
#: hits distinctly keeps the Table 4/6 numbers honest: cached and
#: uncached runs report genuinely different, separately calibrated
#: costs instead of pretending the lookup is free.
AUTH_FIXED_HIT = 950
CACHE_HIT_COST = 50


def mac_blocks(n_bytes: int) -> int:
    """Number of AES block operations to CMAC ``n_bytes``."""
    return max(1, (n_bytes + 15) // 16)


@dataclass
class CostModel:
    """Pluggable cost model; the defaults are the calibrated constants.

    Keeping it a dataclass makes ablations trivial: benchmarks can
    construct variants (e.g. a slower MAC) without touching kernel
    code.
    """

    trap_cost: int = TRAP_COST
    service_cost: dict = field(default_factory=lambda: dict(SERVICE_COST))
    default_service_cost: int = DEFAULT_SERVICE_COST
    read_byte_cost: float = READ_BYTE_COST
    write_byte_cost: float = WRITE_BYTE_COST
    auth_fixed: int = AUTH_FIXED
    mac_block_cost: int = MAC_BLOCK_COST
    auth_fixed_hit: int = AUTH_FIXED_HIT
    cache_hit_cost: int = CACHE_HIT_COST

    def syscall_cost(self, name: str, transferred: int = 0) -> int:
        """Cycles for one unauthenticated syscall of ``name``."""
        cost = self.trap_cost + self.service_cost.get(name, self.default_service_cost)
        if transferred:
            rate = self.read_byte_cost if name == "read" else self.write_byte_cost
            if name in ("read", "write", "writev", "sendto", "recvfrom", "getdirentries"):
                cost += int(transferred * rate)
        return cost

    def auth_cost(self, mac_bytes_total: int) -> int:
        """Cycles added by authentication when the check MACs a total of
        ``mac_bytes_total`` bytes across all MAC invocations."""
        return self.auth_fixed + self.mac_block_cost * mac_blocks(mac_bytes_total)

    def auth_cost_blocks(self, blocks: int) -> int:
        """Auth cost expressed directly in AES blocks (for multi-MAC
        checks the kernel sums blocks across MACs)."""
        return self.auth_fixed + self.mac_block_cost * blocks

    def auth_cost_fastpath(self, blocks: int, hits: int) -> int:
        """Auth cost of a verifier-thunk hit: ``blocks`` counts only
        the MACs still computed in full (string contents, memory-checker
        state), ``hits`` the compares that replaced CMAC invocations."""
        return (
            self.auth_fixed_hit
            + self.mac_block_cost * blocks
            + self.cache_hit_cost * hits
        )
