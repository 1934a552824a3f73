"""The shrinker: minimize a program spec while preserving a property.

Divergences come out of the oracle attached to multi-op generated
programs; checking a 5-op program into the corpus as a regression test
would pin noise, not cause.  :func:`shrink_spec` reduces a spec to a
(local) minimum under any caller-supplied predicate — "still diverges"
for the sweep, "still covers family F and still replays clean" for
corpus seeding — using two deterministic phases run to fixpoint:

1. **op removal** (ddmin-style): try dropping contiguous chunks of
   ops, halving the chunk size down to single ops;
2. **param reduction**: for every surviving op, try a ladder of
   smaller parameter values (fewer records, fewer trips, shorter
   writes, smaller immediates).

Each candidate is evaluated through the predicate, which is the only
thing that runs programs; the shrinker itself is pure spec surgery.
Evaluations are capped so a pathological predicate cannot stall a
sweep, and every step is counted for the ``conform.shrink_*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.conformance.grammar import GenOp, ProgramSpec


@dataclass
class ShrinkResult:
    """What one shrink produced."""

    spec: ProgramSpec
    #: Predicate evaluations spent (including failed candidates).
    evaluations: int
    #: Candidates that kept the property (i.e. actual reductions).
    reductions: int


def shrink_spec(
    spec: ProgramSpec,
    predicate,
    max_evaluations: int = 200,
) -> ShrinkResult:
    """Minimize ``spec`` under ``predicate`` (see module docstring).

    ``predicate(spec) -> bool`` must be True for the input spec; the
    result is the smallest spec found for which it stayed True."""
    state = _ShrinkState(predicate, max_evaluations)
    current = spec
    changed = True
    while changed and not state.exhausted:
        changed = False
        reduced = _remove_ops(current, state)
        if reduced is not None:
            current = reduced
            changed = True
        reduced = _reduce_params(current, state)
        if reduced is not None:
            current = reduced
            changed = True
    return ShrinkResult(
        spec=current,
        evaluations=state.evaluations,
        reductions=state.reductions,
    )


class _ShrinkState:
    def __init__(self, predicate, max_evaluations: int):
        self.predicate = predicate
        self.max_evaluations = max_evaluations
        self.evaluations = 0
        self.reductions = 0

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.max_evaluations

    def keeps_property(self, spec: ProgramSpec) -> bool:
        if self.exhausted:
            return False
        self.evaluations += 1
        if self.predicate(spec):
            self.reductions += 1
            return True
        return False


def _with_ops(spec: ProgramSpec, ops) -> ProgramSpec:
    return ProgramSpec(program_id=spec.program_id, ops=tuple(ops))


def _remove_ops(spec: ProgramSpec, state: _ShrinkState):
    """One ddmin sweep: drop chunks, halving size; first success wins
    (the caller loops us to fixpoint)."""
    ops = list(spec.ops)
    if len(ops) <= 1:
        return None
    chunk = len(ops) // 2
    while chunk >= 1:
        start = 0
        while start < len(ops):
            candidate = ops[:start] + ops[start + chunk:]
            if candidate and state.keeps_property(_with_ops(spec, candidate)):
                return _with_ops(spec, candidate)
            if state.exhausted:
                return None
            start += chunk
        chunk //= 2
    return None


#: Parameter-reduction ladders per op kind: candidate replacement
#: values tried smallest-first for (value, extra).
def _param_candidates(op: GenOp):
    if op.kind == "write":
        for length in (1,):
            if op.extra > length:
                yield GenOp(op.kind, op.value, length)
        if op.value > 0:
            yield GenOp(op.kind, 0, op.extra)
    elif op.kind == "openclose":
        if op.value > 0:
            yield GenOp(op.kind, 0)
    elif op.kind == "spin":
        # 264 trips is the shortest clustered count past the engine's
        # superblock fusion threshold.
        for trips in (1, 8, 264):
            if op.extra > trips:
                yield GenOp(op.kind, extra=trips)
    elif op.kind == "smc":
        if (op.value, op.extra) != (1, 2):
            yield GenOp(op.kind, 1, 2)
    elif op.kind in ("forkpipe", "socket"):
        if op.value > 1:
            yield GenOp(op.kind, 1)


def _reduce_params(spec: ProgramSpec, state: _ShrinkState):
    """Try each op's reduction ladder; first success wins."""
    for index, op in enumerate(spec.ops):
        for candidate_op in _param_candidates(op):
            ops = list(spec.ops)
            ops[index] = candidate_op
            candidate = _with_ops(spec, ops)
            if state.keeps_property(candidate):
                return candidate
            if state.exhausted:
                return None
    return None
