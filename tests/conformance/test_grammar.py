"""Generator determinism, JSON round-trips, and per-kind buildability."""

import pytest

from repro.binfmt import SefBinary
from repro.conformance.grammar import (
    FAMILIES,
    OP_KINDS,
    GenOp,
    ProgramSpec,
    build,
    generate_specs,
    render,
)

#: A representative single op per kind (params chosen mid-range).
KIND_EXAMPLES = {
    "write": GenOp("write", 1, 2),
    "openclose": GenOp("openclose", 1),
    "getpid": GenOp("getpid"),
    "spin": GenOp("spin", extra=67),
    "smc": GenOp("smc", 7, 9),
    "forkpipe": GenOp("forkpipe", 2),
    "socket": GenOp("socket", 2),
}


def test_generation_is_deterministic():
    assert generate_specs(0, 30) == generate_specs(0, 30)
    assert generate_specs(1, 30) != generate_specs(0, 30)


def test_generated_programs_cover_every_kind():
    specs = generate_specs(0, 200)
    kinds = {op.kind for spec in specs for op in spec.ops}
    assert kinds == set(OP_KINDS)


def test_spin_trip_counts_cross_the_fusion_threshold():
    trips = [
        op.extra for spec in generate_specs(0, 100)
        for op in spec.ops if op.kind == "spin"
    ]
    assert any(264 <= count <= 402 for count in trips)
    assert any(count < 256 for count in trips)


def test_every_kind_has_a_family():
    assert set(FAMILIES) == set(OP_KINDS)


def test_spec_json_round_trip():
    for spec in generate_specs(3, 20):
        assert ProgramSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("kind", OP_KINDS)
def test_single_op_renders_and_builds(kind):
    spec = ProgramSpec(program_id=0, ops=(KIND_EXAMPLES[kind],))
    source = render(spec)
    assert "_start:" in source and "fail:" in source
    assert isinstance(build(spec), SefBinary)


def test_render_is_deterministic():
    spec = generate_specs(0, 5)[4]
    assert render(spec) == render(spec)


def test_multi_op_program_builds():
    spec = ProgramSpec(program_id=1, ops=tuple(KIND_EXAMPLES.values()))
    assert isinstance(build(spec), SefBinary)
