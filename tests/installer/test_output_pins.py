"""The installer's output, pinned byte for byte.

A refactor of analysis, policy generation or record emission must not
move a single byte of what an untracked install writes or of what a
policy-only export says.  Each entry is the sha256 of one output under
a fixed key: the four Table 3 profile programs on linux (installed, and
their ``generate_policy_only`` JSON), every SPEC program, the default
netserver and perfbench's syscall-warm program.
"""

import hashlib

import pytest

from perfbench.workloads import syscall_warm_source
from repro.asm import assemble
from repro.crypto import Key
from repro.installer import generate_policy_only, install
from repro.policy.serialize import policy_to_json
from repro.workloads import (
    PROFILE_PROGRAMS,
    SPEC_PROGRAMS,
    build_profile_program,
    build_spec_program,
)
from repro.workloads.netserver import build_netserver

KEY = Key.from_passphrase("installer-output-pins")

INSTALLED = {
    "profile/bison": "81bcf4125b81ae2708deb6767f282a4d711fd184ca92d1a048ec481cdcf3b0a5",
    "profile/calc": "c949f4694f4ea09b71f7ced1e8407e515414d662fbf63251a465b4c68a5e79cf",
    "profile/screen": "e9897289b5b265c499bf718025b08747f82fb1d5213d0bf6f0c631726cf5e2b9",
    "profile/tar": "b297c120c67a4293c00e87610ff2a62babfe7c97a85ca66f60c25ee9c2abce79",
    "spec/gzip-spec": "d948f38efe16827dcf05f4f42db733700ca741150d3dcf8f6d300503f2a7a17a",
    "spec/crafty": "2225f9c1c273a5ea30373dc4bd310d70e97d659077dde1a13a602ae26a879869",
    "spec/mcf": "9c37e718fdc93608a5e9864f777c0ce46af4539a5b6dd98d48f395b62e4c55d5",
    "spec/vpr": "9156ff80d01f0179849a23506750a213f7a517b85b18b55d7f1041c860b9c103",
    "spec/twolf": "2ef8bb6bf1a825bde3820c5b5133ef622083b1c5493cb74423dc298b76b2a042",
    "spec/gcc": "a69f640b1a34bda0fadb691ffed6202d21d5a4401dbd276888279f4c347240e0",
    "spec/vortex": "042afa6fe361f9c52b98417729a1c3e240d03eee86bbfd9c8e2d8e839b042842",
    "spec/pyramid": "b382a3c152fb1a4dec4255c97db9b1e94e4c7f5adc021f73e55927d8a9861146",
    "spec/gzip": "a1fb6ba6bede33ed1ee435af1a6b9b73bd9478b81986c034fb39e90422de5caa",
    "netserver": "b0aa52680082eb4706d26ede74bfb4b02b10d44b92a17f8f9038e73eea6ead96",
    "syscall-warm": "6d7a70095c047b63dda9e1336d8247f714205b6f26030c5a9e0c1808d8dee378",
}

POLICY_JSON = {
    "bison": "babe237662bae47b1581af64460208e3bb831bf84d30d4f505d558b9a3bb7884",
    "calc": "2bfb00fcc1660bea20b177d8f4560b9d1bc48a5e3b460c6fda0be920e694ecfc",
    "screen": "76b1d142579a025c1420f7efc19222da496b83c9bec8c143bd89d87c733f0f52",
    "tar": "22f13d8afde27d8eb0cb359f38e5755e25f7da28c0fc916c54d2605a09e44df4",
}


def _build(name: str):
    kind, _, program = name.partition("/")
    if kind == "profile":
        return build_profile_program(program, "linux")
    if kind == "spec":
        return build_spec_program(program)
    if name == "netserver":
        return build_netserver()
    return assemble(syscall_warm_source(), metadata={"program": "syscall-warm"})


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_pins_cover_every_program():
    assert set(POLICY_JSON) == set(PROFILE_PROGRAMS)
    assert {name for name in INSTALLED if "/" in name} == {
        f"profile/{name}" for name in PROFILE_PROGRAMS
    } | {f"spec/{name}" for name in SPEC_PROGRAMS}


@pytest.mark.parametrize("name", sorted(INSTALLED))
def test_installed_binary_is_unchanged(name):
    installed = install(_build(name), KEY)
    assert _sha256(installed.binary.to_bytes()) == INSTALLED[name]


@pytest.mark.parametrize("program", sorted(POLICY_JSON))
def test_policy_only_export_is_unchanged(program):
    policy = generate_policy_only(build_profile_program(program, "linux"))
    assert _sha256(policy_to_json(policy).encode()) == POLICY_JSON[program]
