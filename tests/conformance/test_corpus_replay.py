"""Pinned corpus replay: every checked-in entry must run clean and
bit-identical on every roster configuration, assembled from the
*stored* source (generator drift cannot mask an old reproducer)."""

from pathlib import Path

import pytest

from repro.asm import assemble
from repro.crypto import Key
from repro.installer import InstallerOptions, install
from repro.conformance.corpus import (
    SEED_FAMILIES,
    CorpusEntry,
    load_entries,
    make_entry,
    write_entry,
)
from repro.conformance.grammar import GenOp, ProgramSpec, render
from repro.conformance.oracle import divergences, run_all_configs

KEY = Key.from_passphrase("conformance-corpus-tests", provider="fast-hmac")

CORPUS_DIR = Path(__file__).parent / "corpus"

ENTRIES = load_entries(CORPUS_DIR)


def test_corpus_is_seeded():
    names = {entry.name for entry in ENTRIES}
    assert {f"seed-{family}" for family in SEED_FAMILIES} <= names


def test_corpus_covers_required_families():
    covered = {family for entry in ENTRIES for family in entry.families}
    assert set(SEED_FAMILIES) <= covered


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_entry_replays_conformant(entry):
    binary = assemble(
        entry.source, metadata={"program": f"corpus-{entry.name}"}
    )
    installed = install(binary, KEY, InstallerOptions())
    outcomes = run_all_configs(KEY, installed)
    assert divergences(outcomes) == [], (
        f"corpus entry {entry.name} diverged"
    )
    for config_name, outcome in outcomes.items():
        assert outcome.clean, (
            f"corpus entry {entry.name} died on {config_name}: "
            f"{outcome.kill_reasons}"
        )


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[entry.name for entry in ENTRIES]
)
def test_entry_metadata_consistent(entry):
    assert entry.families == entry.spec.families()
    assert entry.source  # pinned at capture time, non-empty


def test_entry_round_trips_through_json(tmp_path):
    entry = make_entry(
        name="rt",
        description="round-trip check",
        spec=ProgramSpec(program_id=9, ops=(GenOp("write", 0, 3),)),
    )
    path = write_entry(tmp_path, entry)
    assert path.name == "rt.json"
    loaded = CorpusEntry.from_json(path.read_text())
    assert loaded == entry
    assert loaded.source == render(loaded.spec)
