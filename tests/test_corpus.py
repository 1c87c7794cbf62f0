"""Replay the bundled corpus against its recorded transcripts.

Each ``<name>.pl`` program in the corpus has a sibling ``<name>.queries``
file and a ``<name>.expected`` transcript.  The transcript is the canonical
rendering of every solution to every query, with variable serial numbers
renumbered per query block so the text is stable across runs.
These tests freeze end-to-end behaviour: any change to the reader, engine,
prelude, or solution printer that alters observable answers shows up as a
byte-level diff here.
"""

from __future__ import annotations

import pytest

from entangle_pl import corpus_dir
from entangle_pl.oracle import canonical_transcript, read_queries

CORPUS = corpus_dir()
PROGRAMS = sorted(CORPUS.glob("*.pl"))


def test_corpus_is_complete():
    # Every program ships with queries and a recorded transcript.
    names = sorted(p.stem for p in PROGRAMS)
    assert names == [
        "assumptions_demo",
        "coloring",
        "dcg_demo",
        "inject",
        "interclausal",
        "mst",
    ]
    for program in PROGRAMS:
        assert program.with_suffix(".queries").exists(), program.name
        assert program.with_suffix(".expected").exists(), program.name


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.stem)
def test_transcript_matches_recording(program):
    queries = read_queries(program.with_suffix(".queries"))
    expected = program.with_suffix(".expected").read_text(encoding="utf-8")
    actual = canonical_transcript(
        program.read_text(encoding="utf-8"), queries
    )
    assert actual == expected
