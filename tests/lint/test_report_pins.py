"""Lint report bytes, pinned across commits.

The CI lint jobs check exit codes and the JSON schema; a change that
moves a finding's message, location or witness schedule passes them.
These tests pin ``sha256(stdout)[:16]`` of ``repro lint --corpus <rule>
--format json`` for the P201 warning program and every R3xx corpus
program, and of the ``repro lint --witness`` transcript, with the
checkout path replaced so the digests do not depend on where the repo
lives.  A change that moves a digest is a declared output change: it
updates the digest here and says why.
"""

import hashlib
import os

import pytest

import repro
from repro.cli import main

#: the directory holding ``src/``, as it appears in finding filenames
CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(repro.__file__)))

CORPUS_PINS = {
    "P201": (0, "fd943088c4a832ea"),
    "R301": (1, "b099df50511fcd77"),
    "R302": (1, "85e974f2965809d2"),
    "R303": (1, "506a11690e43ebca"),
    "R304": (1, "459e314cf2177ae7"),
    "R305": (1, "42782374be9cf846"),
}


def run(capsys, *argv):
    """``(exit code, sha16 of path-normalised stdout)`` of one lint run."""
    code = main(["lint", *argv])
    out = capsys.readouterr().out.replace(CHECKOUT, "<checkout>")
    return code, hashlib.sha256(out.encode()).hexdigest()[:16]


@pytest.mark.parametrize("rule_id", sorted(CORPUS_PINS))
def test_corpus_json_envelope_is_pinned(capsys, rule_id):
    assert run(capsys, "--corpus", rule_id, "--format", "json") \
        == CORPUS_PINS[rule_id]


def test_witness_transcript_is_pinned(capsys):
    assert run(capsys, "--witness") == (0, "faeff5639436d53f")
