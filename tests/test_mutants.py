"""The mutation catalogue still matches the source: every ``old`` string of
``tests/mutants.py`` occurs exactly once in its file, so moved code shows
here, not only when the catalogue runs, and ``tests/killsets.json`` records
every entry under its label and ``why``. This reads files and runs no
mutant."""

import json

import mutants


def test_every_entry_matches_its_file_once():
    assert mutants.mismatches(mutants.labelled()) == []


def test_kill_sets_record_every_entry():
    record = json.loads(mutants.KILLSETS.read_text(encoding="utf-8"))["entries"]
    want = [(label, why) for label, (_, _, _, why), _ in mutants.labelled()]
    assert [(e["label"], e["why"]) for e in record] == want
