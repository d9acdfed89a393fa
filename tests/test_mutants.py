"""The mutation catalogue still matches the source: every ``old`` string of
``tests/mutants.py`` occurs exactly once in its file, so moved code shows
here, not only when the catalogue runs. This reads files and runs no mutant."""

import mutants


def test_every_entry_matches_its_file_once():
    assert mutants.mismatches(mutants.labelled()) == []
