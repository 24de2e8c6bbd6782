"""The mutant catalogue (``tests/mutants.py``) stays anchored to the code it edits.

Each entry's old text must occur exactly once in its file, so that the
runner applies exactly the edit the entry names; an entry whose code moved
fails here rather than silently mutating nothing.
"""

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once_in_its_file():
    for mutant in MUTANTS:
        text = (ROOT / mutant.file).read_text()
        assert text.count(mutant.old) == 1, mutant.name
        assert mutant.old != mutant.new and mutant.why, mutant.name


def test_the_catalogue_names_each_mutant_once():
    names = [mutant.name for mutant in MUTANTS]
    assert len(names) == len(set(names)) and len(names) >= 12
