"""The mutation gate's list stays in step with the code it mutates.

``tests/mutants.py`` runs by hand; these checks run with the suite, so a
change that removes or duplicates a mutant's text fails here at once.
"""

from pathlib import Path

from mutants import MUTANTS

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wmstream"


def test_every_mutant_text_occurs_once_in_its_file():
    stranded = [
        (m.name, count)
        for m in MUTANTS
        if (count := (SRC / m.path).read_text(encoding="utf-8").count(m.old)) != 1
    ]
    assert stranded == []


def test_every_mutant_has_a_unique_name_and_existing_test_files():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
    assert [(m.name, t) for m in MUTANTS for t in m.tests if not (TESTS / t).is_file()] == []
