"""The kept mutants of `tests/mutants.py` still fit the code and the tests.

Running the mutants takes minutes (`python tests/mutants.py`); this check
takes milliseconds: each snippet occurs exactly once in its module, and each
named test is still defined, so a refactor that moves either must move the
mutant with it."""

from __future__ import annotations

import re

import pytest

from mutants import MUTANTS, PACKAGE, split_id


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_fits_the_code_and_its_tests(mutant):
    source = (PACKAGE / mutant.module).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for test_id in mutant.tests:
        path, name = split_id(test_id)
        assert re.search(rf"^def {name}\(", path.read_text(encoding="utf-8"), re.MULTILINE), \
            test_id
