"""The mutation table (`mutants.py`, which pytest does not collect) stays in
step with the tree: each snippet occurs exactly once in its file, and each
test a mutant names exists."""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_a_mutant_edits_one_place_and_names_tests_that_exist(mutant):
    source = (mutants.ROOT / mutant.path).read_text(encoding="utf-8")
    assert source.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet and mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        name = re.sub(r"\[.*\]$", "", name)
        tests = (mutants.ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {name}\(", tests, re.M), test


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
