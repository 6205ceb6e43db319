"""The mutation list stays in step with the code: every edit still applies.

``python tests/mutants.py`` runs the mutants themselves; this only checks
that each one's source text matches once and that its tests exist, so a
refactor that stales a mutant fails here.
"""

import os

import pytest

from mutants import MUTANTS, REPO


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    with open(os.path.join(REPO, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1
    for test in mutant.tests:
        assert os.path.isfile(os.path.join(REPO, test.split("::")[0])), test
