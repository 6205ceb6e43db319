"""The mutation list stays in step with the code: every edit still applies.

``python tests/mutants.py`` runs the mutants themselves; this only checks
that each one's source text matches once and that its tests exist, down
to the class and function each node id names, so a refactor that stales
a mutant or renames one of its tests fails here.
"""

import ast
import os

import pytest

from mutants import MUTANTS, REPO


def defines(path, names):
    """True when the module at ``path`` defines the nested classes and
    functions ``names`` (a node id's parts after the file, parametrize ids
    stripped), each inside the one before."""
    with open(path) as fh:
        body = ast.parse(fh.read()).body
    for name in names:
        node = next((node for node in body if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                     and node.name == name.split("[")[0]), None)
        if node is None:
            return False
        body = node.body
    return True


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies_once_and_names_existing_tests(mutant):
    with open(os.path.join(REPO, mutant.path)) as fh:
        assert fh.read().count(mutant.old) == 1
    for test in mutant.tests:
        path, *names = test.split("::")
        assert os.path.isfile(os.path.join(REPO, path)), test
        assert defines(os.path.join(REPO, path), names), test


def test_node_lookup_follows_classes_and_strips_parametrize_ids():
    path = os.path.join(REPO, "tests", "test_mutants.py")
    assert defines(path, ["test_mutant_applies_once_and_names_existing_tests[flipped-json-margin]"])
    assert defines(path, [])
    assert not defines(path, ["test_mutant_applies_once_and_names_no_tests"])
    assert not defines(path, ["defines", "names"])  # a parameter is not a node
    sgd_tests = os.path.join(REPO, "tests", "test_sgd.py")
    assert defines(sgd_tests, ["TestNoise", "test_unit_norm"])
    assert not defines(sgd_tests, ["TestCsv", "test_unit_norm"])
