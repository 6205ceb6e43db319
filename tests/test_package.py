"""The package exports what its callers read, and nothing only its tests call.

``import strictsaddle`` gives the version, the seven modules and the eight
names the benchmark's problem set-ups read.  Each module's ``__all__`` lists
only names that code in ``src/strictsaddle/`` uses, apart from the few that
the benchmark's own files still name.
"""

import ast
import importlib
import os

import strictsaddle

MODULES = ("analysis", "cli", "ica", "manifold", "objectives", "sgd", "tensor4")
SETUP_NAMES = ("OrthoBasis", "make_orthogonal_tensor", "maxeig_objective", "reconstruction_objective",
               "correlation_objective", "SimpleSampler", "IcaSampler", "IcaModel")

# Exported names with no caller in src/, kept because perfbench/ names them;
# each leaves with the ROADMAP item given.
PINNED = {
    "make_orthogonal_tensor": "item 5: moves to tests/dense_oracle.py",
    "basis_form_vector": "item 5: tests move to coords_form_vector",
    "basis_form_matrix": "item 5: tests move to coords_form_matrix",
    "unit_sphere_noise": "item 1: retired as a step-path layer",
    "projected_noisy_sgd": "item 5: replaced by projected_trials(1, ...)",
}

SRC = os.path.dirname(os.path.abspath(strictsaddle.__file__))


def _module_exports():
    for name in MODULES:
        module = importlib.import_module(f"strictsaddle.{name}")
        for export in getattr(module, "__all__", ()):
            yield module, export


def _used_names():
    """Every name read in src/strictsaddle/ outside __init__.py, as a bare
    name or an attribute, not counting reads inside its own top-level def."""
    used = set()
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py") or filename == "__init__.py":
            continue
        with open(os.path.join(SRC, filename)) as fh:
            tree = ast.parse(fh.read(), filename)
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    used.add(node.id)
                elif isinstance(node, ast.Attribute) and node.attr != own:
                    used.add(node.attr)
    return used


def test_package_exports_the_modules_and_setup_names():
    assert sorted(strictsaddle.__all__) == sorted(("__version__",) + MODULES + SETUP_NAMES)
    assert [name for name in strictsaddle.__all__ if not hasattr(strictsaddle, name)] == []


def test_every_module_export_resolves():
    assert [f"{module.__name__}.{name}" for module, name in _module_exports() if not hasattr(module, name)] == []


def test_every_module_export_has_a_src_caller():
    used = _used_names()
    uncalled = {name for _, name in _module_exports() if name not in used}
    assert uncalled == set(PINNED)
