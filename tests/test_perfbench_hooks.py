"""The benchmark's hooks into the package still exist.

``perfbench/tracer.py`` wraps the functions its ``TARGETS`` names, and
each workload in ``perfbench/workloads.py`` rebuilds its inputs through
the public API.  A rename or deletion in the package that breaks either
fails here, in the fast suite, rather than only in a traced benchmark
run.  The benchmark files are only read.
"""

import importlib.util
import os

import pytest

import strictsaddle

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("layer,owner,attr", tracer.TARGETS, ids=tracer.target_names())
def test_trace_target_resolves(layer, owner, attr):
    holder = strictsaddle
    for part in owner.split("."):
        holder = getattr(holder, part)
    # the tracer swaps a method in the class's own namespace, not an inherited one
    target = holder.__dict__[attr] if isinstance(holder, type) else getattr(holder, attr)
    assert callable(target)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_setup_builds(name):
    assert workloads.get(name, smoke=True).setup(strictsaddle, 0) is not None
