"""Span tracer that wraps strictsaddle's public functions from outside.

The tracer replaces each traced function wherever callers look it up:
every ``strictsaddle`` module attribute bound to the original object (so
names imported with ``from .sgd import projected_noisy_sgd`` are covered
too), or the class attribute for methods.  ``uninstall`` puts every
original object back.

Each call records a span (id, function, start, end, parent, thread) into
a per-thread buffer, so pool threads never contend on one list.  A span
opened on a thread with no open span of its own gets as parent the
innermost open span of the installing thread -- the call that is waiting
for the pool.

Self time follows the wall clock: at each instant the innermost open span
of each thread is running, unless it waits for a child open on another
thread; running spans share the instant equally.  Self times therefore
sum to the covered wall time exactly, with or without threads.
"""

import functools
import itertools
import sys
import threading
import time
from array import array

import numpy as np

# (layer, owner inside the strictsaddle package, attribute)
TARGETS = (
    ("tensor4", "tensor4", "make_orthogonal_tensor"),
    ("tensor4", "tensor4.Tensor4", "is_symmetric"),
    ("tensor4", "tensor4", "basis_form_vector"),
    ("tensor4", "tensor4", "basis_form_matrix"),
    ("tensor4", "tensor4", "reconstruction_error_from_basis"),
    ("objectives", "objectives.ConstrainedProblem", "value"),
    ("objectives", "objectives.ConstrainedProblem", "gradient"),
    ("objectives", "objectives.ConstrainedProblem", "hessian"),
    ("manifold", "manifold.SphereProduct", "project"),
    ("manifold", "manifold", "tangent_gradient"),
    ("manifold", "manifold", "lagrange_multipliers"),
    ("manifold", "manifold", "lagrangian_hessian"),
    ("manifold", "manifold", "min_tangent_eig"),
    ("sgd", "sgd", "projected_noisy_sgd"),
    ("sgd", "sgd", "unit_sphere_noise"),
    ("sgd", "sgd", "write_run_csv"),
    ("ica", "ica.SimpleSampler", "draw"),
    ("ica", "ica.SimpleSampler", "gradient"),
    ("ica", "ica.IcaSampler", "draw"),
    ("ica", "ica.IcaSampler", "gradient"),
    ("analysis", "analysis", "run_checks"),
    ("analysis", "analysis", "enumerate_minima"),
    ("analysis", "analysis", "polish"),
    ("analysis", "analysis", "derivative_check"),
    ("analysis", "analysis", "fd_hessian"),
    ("analysis", "analysis", "escape_statistics"),
    ("cli", "cli", "main"),
)

ROOT = "cli.main"
SGD_RUN = "sgd.projected_noisy_sgd"


def span_name(layer, owner, attr):
    """``manifold.SphereProduct.project`` or ``sgd.unit_sphere_noise``."""
    cls = owner.split(".", 1)[1] if "." in owner else ""
    return ".".join(p for p in (layer, cls, attr) if p)


def target_names():
    return [span_name(*t) for t in TARGETS]


def _resolve(package, owner):
    obj = package
    for part in owner.split("."):
        obj = getattr(obj, part)
    return obj


class _Buffer:
    """One thread's open-span stack and its closed spans."""

    __slots__ = ("thread", "stack", "ids", "names", "starts", "ends", "parents")

    def __init__(self, thread):
        self.thread = thread
        self.stack = []
        self.ids = array("q")
        self.names = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")


class Tracer:
    """Collects spans and counters around strictsaddle's public functions."""

    def __init__(self, package):
        self.package = package
        self.names = target_names()
        self.counters = dict.fromkeys(
            ("tensor4.dense_bytes", "sgd.runs", "sgd.steps", "sgd.diverged",
             "analysis.census.starts", "analysis.census.hits",
             "analysis.escape.trials", "analysis.escape.escaped"), 0)
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self._restore = []
        self._home = None

    # -- recording -----------------------------------------------------

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, index, fn, observe):
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = self._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                home = self._home.stack
                parent = home[-1] if home and buf is not self._home else -1
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                buf.ids.append(sid)
                buf.names.append(index)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.parents.append(parent)
            if observe is not None:
                with self._lock:
                    observe(self.counters, args, kwargs, result)
            return result

        return traced

    # -- installing ----------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._home = self._buffer()
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == self.package.__name__
                                         or k.startswith(self.package.__name__ + "."))]
        for index, (layer, owner, attr) in enumerate(TARGETS):
            holder = _resolve(self.package, owner)
            observe = _OBSERVERS.get(self.names[index])
            if isinstance(holder, type):
                original = holder.__dict__[attr]
                self._set(holder, attr, original, self._wrap(index, original, observe))
                continue
            original = getattr(holder, attr)
            wrapper = self._wrap(index, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, holder, key, original, wrapper):
        setattr(holder, key, wrapper)
        self._restore.append((holder, key, original))

    def uninstall(self):
        while self._restore:
            holder, key, original = self._restore.pop()
            setattr(holder, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -------------------------------------------------------

    def spans(self):
        """Closed spans as arrays ordered by id: id, name, start, end, parent, thread."""
        cols = {k: [] for k in ("id", "name", "start", "end", "parent", "thread")}
        for buf in self._buffers:
            cols["id"].append(np.array(buf.ids, dtype=np.int64))
            cols["name"].append(np.array(buf.names, dtype=np.int64))
            cols["start"].append(np.array(buf.starts, dtype=np.float64))
            cols["end"].append(np.array(buf.ends, dtype=np.float64))
            cols["parent"].append(np.array(buf.parents, dtype=np.int64))
            cols["thread"].append(np.full(len(buf.ids), buf.thread, dtype=np.int64))
        out = {k: np.concatenate(v) for k, v in cols.items()}
        order = np.argsort(out["id"], kind="stable")
        return {k: v[order] for k, v in out.items()}


def _observe_tensor(counters, args, kwargs, result):
    counters["tensor4.dense_bytes"] += int(result.entries.nbytes)


def _observe_sgd(counters, args, kwargs, result):
    counters["sgd.runs"] += 1
    counters["sgd.steps"] += int(result.n_steps)
    counters["sgd.diverged"] += int(result.diverged)


def _observe_census(counters, args, kwargs, result):
    starts = kwargs["n_starts"] if "n_starts" in kwargs else args[1]
    counters["analysis.census.starts"] += int(starts)
    counters["analysis.census.hits"] += sum(e.hits for e in result.entries)


def _observe_escape(counters, args, kwargs, result):
    steps = result["per_trial_steps"]
    counters["analysis.escape.trials"] += len(steps)
    counters["analysis.escape.escaped"] += sum(s is not None for s in steps)


_OBSERVERS = {
    "tensor4.make_orthogonal_tensor": _observe_tensor,
    SGD_RUN: _observe_sgd,
    "analysis.enumerate_minima": _observe_census,
    "analysis.escape_statistics": _observe_escape,
}


def self_times(spans):
    """Per-span self time under equal sharing of each instant (see module doc)."""
    ids = spans["id"]
    n = ids.size
    if n == 0:
        return np.zeros(0)
    if not np.array_equal(ids, np.arange(n)):
        raise ValueError("span ids must be 0..n-1")
    starts, ends = spans["start"], spans["end"]
    parents, threads = spans["parent"], spans["thread"]
    # events ordered by time; at one instant ends before starts, a child
    # ends before its parent and a parent starts before its child
    times = np.concatenate([ends, starts])
    kinds = np.concatenate([np.zeros(n, np.int64), np.ones(n, np.int64)])
    ties = np.concatenate([-ids, ids])
    order = np.lexsort((ties, kinds, times))
    cross = (parents >= 0) & (threads != threads[np.maximum(parents, 0)])

    out = [0.0] * n
    stacks = {}
    waiting = [0] * n
    times_l, kinds_l = times[order].tolist(), kinds[order].tolist()
    span_l = np.concatenate([ids, ids])[order].tolist()
    thread_l, parent_l, cross_l = threads.tolist(), parents.tolist(), cross.tolist()
    prev = times_l[0]
    for t, kind, s in zip(times_l, kinds_l, span_l):
        dt = t - prev
        if dt > 0.0:
            tops = [st[-1] for st in stacks.values() if st]
            running = [i for i in tops if not waiting[i]] or tops
            if running:
                share = dt / len(running)
                for i in running:
                    out[i] += share
        prev = t
        stack = stacks.setdefault(thread_l[s], [])
        if kind:
            stack.append(s)
            if cross_l[s]:
                waiting[parent_l[s]] += 1
        else:
            if stack and stack[-1] == s:
                stack.pop()
            else:
                stack.remove(s)
            if cross_l[s]:
                waiting[parent_l[s]] -= 1
    return np.array(out)


def layer_metrics(spans, counters, names=None):
    """Per-function calls, self seconds and inclusive µs per call, plus the
    derived per-layer counts and ratios."""
    names = names if names is not None else target_names()
    selfs = self_times(spans)
    durations = spans["end"] - spans["start"]
    name_idx = spans["name"].astype(np.int64)
    calls = np.bincount(name_idx, minlength=len(names))
    self_s = np.bincount(name_idx, weights=selfs, minlength=len(names))
    incl_s = np.bincount(name_idx, weights=durations, minlength=len(names))
    out = {}
    for k, name in enumerate(names):
        out[f"{name}.calls"] = (int(calls[k]), "count")
        out[f"{name}.self_s"] = (float(self_s[k]), "s")
        out[f"{name}.us_per_call"] = (float(incl_s[k] / calls[k] * 1e6) if calls[k] else 0.0, "us")

    root = names.index(ROOT)
    wall = float(incl_s[root])
    sgd = float(incl_s[names.index(SGD_RUN)])

    def ratio(num, den):
        return num / den if den else 0.0

    c = counters
    out["tensor4.dense_bytes"] = (int(c["tensor4.dense_bytes"]), "bytes")
    out["sgd.steps"] = (int(c["sgd.steps"]), "count")
    out["sgd.diverged_ratio"] = (ratio(c["sgd.diverged"], c["sgd.runs"]), "ratio")
    out["analysis.census.accepted_ratio"] = (
        ratio(c["analysis.census.hits"], c["analysis.census.starts"]), "ratio")
    out["analysis.escape.escaped_ratio"] = (
        ratio(c["analysis.escape.escaped"], c["analysis.escape.trials"]), "ratio")
    out["cli.run_concurrency"] = (ratio(sgd, wall), "ratio")
    out["trace.wall_s"] = (wall, "s")
    out["trace.self_sum_s"] = (float(selfs.sum()), "s")
    out["trace.spans"] = (int(spans["id"].size), "count")
    return out
