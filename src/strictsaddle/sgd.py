"""Noisy stochastic gradient descent, plain and projected.

Both runners perform w <- w - eta_t (SG(w) + n) with n drawn uniformly
from the unit sphere (scaled by ``noise_scale``); the projected variant
follows every step with the exact projection onto the sphere-product
feasible set.  Runs are deterministic given (config, seed): the RNG is
``numpy.random.default_rng`` seeded through a ``SeedSequence``, and
multi-trial sweeps give trial k the substream ``SeedSequence(seed,
spawn_key=(k,))``.

Per step the runner draws the oracle sample first and the injected noise
second; schedules only change the step length, so matched seeds see
identical random streams under different schedules.

There is one run loop.  It advances a (K, n) stack of trials, each with
its own generator; a single run is the K=1 case.  Every kernel on the
stack is an einsum or a last-axis reduction, so trial k's record is bit
for bit the same alone or in a stack of any height.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import manifold

__all__ = [
    "SgdConfig",
    "RunRecord",
    "lr_schedule",
    "unit_sphere_noise",
    "noisy_sgd",
    "projected_noisy_sgd",
    "projected_trials",
    "row_norms",
    "run_rng",
    "trial_rng",
    "RecordedPerturbations",
    "write_run_csv",
]

DIVERGENCE_LIMIT = 1e12
SCHEDULES = ("constant", "inverse_t")
NOISE_NORM_FLOOR = 1e-12
# Trials advanced together in one stack.  Bounds the stack's memory and the
# number of live generators for any trial count; a row's result does not
# depend on it.
STACK_ROWS = 256


@dataclass
class SgdConfig:
    """Run parameters.

    iterations is the step budget T; record_every is the trace stride.
    """

    eta: float = 0.01
    eta_max: float = 0.1
    iterations: int = 10_000
    schedule: str = "constant"
    noise_scale: float = 1.0
    seed: int = 0
    record_every: int = 100

    def __post_init__(self):
        for name in ("eta", "eta_max", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.eta > self.eta_max:
            raise ValueError(f"eta={self.eta} exceeds eta_max={self.eta_max}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if self.record_every < 1:
            raise ValueError("record_every must be >= 1")


def lr_schedule(config, t):
    """Step size at iteration t: constant eta, or eta / (t + 1)."""
    if config.schedule == "constant":
        return config.eta
    return config.eta / (t + 1)


def row_norms(x, keepdims=False):
    """Euclidean norm of each row along the last axis.

    A last-axis reduction, so a row's norm does not depend on the rows
    stacked with it (BLAS-backed norms do not guarantee that).
    """
    return np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=keepdims))


def _sphere_rows(out, rngs):
    """Uniform unit vectors, row k drawn from ``rngs[k]``.

    Each row is an isotropic Gaussian draw written into row k of the
    buffer ``out``, then normalized; a row whose norm is at most 1e-12 is
    redrawn from its own generator.
    """
    for k, rng in enumerate(rngs):
        rng.standard_normal(out=out[k])
    norms = row_norms(out, keepdims=True)
    if not norms.min() > NOISE_NORM_FLOOR:
        for k in np.flatnonzero(norms <= NOISE_NORM_FLOOR):
            while norms[k, 0] <= NOISE_NORM_FLOOR:
                rngs[k].standard_normal(out=out[k])
                norms[k] = row_norms(out[k])
    return out / norms


def unit_sphere_noise(dim, rng):
    """Uniform unit vector via a normalized isotropic Gaussian draw."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    return _sphere_rows(np.empty((1, dim)), [rng])[0]


def run_rng(seed):
    """The run-level generator for a given seed."""
    return np.random.default_rng(np.random.SeedSequence(seed))


def trial_rng(seed, trial):
    """Substream for trial index ``trial``: SeedSequence(seed, spawn_key=(trial,))."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))


@dataclass
class RunRecord:
    """Strided trajectory trace plus the final state.

    ``iters[k]`` counts completed steps; row k holds f, the gradient norm
    (||chi|| for constrained runs, ||grad f|| otherwise), the normalized
    reconstruction error (nan when undefined) and wall-clock ms since the
    run started.
    """

    iters: np.ndarray
    f_values: np.ndarray
    grad_norms: np.ndarray
    recon_errors: np.ndarray
    elapsed_ms: np.ndarray
    final_point: np.ndarray
    final_f: float
    n_steps: int
    diverged: bool = False
    message: str = ""
    wall_time_ms: float = 0.0

    def to_csv(self, path):
        write_run_csv(self, path)


class RecordedPerturbations:
    """Replays a fixed stream of additive gradient perturbations."""

    def __init__(self, stream):
        self.stream = [np.asarray(x, dtype=float) for x in stream]
        self._next = 0

    def draw(self, rng):
        if self._next >= len(self.stream):
            raise RuntimeError("perturbation stream exhausted")
        out = self.stream[self._next]
        self._next += 1
        return out


def _check_noise_bound(objective, W, sg, noise, noise_scale):
    """||SG - grad f + n|| <= Q + noise_scale on every row, enforced on recorded steps."""
    q = getattr(objective, "oracle_bound", None)
    if q is None:
        return
    xi = sg - objective.gradient(W)
    if noise is not None:
        xi = xi + noise
    bound = q + noise_scale + 1e-9
    nrm = float(np.max(row_norms(xi)))
    if nrm > bound:
        raise RuntimeError(f"perturbation bound violated: ||xi||={nrm:.6g} > Q+noise={bound:.6g}")


def _run_loop(objective, sampler, starts, config, project, grad_norms, recons, stop=None):
    """Advance the trials ``starts = [(w0, rng), ...]`` as one (K, n) stack.

    Each step visits the active trials in order; trial k draws its oracle
    sample and then its noise from its own generator, so its stream is the
    one it sees when run alone.  All kernels act row by row (einsum and
    last-axis reductions), so every row's result is independent of K and
    of which other trials are still active.  A trial leaves the stack when
    it diverges or, after a step, when ``stop(W)`` is True for its row.

    ``grad_norms`` and ``recons`` map a stack to one value per row; they
    run on recorded steps only.  Returns one RunRecord per trial, in order.
    """
    W = np.array([w0 for w0, _ in starts], dtype=float)
    rngs = [rng for _, rng in starts]
    ids = np.arange(len(starts))  # trial index of each active row
    traces = [[] for _ in starts]
    records = [None] * len(starts)
    noise_buf = np.empty_like(W) if config.noise_scale > 0 else None
    if sampler is not None:
        oracle = sampler.gradient if hasattr(sampler, "gradient") else objective.stochastic_gradient
    start = time.perf_counter()

    def record(t, rows):
        Wr = W[rows]
        fs = objective.value(Wr)
        columns = (fs.tolist(), grad_norms(Wr).tolist(), recons(Wr))
        ms = (time.perf_counter() - start) * 1e3
        for k, f, g, r in zip(ids[rows].tolist(), *columns):
            traces[k].append((t, f, g, r, ms))
        return fs

    def leave(rows, n_steps, message=None):
        """Close the records of the selected rows and drop them from the stack."""
        nonlocal W, ids, rngs, noise_buf
        wall = (time.perf_counter() - start) * 1e3
        for i in np.flatnonzero(rows):
            k = ids[i]
            # every trial is recorded at t=0, so its trace is never empty
            iters, fs, gnorms, recon, elapsed = zip(*traces[k])
            records[k] = RunRecord(
                iters=np.array(iters, dtype=int),
                f_values=np.array(fs, dtype=float),
                grad_norms=np.array(gnorms, dtype=float),
                recon_errors=np.array(recon, dtype=float),
                elapsed_ms=np.array(elapsed, dtype=float),
                final_point=W[i].copy(),
                final_f=fs[-1],
                n_steps=n_steps,
                diverged=message is not None,
                message="" if message is None else message(i),
                wall_time_ms=wall,
            )
        keep = ~rows
        W, ids = W[keep], ids[keep]
        rngs = [rng for rng, kept in zip(rngs, keep) if kept]
        if noise_buf is not None:
            noise_buf = noise_buf[: ids.size]

    t = 0
    while t < config.iterations and ids.size:
        on_record = t % config.record_every == 0
        if on_record:
            fs = record(t, slice(None))
            bad = ~(np.abs(fs) <= DIVERGENCE_LIMIT)
            if bad.any():
                leave(bad, t, lambda i, fs=fs: f"objective diverged at step {t}: f={float(fs[i])!r}")
                if not ids.size:
                    break
        eta_t = lr_schedule(config, t)
        if sampler is None:
            sg = objective.gradient(W)
        else:
            sg = np.empty_like(W)
            for k, rng in enumerate(rngs):
                sg[k] = oracle(W[k], sampler.draw(rng))
        noise = None
        if noise_buf is not None:
            noise = config.noise_scale * _sphere_rows(noise_buf, rngs)
        if on_record:
            _check_noise_bound(objective, W, sg, noise, config.noise_scale)
        step = sg if noise is None else sg + noise
        W = W - eta_t * step
        if project is not None:
            W = project(W)
        # the stack's total bounds every row's squared norm (and is nan or
        # inf when a row is), so rows are only looked at when it is too big
        if not np.einsum("ij,ij->", W, W) <= DIVERGENCE_LIMIT**2:
            bad = ~(row_norms(W) <= DIVERGENCE_LIMIT)
            if bad.any():
                leave(bad, t, lambda i: f"iterate diverged at step {t}")
        t += 1
        if stop is not None and ids.size:
            hit = np.asarray(stop(W), dtype=bool)
            if hit.any():
                record(t, hit)
                leave(hit, t)

    if ids.size:
        record(config.iterations, slice(None))
        leave(np.ones(ids.size, dtype=bool), t)
    return records


def _recons(objective):
    """Per-row normalized reconstruction error of a stack (nan when undefined)."""
    if not hasattr(objective, "recon_error"):
        return lambda W: [float("nan")] * len(W)

    def recons(W):
        out = []
        for w in W:
            r = objective.recon_error(w)
            out.append(float("nan") if r is None else r)
        return out

    return recons


def noisy_sgd(objective, sampler, w0, config, rng=None):
    """Unconstrained runner: w <- w - eta_t (SG(w) + n)."""
    if rng is None:
        rng = run_rng(config.seed)

    def grad_norms(W):
        return row_norms(objective.gradient(W))

    return _run_loop(objective, sampler, [(w0, rng)], config, None, grad_norms, _recons(objective))[0]


def projected_trials(problem, sampler, n_trials, start, config, stop=None):
    """Projected noisy SGD for trials 0..n_trials-1, advanced as stacks.

    ``start(k)`` returns trial k's feasible starting point and its own
    generator.  ``stop``, when given, maps the (K, n) stack to one bool
    per row after every step; a row that reads True ends there, with its
    current point as the final one.  Trials run in blocks of STACK_ROWS
    rows, so memory and live generators stay bounded; trial k's record is
    the same whatever the block and whatever trials run beside it.

    Every recorded iterate is feasibility-checked to 1e-10.  Returns one
    RunRecord per trial, in trial order.
    """
    constraints = problem.constraints

    def grad_norms(W):
        if np.max(np.abs(constraints.c(W))) > manifold.FEASIBLE_TOL:
            raise RuntimeError("iterate left the feasible set beyond tolerance")
        return row_norms(manifold.tangent_gradient(problem, W))

    recons = _recons(problem)
    records = []
    for lo in range(0, n_trials, STACK_ROWS):
        starts = [start(k) for k in range(lo, min(lo + STACK_ROWS, n_trials))]
        if not all(constraints.feasible(w0) for w0, _ in starts):
            raise ValueError("projected run requires a feasible starting point")
        records += _run_loop(problem, sampler, starts, config, constraints.project, grad_norms, recons, stop)
    return records


def projected_noisy_sgd(problem, sampler, w0, config, rng=None):
    """Constrained runner: every step is re-projected onto the feasible set.

    Requires a feasible start; every recorded iterate is feasibility-checked
    to 1e-10.  One trial of :func:`projected_trials`.
    """
    if rng is None:
        rng = run_rng(config.seed)
    return projected_trials(problem, sampler, 1, lambda k: (w0, rng), config)[0]


def write_run_csv(record, path):
    """Trace CSV: header ``iter,f,grad_norm,recon_error,elapsed_ms``.

    Numeric cells are written with shortest round-trip float formatting,
    so identical runs produce identical bytes in every column except
    elapsed_ms (wall clock is not reproducible).
    """
    with open(path, "w") as fh:
        fh.write("iter,f,grad_norm,recon_error,elapsed_ms\n")
        for k in range(record.iters.size):
            fh.write(
                f"{int(record.iters[k])},{float(record.f_values[k])!r},{float(record.grad_norms[k])!r},"
                f"{float(record.recon_errors[k])!r},{float(record.elapsed_ms[k]):.3f}\n"
            )
