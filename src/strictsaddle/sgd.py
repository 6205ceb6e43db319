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
    "run_rng",
    "trial_rng",
    "RecordedPerturbations",
    "write_run_csv",
]

DIVERGENCE_LIMIT = 1e12
SCHEDULES = ("constant", "inverse_t")


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


def unit_sphere_noise(dim, rng):
    """Uniform unit vector via a normalized isotropic Gaussian draw."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    while True:
        g = rng.standard_normal(dim)
        nrm = np.linalg.norm(g)
        if nrm > 1e-12:
            return g / nrm


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

    def reset(self):
        self._next = 0


def _stochastic_gradient(objective, sampler, w, sample):
    if sampler is None:
        return objective.gradient(w)
    if hasattr(sampler, "gradient"):
        return sampler.gradient(w, sample)
    return objective.stochastic_gradient(w, sample)


def _check_noise_bound(objective, w, sg, noise, noise_scale):
    """||SG - grad f + n|| <= Q + noise_scale, enforced on recorded steps."""
    q = getattr(objective, "oracle_bound", None)
    if q is None:
        return
    xi = sg - objective.gradient(w)
    if noise is not None:
        xi = xi + noise
    bound = q + noise_scale + 1e-9
    nrm = float(np.linalg.norm(xi))
    if nrm > bound:
        raise RuntimeError(f"perturbation bound violated: ||xi||={nrm:.6g} > Q+noise={bound:.6g}")


def _run_loop(objective, sampler, w0, config, rng, project, grad_norm_fn, recon_fn):
    w = np.array(w0, dtype=float)
    dim = w.size
    start = time.perf_counter()

    iters, fs, gnorms, recons, elapsed = [], [], [], [], []
    diverged = False
    message = ""

    def record(t):
        f = objective.value(w)
        iters.append(t)
        fs.append(f)
        gnorms.append(grad_norm_fn(w))
        recons.append(recon_fn(w))
        elapsed.append((time.perf_counter() - start) * 1e3)
        return f

    t = 0
    while t < config.iterations:
        on_record = t % config.record_every == 0
        if on_record:
            f = record(t)
            if not math.isfinite(f) or abs(f) > DIVERGENCE_LIMIT:
                diverged, message = True, f"objective diverged at step {t}: f={f!r}"
                break
        eta_t = lr_schedule(config, t)
        sample = sampler.draw(rng) if sampler is not None else None
        sg = _stochastic_gradient(objective, sampler, w, sample)
        noise = None
        if config.noise_scale > 0:
            noise = config.noise_scale * unit_sphere_noise(dim, rng)
        if on_record:
            _check_noise_bound(objective, w, sg, noise, config.noise_scale)
        step = sg if noise is None else sg + noise
        w = w - eta_t * step
        if project is not None:
            w = project(w)
        if not np.all(np.isfinite(w)) or np.linalg.norm(w) > DIVERGENCE_LIMIT:
            diverged, message = True, f"iterate diverged at step {t}"
            break
        t += 1

    if not diverged:
        record(config.iterations)
        final_f = fs[-1]
    else:
        final_f = fs[-1] if fs else float("nan")

    wall = (time.perf_counter() - start) * 1e3
    return RunRecord(
        iters=np.array(iters, dtype=int),
        f_values=np.array(fs),
        grad_norms=np.array(gnorms),
        recon_errors=np.array(recons),
        elapsed_ms=np.array(elapsed),
        final_point=w,
        final_f=final_f,
        n_steps=t,
        diverged=diverged,
        message=message,
        wall_time_ms=wall,
    )


def noisy_sgd(objective, sampler, w0, config, rng=None):
    """Unconstrained runner: w <- w - eta_t (SG(w) + n)."""
    if rng is None:
        rng = run_rng(config.seed)

    def grad_norm(w):
        return float(np.linalg.norm(objective.gradient(w)))

    def recon(w):
        r = objective.recon_error(w) if hasattr(objective, "recon_error") else None
        return float("nan") if r is None else r

    return _run_loop(objective, sampler, w0, config, rng, None, grad_norm, recon)


def projected_noisy_sgd(problem, sampler, w0, config, rng=None):
    """Constrained runner: every step is re-projected onto the feasible set.

    Requires a feasible start; every recorded iterate is feasibility-checked
    to 1e-10.
    """
    if rng is None:
        rng = run_rng(config.seed)
    constraints = problem.constraints
    if not constraints.feasible(w0):
        raise ValueError("projected run requires a feasible starting point")

    def grad_norm(w):
        if np.max(np.abs(constraints.c(w))) > manifold.FEASIBLE_TOL:
            raise RuntimeError("iterate left the feasible set beyond tolerance")
        return float(np.linalg.norm(manifold.tangent_gradient(problem, w)))

    def recon(w):
        r = problem.recon_error(w) if hasattr(problem, "recon_error") else None
        return float("nan") if r is None else r

    return _run_loop(objective=problem, sampler=sampler, w0=w0, config=config, rng=rng,
                     project=constraints.project, grad_norm_fn=grad_norm, recon_fn=recon)


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
