"""Noisy stochastic gradient descent, projected when the problem has constraints.

The runner performs w <- w - eta_t (SG(w) + n) with n drawn uniformly
from the unit sphere (scaled by ``noise_scale``); on a problem with
constraints it follows every step with the exact projection onto the
sphere-product feasible set.  Runs are deterministic given (config,
seed): the RNG is ``numpy.random.default_rng`` seeded through a
``SeedSequence``, and multi-trial sweeps give trial k the substream
``SeedSequence(seed, spawn_key=(k,))``.

Every step reads exactly one (sample, normals) pair from its trial's
generator: the oracle sample first (with a sampler), then n Gaussian
draws, normalized to the noise direction; a draw of norm at most
NOISE_NORM_FLOOR gives zero noise, and nothing is drawn again.  Schedules
only change the step length, so matched seeds see identical random
streams under different schedules.  Every trial reads its steps from
blocks it draws ahead, all rows refilling together, each block as many
steps as NOISE_BYTES holds for the whole stack's samples and noise, at
least NOISE_BLOCK and at most the budget left.  A trial with no sampler
fills its block with one generator call, a trial with a sampler with its
sampler's ``fill`` in stream order.  Either way the block holds the values
of one pair per step, and a trial that runs its whole budget leaves its
generator where one pair per step does.

Who draws a block: this process, unless the stack runs as one part, every
row has a sampler other than a RecordedPerturbations and a
``numpy.random.Generator``, and the host is Linux with at least 2 usable
CPUs.  Such a stack draws block 0 here, then, if its budget needs another
block, forks one producer that draws blocks 1 and on with the same refill
code, one block ahead, into a ring of two slots in shared memory.  The
producer sends back every generator's state after each block, and each
row's generator gets its state after the last block that row read, so the
records and every generator's final position are those of the blocks
drawn here.

There is one run loop.  It advances a (K, n) stack of trials, each with
its own generator, problem and sampler; a single run is the K=1 case.
Rows may share one problem or each carry their own.  A sampler answers
for the whole stack: ``fill(rng, samples, noise)`` draws a row's block of
(sample, normals) steps, each sample of shape ``sample_shape``, and one
``gradient(W, samples)`` call takes the stack and one sample per row.  The
samplers of ``ica`` fill from raw PCG64 words and refuse any other
generator; a ``RecordedPerturbations`` replays its stream.  Every kernel
on the stack acts row by row (an einsum or a last-axis reduction where
rows meet shared data, a batched matmul for products of per-row
matrices), so trial k's record is bit for bit the same alone or in a
stack of any height.
"""

import math
import mmap
import numbers
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np

from . import manifold

__all__ = [
    "SgdConfig",
    "RunRecord",
    "lr_schedule",
    "unit_sphere_noise",
    "projected_noisy_sgd",
    "projected_trials",
    "row_norms",
    "run_rng",
    "trial_rng",
    "RecordedPerturbations",
    "write_csv",
    "write_run_csv",
]

DIVERGENCE_LIMIT = 1e12
SCHEDULES = ("constant", "inv-t")
NOISE_NORM_FLOOR = 1e-12
# Trials advanced together in one stack.  Bounds the stack's memory and the
# number of live generators for any trial count; a row's result does not
# depend on it.
STACK_ROWS = 256
# Every refill draws each row's next ``height`` steps: the most steps whose
# noise and samples fit in NOISE_BYTES for the whole stack, never fewer
# than NOISE_BLOCK and never more than the budget left.  That is 8 steps
# at STACK_ROWS rows of n=40, 341 at 60 rows of n=4, and 186 at 4 rows of
# n=100 with samples of 10.  A row's result does not depend on it.
NOISE_BLOCK = 8
NOISE_BYTES = 640 * 1024
# A block of trials whose rows are independent runs as one contiguous part
# per usable CPU, each part at least SPLIT_MIN_WORK row entries (K·n), the
# first in this process and the others in forked workers: on 2 CPUs a block
# of 256 rows of n=40 splits, one of 256 rows of n=10 does not.  A row's
# result does not depend on it.
SPLIT_MIN_WORK = 1536


@dataclass
class SgdConfig:
    """Run parameters.

    iterations is the step budget T; record_every is the trace stride.
    """

    eta: float = 0.01
    iterations: int = 10_000
    schedule: str = "constant"
    noise_scale: float = 1.0
    seed: int = 0
    record_every: int = 100

    def __post_init__(self):
        for name in ("eta", "noise_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        for name in ("iterations", "record_every"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer")
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.schedule not in SCHEDULES:
            raise ValueError(f"schedule must be one of {SCHEDULES}")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be a non-negative integer")


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


def _block_norms(x):
    """Row norms of the draws ``x``, (K, height, n), as (K, height, 1).  A
    taller ``x`` has its norms taken NOISE_BLOCK steps at a time, so their
    squares need no buffer the size of ``x``."""
    if x.shape[1] <= NOISE_BLOCK:
        return row_norms(x, keepdims=True)
    return np.concatenate([row_norms(x[:, j : j + NOISE_BLOCK], keepdims=True)
                           for j in range(0, x.shape[1], NOISE_BLOCK)], axis=1)


def _unit_rows(x):
    """Normalize in place the Gaussian draws ``x``, (K, height, n), and
    return it.  A draw of norm at most NOISE_NORM_FLOOR gives zero: its
    direction is uniform whatever its norm, so the floor only keeps the
    division finite, and a zero draw still meets any noise bound."""
    norms = _block_norms(x)
    small = norms <= NOISE_NORM_FLOOR
    x[small[..., 0]] = 0.0
    norms[small] = 1.0
    x /= norms
    return x


def _refill(rngs, samplers, slot, steps, noise_scale):
    """Draw the next ``steps`` steps of the rows of the generators ``rngs``
    into the first rows of ``slot`` = (samples, noise), either None: in one
    loop over the rows, a row with no sampler fills its noise with one
    ``standard_normal`` call, a row with a sampler has the sampler's
    ``fill`` draw its samples and noise in stream order.  Then the noise is
    normalized, a draw of norm at most NOISE_NORM_FLOOR to zero, and scaled."""
    samples, noise = (None if x is None else x[: len(rngs), :steps] for x in slot)
    for i, rng in enumerate(rngs):
        if samplers[i] is None:
            rng.standard_normal(out=noise[i])
        else:
            samplers[i].fill(rng, samples[i], None if noise is None else noise[i])
    if noise is not None:
        np.multiply(noise_scale, _unit_rows(noise), out=noise)


def _ring(count, shapes):
    """``count`` slots, each a float array of every shape in ``shapes``
    (None for None).  Two slots lie in one anonymous shared mmap, so that a
    forked producer's writes reach this process."""
    if count == 1:
        return [[None if shape is None else np.empty(shape) for shape in shapes]]
    sizes = [math.prod(shape) for shape in shapes if shape is not None] * count
    pieces = iter(np.split(np.frombuffer(mmap.mmap(-1, 8 * sum(sizes))), np.cumsum(sizes)[:-1]))
    return [[None if shape is None else next(pieces).reshape(shape) for shape in shapes] for _ in range(count)]


def unit_sphere_noise(dim, rng):
    """Uniform unit vector via one normalized isotropic Gaussian draw of
    ``dim`` normals; a draw of norm at most NOISE_NORM_FLOOR gives zero."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    out = np.empty((1, 1, dim))
    rng.standard_normal(out=out[0, 0])
    return _unit_rows(out)[0, 0]


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


class RecordedPerturbations:
    """Sampler that replays a fixed stream of additive gradient perturbations.

    Each step's sample is the stream's next entry; the oracle adds it to
    the exact gradient of ``objective``.  The run loop takes a row's samples
    a block of steps at a time, so rows that share one such sampler take its
    entries a block per row, not a step per row.
    """

    def __init__(self, objective, stream):
        self.objective = objective
        self.stream = [np.asarray(x, dtype=float) for x in stream]
        self.sample_shape = self.stream[0].shape if self.stream else ()
        self._next = 0

    def fill(self, rng, samples, noise):
        """The stream's next h entries into ``samples`` (h, ...), and the h
        steps' normals into ``noise`` (h, n) or None with one call of
        ``rng``, which the stream does not touch.  Raises RuntimeError,
        before it writes or draws, when fewer than h entries are left."""
        end = self._next + len(samples)
        if end > len(self.stream):
            raise RuntimeError("perturbation stream exhausted")
        samples[:] = self.stream[self._next : end]
        self._next = end
        if noise is not None:
            rng.standard_normal(out=noise)

    def gradient(self, W, samples):
        return self.objective.gradient(W) + samples


def _check_noise_bound(q, xi, noise, noise_scale):
    """||SG - grad f + n|| <= Q + noise_scale on every row, enforced on recorded steps."""
    if noise is not None:
        xi = xi + noise
    bound = q + noise_scale + 1e-9
    nrm = float(np.max(row_norms(xi)))
    if nrm > bound:
        raise RuntimeError(f"perturbation bound violated: ||xi||={nrm:.6g} > Q+noise={bound:.6g}")


@np.errstate(over="ignore")
def _run_loop(starts, config, stop=None, block_rows=None, forks=None):
    """Advance the trials ``starts = [(w0, rng, problem, sampler), ...]`` as one (K, n) stack.

    Each step reads every active trial's oracle sample, then its noise,
    trial k's drawn from its own sampler and generator, so its stream is
    the one it sees when run alone.  The draws are buffered: every active
    row reads its blocks at the stack's one cursor, all rows refilling
    together when the cursor reaches the block's height.  A refill holds at
    most the budget left; in one loop over the rows, a row with no sampler
    fills its noise with one ``standard_normal`` call and a row with a
    sampler has the sampler's ``fill`` draw its samples and noise in stream
    order.  Then the noise is normalized, a draw of norm at most
    NOISE_NORM_FLOOR to zero, and scaled.  So a row reads the values of one
    (sample, normals) pair per step, and one that runs its whole budget
    leaves its generator where those pairs do.  While no row has left since
    the refill, the step reads the blocks through a view.  One
    ``gradient(W, samples)`` call of the samplers' shared oracle (it reads
    no basis) then answers for the whole stack.  The exact value and
    gradient (f, G) at the current point are one ``value_and_gradient``
    call of the problems, taken when something first reads them at that
    point and held until the step moves it: the stop test, the trace record
    and the noise-bound check read the held pair, and rows that leave are
    dropped from it.  The exact-gradient step
    reads the held G, or on a step where nothing else read the point takes
    G alone with one ``gradient`` call, bit for bit the pair's G.  Each is
    one call for a stack sharing one problem, else one call per row.
    All kernels act row by row, so every row's result is independent of K
    and of which other trials are still active.  Every row has the first
    problem's ``constraints`` and ``oracle_bound``.  With constraints every
    step is projected onto them; a row with a block stepped onto its centre
    has no projection and diverges.  A row ends where it stands, its point
    there the final one, once its budget is spent or ``stop(W, f, G)`` is
    True for it (tested before every step, the first at its start); a row
    that diverges leaves at its step.  Overflow raises no numpy warning: it
    leaves an inf or nan in its row, which the divergence tests catch.

    Recorded steps log ||chi|| (from G) with constraints, else ||G||.
    The refill height is that of a stack of ``block_rows`` rows (default
    K), so a part of a split block refills as the whole block does.
    Given ``forks`` (a block run as one part), a stack for which
    ``_draws_ahead`` holds and whose budget needs more than one block draws
    block 0 here and the others in a producer forked through ``forks`` (see
    the module docstring); its rows read them at the same cursor.
    Returns one RunRecord per trial, in order.
    """
    # each row's generator, problem and sampler leave the stack with the row
    w0s, rngs, problems, samplers = (list(column) for column in zip(*starts))
    W = np.array(w0s, dtype=float)
    shared = all(problem is problems[0] for problem in problems)
    oracle = samplers[0]
    constraints, q = problems[0].constraints, problems[0].oracle_bound
    ids = np.arange(len(starts))  # trial index of each active row
    traces = [[] for _ in starts]
    records = [None] * len(starts)
    noisy = config.noise_scale > 0
    # active row i's buffered steps are samples[slots[i]] and
    # blocks[slots[i]] (the noise), read at the stack's cursor c; all rows
    # refill together when c reaches the block's end, active row i into
    # blocks[i], or with a producer every row of block 0 into its place
    # there.  A trial that leaves leaves its block unread.
    buffered = noisy or oracle is not None
    shape = () if oracle is None else tuple(oracle.sample_shape)
    size = W.shape[1] * noisy + (0 if oracle is None else math.prod(shape))  # values a row draws per step
    rows = len(starts) if block_rows is None else block_rows
    height = min(config.iterations, max(NOISE_BLOCK, NOISE_BYTES // (8 * rows * max(size, 1))))
    ahead = forks is not None and buffered and config.iterations > height and _draws_ahead(starts)
    ring = _ring(2 if ahead else 1, [None if oracle is None else (len(starts), height, *shape),
                                     (len(starts), height, W.shape[1]) if noisy else None])
    samples, blocks = ring[0]
    slots, c, end, filled, producer = ids, 0, 0, 0, None
    held = None  # (f, G) at W once read there, one entry per active row
    start = time.perf_counter()

    def evaluate():
        """(f, G) at W, evaluated on the first read at each point."""
        nonlocal held
        if held is None:
            if shared:
                held = problems[0].value_and_gradient(W)
            else:
                pairs = [problem.value_and_gradient(W[i : i + 1]) for i, problem in enumerate(problems)]
                held = tuple(np.concatenate(column) for column in zip(*pairs))
        return held

    def gradient():
        """G at W: the held one, else G alone, bit for bit the pair's G."""
        if held is not None:
            return held[1]
        if shared:
            return problems[0].gradient(W)
        return np.concatenate([problem.gradient(W[i : i + 1]) for i, problem in enumerate(problems)])

    def record(t, rows):
        fs, G = (column[rows] for column in evaluate())
        norms = row_norms(G) if constraints is None else _chi_norms(constraints, W[rows], G)
        recons = [problems[i].recon_error(W[i]) for i in np.arange(ids.size)[rows]]
        columns = (fs.tolist(), norms.tolist(), [np.nan if r is None else r for r in recons])
        ms = (time.perf_counter() - start) * 1e3
        for k, f, g, r in zip(ids[rows].tolist(), *columns):
            traces[k].append((t, f, g, r, ms))
        return fs

    def leave(rows, n_steps, message=None):
        """Close the records of the selected rows and drop them from the stack."""
        nonlocal W, ids, slots, rngs, problems, samplers, held
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
            )
        keep = ~rows
        W, ids, slots = W[keep], ids[keep], slots[keep]
        if held is not None:
            held = tuple(column[keep] for column in held)
        rngs, problems, samplers = ([x for x, kept in zip(xs, keep) if kept] for xs in (rngs, problems, samplers))

    t = 0
    while ids.size:
        # a row ends where it stands: its budget is spent or stop(W, f, G) holds
        if stop is not None or t == config.iterations:
            ends = np.asarray(stop(W, *evaluate()), dtype=bool) if t < config.iterations else np.ones(ids.size, bool)
            if ends.any():
                record(t, ends)
                leave(ends, t)
                if not ids.size:
                    break
        on_record = t % config.record_every == 0
        if on_record:
            fs = record(t, slice(None))
            bad = ~(np.abs(fs) <= DIVERGENCE_LIMIT)
            if bad.any():
                leave(bad, t, lambda i, fs=fs: f"objective diverged at step {t}: f={float(fs[i])!r}")
                if not ids.size:
                    break
        eta_t = lr_schedule(config, t)
        noise = None
        if buffered:
            if c == end:
                end = min(height, config.iterations - t)
                if producer is None:
                    filled = ids.size
                    _refill(rngs, samplers, (samples, blocks), end, config.noise_scale)
                    slots = np.arange(filled)
                    if ahead:
                        producer = _Producer(forks, rngs, samplers, ring, height, config)
                else:
                    samples, blocks = producer.next(slots)
                c = 0
            rows = slice(filled) if ids.size == filled else slots
            if blocks is not None:
                noise = blocks[rows, c]
        if oracle is None:
            sg = gradient()
        else:
            sg = oracle.gradient(W, samples[rows, c])
        c += 1
        if on_record and q is not None:
            _check_noise_bound(q, sg - evaluate()[1], noise, config.noise_scale)
        step = sg if noise is None else sg + noise
        W, held = W - eta_t * step, None
        # before projection, which rescales an overflowed row to zeros; the
        # stack's total bounds every row's squared norm (and is nan or inf
        # when a row is), so rows are only looked at when it is too big
        if not np.einsum("ij,ij->", W, W) <= DIVERGENCE_LIMIT**2:
            bad = ~(row_norms(W) <= DIVERGENCE_LIMIT)
            if bad.any():
                leave(bad, t, lambda i: f"iterate diverged at step {t}")
        if constraints is not None:
            try:
                W = constraints.project(W)
            except ValueError:
                bad = ~(constraints.block_norms(W).min(axis=-1) >= manifold.DEGENERATE_BLOCK_NORM)
                leave(bad, t, lambda i: f"degenerate projection at step {t}")
                W = constraints.project(W)
        t += 1
    if producer is not None:
        producer.finish()
    return records


def _chi_norms(constraints, W, G):
    """||chi|| of each row from its gradient G, after checking the rows are feasible."""
    if not constraints.feasible(W):
        raise RuntimeError("iterate left the feasible set beyond tolerance")
    return row_norms(manifold.chi_from_gradient(constraints, W, G))


def _cpus():
    """Usable CPUs, or 1 where ``os.fork`` or ``os.sched_getaffinity`` is
    missing (off Linux), so that nothing forks."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _parts(starts):
    """How many contiguous parts the block ``starts`` runs as: one per
    usable CPU, each of at least SPLIT_MIN_WORK row entries.  Only rows with
    no sampler (a sampler may share state across rows, as a shared
    RecordedPerturbations does) and a ``numpy.random.Generator`` (whose
    state can come back from a worker) split."""
    if any(sampler is not None or not isinstance(rng, np.random.Generator) for _, rng, _, sampler in starts):
        return 1
    work = len(starts) * np.size(starts[0][0])
    return max(1, min(_cpus(), len(starts), work // SPLIT_MIN_WORK))


def _draws_ahead(starts):
    """Whether the block ``starts``, run as one part, draws its blocks after
    the first in a forked producer: on at least 2 usable CPUs, when every
    row has a ``numpy.random.Generator`` (whose state can come back) and a
    sampler other than a RecordedPerturbations (which keeps its cursor in
    this process)."""
    return _cpus() > 1 and all(isinstance(rng, np.random.Generator) and sampler is not None
                               and not isinstance(sampler, RecordedPerturbations) for _, rng, _, sampler in starts)


class _Forks:
    """Processes forked from this one, each running one call and sending
    back on a pipe the pickled (True, its result) or (False, the exception
    it raised).  Leaving the ``with`` block closes every pipe end opened
    through it and kills and reaps every child not read back, whatever
    raised."""

    def __init__(self):
        self.pids, self.fds = [], set()  # children not read back; pipe ends open here

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for fd in self.fds:
            os.close(fd)
        for pid in self.pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    def pipe(self):
        """A new pipe's (read end, write end)."""
        fds = os.pipe()
        self.fds.update(fds)
        return fds

    def close(self, fd):
        self.fds.remove(fd)
        os.close(fd)

    def fork(self, target, *args, keep=()):
        """Fork a child that keeps, of the pipe ends opened here, only
        ``keep`` (which this process closes), runs ``target(*args)``, sends
        back its result and ends without running any exit handler or
        flushing any buffer inherited from this process.  Returns the child,
        to read back with ``result``."""
        r, w = self.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                for fd in self.fds - {w, *keep}:
                    os.close(fd)
                try:
                    result = (True, target(*args))
                except BaseException as exc:
                    result = (False, exc)
                with os.fdopen(w, "wb") as fh:
                    pickle.dump(result, fh)
            finally:
                os._exit(0)
        self.pids.append(pid)
        for fd in (w, *keep):
            self.close(fd)
        return pid, r

    def result(self, child):
        """What ``child`` sent back, once it is reaped; its exception is raised here."""
        pid, r = child
        with os.fdopen(r, "rb", closefd=False) as fh:
            try:
                ok, result = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                raise RuntimeError(f"forked process {pid} ended without a result") from None
        self.close(r)
        os.waitpid(pid, 0)
        self.pids.remove(pid)
        if not ok:
            raise result
        return result


def _produce(rngs, samplers, ring, height, config, free, done):
    """In the producer: fill blocks 1 and on of the budget, block b into
    slot b % 2 of ``ring`` once the caller has freed it (a byte on the pipe
    ``free``; slot 1 is free from the start), and announce each with a byte
    on the pipe ``done``.  Stops at the budget's end or when ``free``
    closes; returns every generator's state after each block."""
    states = []
    for b, t in enumerate(range(height, config.iterations, height), 1):
        if b > 1 and not os.read(free, 1):
            break
        _refill(rngs, samplers, ring[b % 2], min(height, config.iterations - t), config.noise_scale)
        states.append([rng.bit_generator.state for rng in rngs])
        os.write(done, b"\0")
    return states


class _Producer:
    """This process's end of a producer, forked through ``forks`` once block
    0 is in slot 0 of the two-slot ``ring``, that draws the blocks after it
    for the rows ``rngs``, which filled block 0, one block ahead."""

    def __init__(self, forks, rngs, samplers, ring, height, config):
        self.forks, self.rngs, self.ring, self.block = forks, list(rngs), ring, 0
        self.blocks = -(-config.iterations // height)  # in the budget
        self.last = np.zeros(len(rngs), dtype=int)  # the last block each row read
        free, self.free = forks.pipe()
        self.done, done = forks.pipe()
        self.child = forks.fork(_produce, rngs, samplers, ring, height, config, free, done, keep=(free, done))

    def next(self, rows):
        """The next block's slot, once it is filled, for the rows at positions ``rows``."""
        self.block += 1
        if not os.read(self.done, 1):
            self.forks.result(self.child)  # raises the producer's exception
            raise RuntimeError(f"block producer ended before block {self.block}")
        if self.block + 1 < self.blocks:
            os.write(self.free, b"\0")  # the slot of the block before, for the block after
        self.last[rows] = self.block
        return self.ring[self.block % 2]

    def finish(self):
        """Stop the producer and give each row's generator its state after
        the last block the row read (after block 0 it stands there already)."""
        self.forks.close(self.free)
        states = self.forks.result(self.child)
        for i in np.flatnonzero(self.last):
            self.rngs[i].bit_generator.state = states[self.last[i] - 1][i]


def _part(starts, config, stop, block_rows):
    """A forked worker's part of a split block: its records and its generators' states."""
    return _run_loop(starts, config, stop, block_rows), [rng.bit_generator.state for _, rng, _, _ in starts]


def _split_run(starts, config, stop, parts, forks):
    """``_run_loop`` over the block ``starts`` as ``parts`` contiguous
    parts at once: the first in this process, each other in a worker forked
    through ``forks`` that sends back its records and its generators'
    states, which are written into this process's generators.  Every part
    refills at the whole block's height, so the records and generator
    positions are those of the block run in one stack."""
    bounds = [len(starts) * p // parts for p in range(parts + 1)]
    workers = [(forks.fork(_part, starts[lo:hi], config, stop, len(starts)), starts[lo:hi])
               for lo, hi in zip(bounds[1:-1], bounds[2:])]
    records = _run_loop(starts[: bounds[1]], config, stop, len(starts))
    for worker, part in workers:
        part_records, states = forks.result(worker)
        for (_, rng, _, _), state in zip(part, states):
            rng.bit_generator.state = state
        records += part_records
    return records


def projected_trials(n_trials, start, config, stop=None):
    """Noisy SGD for trials 0..n_trials-1, advanced as stacks.

    ``start(k)`` returns trial k's starting point, its own generator,
    its problem and its sampler (None for exact gradients).  Trials may
    share one problem or each carry their own, with one set of
    constraints or none and samplers of one kind.  ``stop``, when given, is
    called as ``stop(W, f, G)`` with the (K, n) stack, its exact values
    (K,) and its exact gradients (K, n), the evaluation the step reuses;
    it returns one bool per row and reads nothing else of the problem.  It
    is tested before every step, the first at the start; a row that reads
    True ends there, with its current point as the final one, and a row
    that never does ends at the budget.  Trials run in blocks of
    STACK_ROWS rows, so memory and live generators stay bounded; trial
    k's record is the same whatever the block and whatever trials run
    beside it.  So a block of rows with no sampler, each with a
    ``numpy.random.Generator``, runs as one part per usable CPU (Linux
    only), each part at least SPLIT_MIN_WORK row entries: the first here,
    the others in forked workers that send back their records and
    generator states.  The records and the generators' final positions are
    those of the unsplit block, ``stop`` is called in the process that
    runs the row, a worker's exception is raised here and no worker
    outlives the call.  Trials draw ahead in blocks (see the module
    docstring), the stream of one (sample, normals) pair per step, a
    degenerate noise draw giving zero noise.  A block of sampler rows, each
    with a ``numpy.random.Generator`` and none a RecordedPerturbations,
    draws its first block here and, when its budget needs more, the others
    in one producer forked on Linux with at least 2 usable CPUs, one block
    ahead; the producer sends back its generators' states after every
    block, and each row's generator is given its state after the last block
    the row read.  The records and generator positions are those of the
    blocks drawn here, the producer's exception is raised here and no
    producer outlives the call.  A block holds at most the
    budget left, so a trial that runs its whole budget leaves its generator
    where one pair per step does and can be continued; one that stops or
    diverges early may leave it up to a block past.

    With constraints, starts must be feasible, steps are projected and
    recorded iterates are checked to 1e-10.  Returns RunRecords in trial order.
    """
    records = []
    for lo in range(0, n_trials, STACK_ROWS):
        starts = [start(k) for k in range(lo, min(lo + STACK_ROWS, n_trials))]
        if not all(p.constraints is None or p.constraints.feasible(w0) for w0, _, p, _ in starts):
            raise ValueError("projected run requires a feasible starting point")
        parts = _parts(starts)
        with _Forks() as forks:
            records += (_run_loop(starts, config, stop, forks=forks) if parts == 1
                        else _split_run(starts, config, stop, parts, forks))
    return records


def projected_noisy_sgd(problem, sampler, w0, config, rng=None):
    """Constrained runner: every step is re-projected onto the feasible set.

    Requires a feasible start; every recorded iterate is feasibility-checked
    to 1e-10.  One trial of :func:`projected_trials`.
    """
    if rng is None:
        rng = run_rng(config.seed)
    return projected_trials(1, lambda k: (w0, rng, problem, sampler), config)[0]


def write_csv(path, header, rows):
    """CSV of the column names ``header`` and the cell sequences ``rows``.

    Floats (np.float64 included) are written as the round-trip
    ``repr(float(v))``, any other cell with ``str``.
    """
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row) + "\n"
                      for row in rows)


def write_run_csv(record, path):
    """Trace CSV: header ``iter,f,grad_norm,recon_error,elapsed_ms``.

    Identical runs produce identical bytes in every column except
    elapsed_ms, written in ms to three decimals (wall clock is not
    reproducible).
    """
    elapsed = [f"{ms:.3f}" for ms in record.elapsed_ms.tolist()]
    write_csv(path, ("iter", "f", "grad_norm", "recon_error", "elapsed_ms"),
              zip(record.iters.tolist(), record.f_values.tolist(), record.grad_norms.tolist(),
                  record.recon_errors.tolist(), elapsed))
