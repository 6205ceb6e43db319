"""Command line experiment harness.

Subcommands
-----------
decompose   tensor decomposition runs, one trace CSV per seed
ica         mixing-matrix recovery from sign sources; emits a constant
            step-size trace and an annealed continuation per seed
verify      invariant battery (derivatives, geometry, unbiasedness,
            minima census, coupling closed form)
escape      Monte-Carlo escape statistics from an exact saddle
minima      multi-start minima enumeration

Configuration comes from an optional KEY=VALUE file plus flag
overrides; flags win.  Every run directory receives a manifest listing
the emitted files.  Given the same config and seed, all CSV columns
except elapsed_ms are byte-identical across reruns.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import __version__, analysis, ica, objectives, tensor4
from .sgd import SCHEDULES, SgdConfig, projected_trials, run_rng, write_csv, write_run_csv

OBJECTIVES = ("correlation", "reconstruction", "maxeig")
SAMPLERS = ("simple", "ica")
ENV_OUT = "STRICTSADDLE_OUT"

# Base step for the annealed ica continuation, as a multiple of eta.
# With eta_t = eta_a/(t+1) the integrated step sum controls how far the
# error can contract below the plateau; the plain base eta decays too
# fast to move at all, so the continuation starts 10x higher and decays
# through the constant value within the first few steps.
ANNEAL_BOOST = 10.0

# Default logging stride for the ica command.  The plateau summary reads
# the trailing PLATEAU_FRACTION of the recorded trace; with mini-batch
# estimates the pointwise error wobbles about 20% around its mean, so the
# trace is logged sparsely enough that the window holds a couple of
# decorrelated plateau samples rather than a dense sweep of the wobble.
ICA_RECORD_EVERY = 1250
PLATEAU_FRACTION = 0.2


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 2."""


# Smallest d each command can run at.
MIN_D = {"escape": 2, "verify": 2, "minima": 2}
# Commands that run every seed of ``seeds``; the others run ``seed`` alone.
SEED_SWEEPS = ("decompose", "ica")
# The settings SgdConfig checks that the command line names differently.
_SGD_NAMES = {"iterations": "iters", "noise_scale": "noise", "record_every": "record-every"}


@dataclass
class ExperimentConfig:
    """Harness settings; one instance drives one command invocation."""

    d: int = 10
    objective: str = "correlation"
    sampler: str = "simple"
    batch: int = 100
    eta: float = 0.01
    iters: int = 10_000
    schedule: str = "constant"
    noise: float = 1.0
    seed: int = 0
    n_seeds: int = 1
    seed_values: tuple = ()
    record_every: int = 100
    trials: int = 100
    starts: int = 200
    out: str = ""
    overwrite: bool = False

    def validate(self, command):
        """Reject what ``command`` cannot run, before any output exists.

        The step, noise, iteration, stride and seed rules are SgdConfig's,
        checked on the configs the command runs and on each listed seed.
        """
        need = MIN_D.get(command, 1)
        if self.d < need:
            raise CliError(f"{command} requires d >= {need}")
        for key, (_, choices, _) in SETTINGS.items():
            if choices and getattr(self, key) not in choices:
                raise CliError(f"{key} must be one of {choices}")
        for key, value in (("batch", self.batch), ("seeds", self.n_seeds),
                           ("trials", self.trials), ("starts", self.starts)):
            if value < 1:
                raise CliError(f"{key} must be >= 1")
        if self.sampler == "ica" and self.objective != "correlation":
            raise CliError("the ica sampler estimates the correlation gradient only")
        seeds = self.seeds()
        if len(set(seeds)) < len(seeds):
            raise CliError("seeds must be distinct")
        try:
            self.sgd_config()
            if command == "ica":
                self.sgd_config("inv-t", eta=ANNEAL_BOOST * self.eta)
        except ValueError as exc:
            name, rest = str(exc).split(" ", 1)
            raise CliError(f"{_SGD_NAMES.get(name, name)} {rest}") from None
        for seed in self.seed_values:
            try:
                SgdConfig(seed=seed)
            except ValueError as exc:
                raise CliError(f"seeds lists {seed}: {exc}") from None

    def seeds(self):
        if self.seed_values:
            return list(self.seed_values)
        return list(range(self.seed, self.seed + self.n_seeds))

    def sgd_config(self, schedule=None, eta=None):
        step = eta if eta is not None else self.eta
        return SgdConfig(eta=step, iterations=self.iters, schedule=schedule or self.schedule,
                         noise_scale=self.noise, seed=self.seed, record_every=self.record_every)


# Every setting, declared once: config key -> (help text, choices, the one
# command with the flag or None for all).  A setting's type is that of its
# ExperimentConfig default (``seeds`` counts ``n_seeds``; a config file may
# also list them, ``seeds=3,9``).  A config file may set any key.
SETTINGS = {
    "seed": ("base RNG seed", None, None),
    "seeds": ("number of consecutive seeds", None, None),
    "out": ("output directory", None, None),
    "d": ("problem dimension", None, None),
    "eta": ("step size", None, None),
    "iters": ("iteration budget", None, None),
    "schedule": ("step-size schedule", SCHEDULES, None),
    "batch": ("mini-batch size (ica sampler)", None, None),
    "objective": ("objective function", OBJECTIVES, None),
    "sampler": ("stochastic gradient source", SAMPLERS, None),
    "noise": ("injected sphere-noise scale", None, None),
    "record_every": ("trace sampling stride", None, None),
    "overwrite": ("reuse an existing output directory", None, None),
    "trials": ("number of escape trials", None, "escape"),
    "starts": ("number of random starts", None, "minima"),
}


def _kind(key):
    return type(getattr(ExperimentConfig, "n_seeds" if key == "seeds" else key))


def _parse(key, text):
    """A config-file value as its setting's type."""
    try:
        if _kind(key) is bool:
            return {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}[text.lower()]
        if key == "seeds" and "," in text:
            seeds = tuple(int(v) for v in text.split(",") if v.strip())
            if not seeds:
                raise ValueError("no seeds listed")
            return seeds
        return _kind(key)(text)
    except (KeyError, ValueError):
        raise CliError(f"bad value for {key}: {text!r}") from None


def _set(config, key, value):
    if key != "seeds":
        setattr(config, key, value)
    elif isinstance(value, tuple):
        config.seed_values = value
    else:
        config.n_seeds, config.seed_values = value, ()


def parse_config_file(path):
    """KEY=VALUE lines; '#' starts a comment; blank lines ignored."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}") from None
    data = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected KEY=VALUE, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = value
    return data


def build_config(args):
    """Defaults, then the config file, then the flags; validated for the command."""
    config = ExperimentConfig(record_every=ICA_RECORD_EVERY) if args.command == "ica" else ExperimentConfig()
    if args.config:
        for key, text in parse_config_file(args.config).items():
            key = key.replace("-", "_")
            if key not in SETTINGS:
                raise CliError(f"unknown config key {key!r}")
            _set(config, key, _parse(key, text))
    for key in SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            _set(config, key, value)
    config.validate(args.command)
    return config


def _utc_stamp():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _environment():
    """Python, numpy and BLAS versions, CPU count and package version of this process."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "cpu_count": os.cpu_count(), "strictsaddle": __version__}


def write_manifest(out_dir, command, config, started, outputs):
    """Provenance record listing every file the command wrote."""
    body = {
        "command": command,
        "version": __version__,
        "config": asdict(config),
        "seeds": config.seeds() if command in SEED_SWEEPS else [config.seed],
        "started": started,
        "finished": _utc_stamp(),
        "outputs": sorted(os.path.basename(path) for path in outputs),
        "environment": _environment(),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_problem(config, basis):
    if config.objective == "maxeig":
        return objectives.maxeig_objective(basis=basis)
    if config.objective == "reconstruction":
        return objectives.reconstruction_objective(basis=basis)
    return objectives.correlation_objective(basis=basis, halved=True)


def build_sampler(config, basis):
    if config.sampler == "simple":
        return ica.SimpleSampler(basis, kind=config.objective)
    model = ica.IcaModel(basis.vectors.T)
    return ica.IcaSampler(model, batch_size=config.batch)


def seed_start(config):
    """``start(k)`` for :func:`sgd.projected_trials`, trial k the k-th of ``config.seeds()``.

    Seed s's generator ``run_rng(s)`` draws the basis, then the start.
    """
    seeds = config.seeds()

    def start(k):
        rng = run_rng(seeds[k])
        basis = tensor4.OrthoBasis.random(config.d, rng)
        problem = build_problem(config, basis)
        sampler = build_sampler(config, basis)
        return problem.random_feasible(rng), rng, problem, sampler

    return start


def cmd_decompose(config, out_dir):
    """Projected noisy SGD with every seed a row of one stack; per-seed trace plus summary."""
    seeds = config.seeds()
    records = projected_trials(len(seeds), seed_start(config), config.sgd_config())
    outputs, rows = [], []
    for seed, record in zip(seeds, records):
        outputs.append(os.path.join(out_dir, f"seed{seed}.csv"))
        write_run_csv(record, outputs[-1])
        error = record.recon_errors[-1]
        rows.append((seed, record.final_f, record.grad_norms[-1], error, record.n_steps, int(record.diverged)))
        print(f"seed {seed}: f={record.final_f:.6g} error={error:.6g} [{'diverged' if record.diverged else 'ok'}]")
    outputs.append(os.path.join(out_dir, "summary.csv"))
    write_csv(outputs[-1], ("seed", "final_f", "final_grad_norm", "final_recon_error", "n_steps", "diverged"), rows)
    return (1 if any(r.diverged for r in records) else 0), outputs


def trailing_window_stats(values):
    """Mean and range of the trailing PLATEAU_FRACTION of a trace."""
    values = np.asarray(values, dtype=float)
    k = max(1, int(round(PLATEAU_FRACTION * values.size)))
    tail = values[-k:]
    return float(np.mean(tail)), float(np.max(tail) - np.min(tail))


def cmd_ica(config, out_dir):
    """Per seed: constant-step run, then an annealed continuation.

    The continuation starts from the constant run's endpoint with the
    decaying schedule, matching the protocol of holding the step size
    until the error plateaus and then letting it decay.  A constant run
    that diverged has no feasible endpoint, so it gets no continuation.
    The constant runs advance as one stack, then the continuations; each is
    that seed's ``decompose --sampler ica --objective correlation`` run.
    """
    seeds = config.seeds()
    start = seed_start(replace(config, objective="correlation", sampler="ica"))
    trials = [start(k) for k in range(len(seeds))]
    consts = projected_trials(len(trials), trials.__getitem__, config.sgd_config("constant"))
    go_on = [(rec.final_point, *trial[1:]) for rec, trial in zip(consts, trials) if not rec.diverged]
    anneal_config = config.sgd_config("inv-t", eta=ANNEAL_BOOST * config.eta)
    anneals = iter(projected_trials(len(go_on), go_on.__getitem__, anneal_config))

    outputs, rows = [], []
    for seed, rec_const in zip(seeds, consts):
        rec_anneal = None if rec_const.diverged else next(anneals)
        for name, record in ((f"seed{seed}-constant.csv", rec_const), (f"seed{seed}-invt.csv", rec_anneal)):
            if record is not None:
                outputs.append(os.path.join(out_dir, name))
                write_run_csv(record, outputs[-1])
        plateau_mean, plateau_range = trailing_window_stats(rec_const.recon_errors)
        e_anneal = float("nan") if rec_anneal is None else rec_anneal.recon_errors[-1]
        improved = int(e_anneal < plateau_mean)
        diverged = int(rec_anneal is None or rec_anneal.diverged)
        rows.append((seed, plateau_mean, plateau_range, rec_const.recon_errors[-1], e_anneal, improved, diverged))
        print(f"seed {seed}: plateau={plateau_mean:.3e} annealed={e_anneal:.3e} improved={bool(improved)}")
    outputs.append(os.path.join(out_dir, "summary.csv"))
    write_csv(outputs[-1], ("seed", "plateau_mean", "plateau_range", "final_error_constant", "final_error_invt",
                            "improved", "diverged"), rows)
    return (1 if any(diverged for *_, diverged in rows) else 0), outputs


def cmd_verify(config, out_dir):
    """Run the invariant battery and report pass/fail per check."""
    results = analysis.run_checks(d=config.d, seed=config.seed)
    lines = [r.to_line() for r in results]
    for line in lines:
        print(line)
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    outputs = []
    if out_dir is not None:
        outputs.append(os.path.join(out_dir, "verify_report.txt"))
        with open(outputs[-1], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        outputs.append(os.path.join(out_dir, "verify_report.json"))
        with open(outputs[-1], "w") as fh:
            json.dump([{"name": r.name, "value": float(r.value), "tolerance": float(r.tolerance),
                        "margin": float(r.tolerance - r.value), "passed": bool(r.passed)} for r in results], fh)
    return (1 if n_failed else 0), outputs


def cmd_escape(config, out_dir):
    """Escape statistics from the two-component maxeig saddle."""
    rng = run_rng(config.seed)
    basis = tensor4.OrthoBasis.random(config.d, rng)
    problem = objectives.maxeig_objective(basis=basis)
    saddle = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2.0)
    stats = analysis.escape_statistics(problem, saddle, config.trials, config.sgd_config())

    path = os.path.join(out_dir, "escape.csv")
    write_csv(path, ("trial", "steps", "f_decrease"),
              ((k, -1 if steps is None else steps, dec)
               for k, (steps, dec) in enumerate(zip(stats["per_trial_steps"], stats["per_trial_decrease"]))))
    med = stats["median_steps"]
    print(f"escaped {stats['escape_fraction']:.0%} of {config.trials} trials"
          f" (median steps {'n/a' if med is None else int(med)},"
          f" mean f decrease {stats['mean_f_decrease']:.4g})")
    if stats["diverged"]:
        print(f"{stats['diverged']} trials diverged")
    return (1 if stats["diverged"] else 0), [path]


def cmd_minima(config, out_dir):
    """Multi-start minima enumeration on the configured problem."""
    rng = run_rng(config.seed)
    basis = tensor4.OrthoBasis.random(config.d, rng)
    problem = build_problem(config, basis)
    catalog = analysis.enumerate_minima(problem, config.starts, config.sgd_config())

    path = os.path.join(out_dir, "minima.csv")
    catalog.to_csv(path)
    print(f"found {len(catalog)} distinct minima in {config.starts} starts")
    if catalog.diverged:
        print(f"{catalog.diverged} starts diverged")
    return (1 if catalog.diverged else 0), [path]


COMMANDS = {
    "decompose": ("tensor decomposition runs, one trace per seed", cmd_decompose),
    "ica": ("recover a mixing matrix from sign sources", cmd_ica),
    "verify": ("run the invariant battery", cmd_verify),
    "escape": ("saddle escape statistics", cmd_escape),
    "minima": ("enumerate local minima by multi-start", cmd_minima),
}


def make_parser():
    parser = argparse.ArgumentParser(
        prog="strictsaddle",
        description="Noisy projected SGD experiments on tensor decomposition problems.",
        epilog=f"Environment: {ENV_OUT} sets the default output root (default ./runs).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, fn) in COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--config", help="KEY=VALUE settings file")
        for key, (help_text, choices, owner) in SETTINGS.items():
            if owner not in (None, name):
                continue
            flag = "--" + key.replace("_", "-")
            if _kind(key) is bool:
                sp.add_argument(flag, dest=key, action="store_true", default=None, help=help_text)
            else:
                sp.add_argument(flag, dest=key, type=_kind(key), choices=choices, help=help_text)
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    made = None  # the output directory, once this call has created it
    try:
        config = build_config(args)
        out_dir = None
        if args.command != "verify" or config.out:
            out_dir = config.out or os.path.join(os.environ.get(ENV_OUT, "runs"), args.command)
            if not os.path.exists(out_dir):
                made = out_dir
            elif not config.overwrite:
                raise CliError(f"output directory {out_dir!r} exists; pass --overwrite to reuse it")
            os.makedirs(out_dir, exist_ok=True)
        started = _utc_stamp()
        code, outputs = args.fn(config, out_dir)
        if out_dir is not None:
            write_manifest(out_dir, args.command, config, started, outputs)
        return code
    except CliError as exc:
        message = f"error: {exc}"
    except MemoryError as exc:
        # numpy refuses an allocation too large for the host, e.g. a huge --d
        message = f"error: not enough memory: {str(exc) or 'allocation refused'}"
    except OSError as exc:
        message = f"i/o error: {exc}"
    print(message, file=sys.stderr)
    if made is not None:
        shutil.rmtree(made, ignore_errors=True)
    return 2


if __name__ == "__main__":
    sys.exit(main())
