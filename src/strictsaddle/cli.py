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
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, analysis, ica, objectives, tensor4
from .sgd import SgdConfig, projected_noisy_sgd, run_rng

OBJECTIVES = ("correlation", "reconstruction", "maxeig")
SAMPLERS = ("simple", "ica")
SCHEDULE_NAMES = {"constant": "constant", "inv-t": "inverse_t"}
ENV_OUT = "STRICTSADDLE_OUT"

# Base step for the annealed ica continuation, as a multiple of eta.
# With eta_t = eta_a/(t+1) the integrated step sum controls how far the
# error can contract below the plateau; the plain base eta decays too
# fast to move at all, so the continuation starts 10x higher and decays
# through the constant value within the first few steps.
ANNEAL_BOOST = 10.0

# Default logging stride for the ica command.  The plateau summary reads
# the trailing fifth of the recorded trace; with mini-batch estimates the
# pointwise error wobbles about 20% around its mean, so the trace is
# logged sparsely enough that the window holds a couple of decorrelated
# plateau samples rather than a dense sweep of the wobble.
ICA_RECORD_EVERY = 1250


class CliError(Exception):
    """Configuration or I/O problem; maps to exit code 2."""


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

    def validate(self):
        for name in ("eta", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise CliError(f"{name} must be finite")
        if self.d < 1:
            raise CliError("d must be >= 1")
        if self.iters < 1:
            raise CliError("iterations must be >= 1")
        if self.batch < 1:
            raise CliError("batch must be >= 1")
        if self.eta <= 0:
            raise CliError("eta must be positive")
        if self.noise < 0:
            raise CliError("noise must be nonnegative")
        if self.objective not in OBJECTIVES:
            raise CliError(f"objective must be one of {OBJECTIVES}")
        if self.sampler not in SAMPLERS:
            raise CliError(f"sampler must be one of {SAMPLERS}")
        if self.schedule not in SCHEDULE_NAMES:
            raise CliError(f"schedule must be one of {tuple(SCHEDULE_NAMES)}")
        if self.n_seeds < 1:
            raise CliError("seeds must be >= 1")
        if self.trials < 1:
            raise CliError("trials must be >= 1")
        if self.starts < 1:
            raise CliError("starts must be >= 1")
        if self.record_every < 1:
            raise CliError("record-every must be >= 1")
        if self.sampler == "ica" and self.objective != "correlation":
            raise CliError("the ica sampler estimates the correlation gradient only")

    def seeds(self):
        if self.seed_values:
            return list(self.seed_values)
        return list(range(self.seed, self.seed + self.n_seeds))

    def sgd_config(self, seed, schedule=None, eta=None):
        name = SCHEDULE_NAMES[schedule or self.schedule]
        step = eta if eta is not None else self.eta
        # an explicitly requested step (e.g. the boosted annealing start)
        # widens the safety rail rather than tripping it
        return SgdConfig(eta=step, eta_max=max(step, 0.1), iterations=self.iters,
                         schedule=name, noise_scale=self.noise, seed=seed,
                         record_every=self.record_every)

    def snapshot(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out


_INT_KEYS = {"d", "batch", "iters", "seed", "record_every", "trials", "starts"}
_FLOAT_KEYS = {"eta", "noise"}
_STR_KEYS = {"objective", "sampler", "schedule", "out"}


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


def _apply_setting(config, key, value):
    key = key.replace("-", "_")
    try:
        if key in _INT_KEYS:
            setattr(config, key, int(value))
        elif key in _FLOAT_KEYS:
            setattr(config, key, float(value))
        elif key in _STR_KEYS:
            setattr(config, key, value)
        elif key == "overwrite":
            setattr(config, key, value.lower() in ("1", "true", "yes"))
        elif key == "seeds":
            # either an explicit comma list or a count paired with `seed`
            if "," in value:
                config.seed_values = tuple(int(v) for v in value.split(",") if v.strip())
            else:
                config.n_seeds = int(value)
        else:
            raise CliError(f"unknown config key {key!r}")
    except ValueError:
        raise CliError(f"bad value for {key}: {value!r}") from None


def build_config(args, base=None):
    config = base if base is not None else ExperimentConfig()
    if args.config:
        for key, value in parse_config_file(args.config).items():
            _apply_setting(config, key, value)
    for key in ("d", "objective", "sampler", "batch", "eta", "iters", "schedule",
                "noise", "seed", "record_every", "trials", "starts", "out"):
        value = getattr(args, key, None)
        if value is not None:
            _apply_setting(config, key, str(value))
    if getattr(args, "seeds", None) is not None:
        config.n_seeds = args.seeds
        config.seed_values = ()
    if getattr(args, "overwrite", False):
        config.overwrite = True
    config.validate()
    return config


# Smallest d each command can run at; checked before any output directory
# exists, so a rejected run leaves nothing behind.
MIN_D = {"escape": 2, "verify": 2}


def check_command_limits(config, command):
    need = MIN_D.get(command, 1)
    if config.d < need:
        raise CliError(f"{command} requires d >= {need}")


def resolve_out_dir(config, command):
    if config.out:
        return config.out
    root = os.environ.get(ENV_OUT, "runs")
    return os.path.join(root, command)


def prepare_out_dir(path, overwrite):
    if os.path.exists(path) and not overwrite:
        raise CliError(f"output directory {path!r} exists; pass --overwrite to reuse it")
    os.makedirs(path, exist_ok=True)


def _utc_stamp():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


@dataclass
class RunManifest:
    """Provenance record; every emitted file is listed exactly once."""

    command: str
    config: dict
    seeds: list
    started: str
    finished: str = ""
    outputs: list = field(default_factory=list)
    version: str = __version__

    def add(self, path):
        name = os.path.basename(path)
        if name in self.outputs:
            raise CliError(f"duplicate output file {name!r}")
        self.outputs.append(name)
        return path

    def write(self, out_dir):
        self.finished = _utc_stamp()
        body = {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "seeds": self.seeds,
            "started": self.started,
            "finished": self.finished,
            "outputs": sorted(self.outputs),
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


def _final_error(record):
    err = float(record.recon_errors[-1]) if record.recon_errors.size else float("nan")
    return err


def cmd_decompose(config, out_dir):
    """One projected noisy SGD run per seed; per-seed trace plus summary."""
    manifest = RunManifest("decompose", config.snapshot(), config.seeds(), _utc_stamp())

    def run_one(seed):
        rng = run_rng(seed)
        basis = tensor4.OrthoBasis.random(config.d, rng)
        problem = build_problem(config, basis)
        sampler = build_sampler(config, basis)
        w0 = problem.random_feasible(rng)
        record = projected_noisy_sgd(problem, sampler, w0, config.sgd_config(seed), rng=rng)
        path = os.path.join(out_dir, f"seed{seed}.csv")
        record.to_csv(path)
        return seed, path, record

    results = [run_one(seed) for seed in config.seeds()]

    summary_path = os.path.join(out_dir, "summary.csv")
    failed = 0
    with open(summary_path, "w") as fh:
        fh.write("seed,final_f,final_grad_norm,final_recon_error,n_steps,diverged\n")
        for seed, path, record in results:
            manifest.add(path)
            fh.write(f"{seed},{float(record.final_f)!r},{float(record.grad_norms[-1])!r},"
                     f"{_final_error(record)!r},{record.n_steps},{int(record.diverged)}\n")
            status = "diverged" if record.diverged else "ok"
            print(f"seed {seed}: f={record.final_f:.6g} error={_final_error(record):.6g} [{status}]")
            failed += int(record.diverged)
    manifest.add(summary_path)
    manifest.write(out_dir)
    return 1 if failed else 0


def trailing_window_stats(values, fraction=0.2):
    """Mean and range of the trailing fraction of a trace."""
    values = np.asarray(values, dtype=float)
    k = max(1, int(round(fraction * values.size)))
    tail = values[-k:]
    return float(np.mean(tail)), float(np.max(tail) - np.min(tail))


def cmd_ica(config, out_dir):
    """Per seed: constant-step run, then an annealed continuation.

    The continuation starts from the constant run's endpoint with the
    decaying schedule, matching the protocol of holding the step size
    until the error plateaus and then letting it decay.
    """
    manifest = RunManifest("ica", config.snapshot(), config.seeds(), _utc_stamp())

    def run_one(seed):
        rng = run_rng(seed)
        model = ica.IcaModel.random(config.d, rng)
        problem = objectives.correlation_objective(basis=model.component_basis(), halved=True)
        sampler = ica.IcaSampler(model, batch_size=config.batch)
        w0 = problem.random_feasible(rng)
        rec_const = projected_noisy_sgd(problem, sampler, w0, config.sgd_config(seed, "constant"), rng=rng)
        anneal_config = config.sgd_config(seed, "inv-t", eta=ANNEAL_BOOST * config.eta)
        rec_anneal = projected_noisy_sgd(problem, sampler, rec_const.final_point, anneal_config, rng=rng)
        p1 = os.path.join(out_dir, f"seed{seed}-constant.csv")
        p2 = os.path.join(out_dir, f"seed{seed}-invt.csv")
        rec_const.to_csv(p1)
        rec_anneal.to_csv(p2)
        return seed, (p1, p2), rec_const, rec_anneal

    results = [run_one(seed) for seed in config.seeds()]

    summary_path = os.path.join(out_dir, "summary.csv")
    failed = 0
    with open(summary_path, "w") as fh:
        fh.write("seed,plateau_mean,plateau_range,final_error_constant,final_error_invt,improved,diverged\n")
        for seed, paths, rec_const, rec_anneal in results:
            for p in paths:
                manifest.add(p)
            plateau_mean, plateau_range = trailing_window_stats(rec_const.recon_errors)
            e_const = _final_error(rec_const)
            e_anneal = _final_error(rec_anneal)
            improved = int(e_anneal < plateau_mean)
            diverged = int(rec_const.diverged or rec_anneal.diverged)
            failed += diverged
            fh.write(f"{seed},{plateau_mean!r},{plateau_range!r},{e_const!r},{e_anneal!r},"
                     f"{improved},{diverged}\n")
            print(f"seed {seed}: plateau={plateau_mean:.3e} annealed={e_anneal:.3e} improved={bool(improved)}")
    manifest.add(summary_path)
    manifest.write(out_dir)
    return 1 if failed else 0


def cmd_verify(config, out_dir):
    """Run the invariant battery and report pass/fail per check."""
    results = analysis.run_checks(d=config.d, seed=config.seed)
    lines = [r.to_line() for r in results]
    for line in lines:
        print(line)
    n_failed = sum(not r.passed for r in results)
    print(f"{len(results) - n_failed}/{len(results)} checks passed")
    if out_dir is not None:
        manifest = RunManifest("verify", config.snapshot(), [config.seed], _utc_stamp())
        report = os.path.join(out_dir, "verify_report.txt")
        with open(report, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        manifest.add(report)
        manifest.write(out_dir)
    return 1 if n_failed else 0


def cmd_escape(config, out_dir):
    """Escape statistics from the two-component maxeig saddle."""
    rng = run_rng(config.seed)
    basis = tensor4.OrthoBasis.random(config.d, rng)
    problem = objectives.maxeig_objective(basis=basis)
    saddle = (basis.vectors[0] + basis.vectors[1]) / np.sqrt(2.0)
    stats = analysis.escape_statistics(problem, saddle, config.trials, config.sgd_config(config.seed))

    manifest = RunManifest("escape", config.snapshot(), [config.seed], _utc_stamp())
    path = os.path.join(out_dir, "escape.csv")
    with open(path, "w") as fh:
        fh.write("trial,steps,f_decrease\n")
        for k, (steps, dec) in enumerate(zip(stats["per_trial_steps"], stats["per_trial_decrease"])):
            fh.write(f"{k},{-1 if steps is None else steps},{float(dec)!r}\n")
    manifest.add(path)
    manifest.write(out_dir)
    med = stats["median_steps"]
    print(f"escaped {stats['escape_fraction']:.0%} of {config.trials} trials"
          f" (median steps {'n/a' if med is None else int(med)},"
          f" mean f decrease {stats['mean_f_decrease']:.4g})")
    return 0


def cmd_minima(config, out_dir):
    """Multi-start minima enumeration on the configured problem."""
    rng = run_rng(config.seed)
    basis = tensor4.OrthoBasis.random(config.d, rng)
    problem = build_problem(config, basis)
    catalog = analysis.enumerate_minima(problem, config.starts, config.sgd_config(config.seed))

    manifest = RunManifest("minima", config.snapshot(), [config.seed], _utc_stamp())
    path = os.path.join(out_dir, "minima.csv")
    catalog.to_csv(path)
    manifest.add(path)
    manifest.write(out_dir)
    print(f"found {len(catalog)} distinct minima in {config.starts} starts")
    return 0


def _add_common_flags(parser):
    parser.add_argument("--config", help="KEY=VALUE settings file")
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--seeds", type=int, help="number of consecutive seeds")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--d", type=int, help="problem dimension")
    parser.add_argument("--eta", type=float, help="step size")
    parser.add_argument("--iters", type=int, help="iteration budget")
    parser.add_argument("--schedule", choices=tuple(SCHEDULE_NAMES), help="step-size schedule")
    parser.add_argument("--batch", type=int, help="mini-batch size (ica sampler)")
    parser.add_argument("--objective", choices=OBJECTIVES, help="objective function")
    parser.add_argument("--sampler", choices=SAMPLERS, help="stochastic gradient source")
    parser.add_argument("--noise", type=float, help="injected sphere-noise scale")
    parser.add_argument("--record-every", dest="record_every", type=int, help="trace sampling stride")
    parser.add_argument("--overwrite", action="store_true", help="reuse an existing output directory")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="strictsaddle",
        description="Noisy projected SGD experiments on tensor decomposition problems.",
        epilog=f"Environment: {ENV_OUT} sets the default output root (default ./runs).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    specs = [
        ("decompose", "tensor decomposition runs, one trace per seed", cmd_decompose),
        ("ica", "recover a mixing matrix from sign sources", cmd_ica),
        ("verify", "run the invariant battery", cmd_verify),
        ("escape", "saddle escape statistics", cmd_escape),
        ("minima", "enumerate local minima by multi-start", cmd_minima),
    ]
    for name, help_text, fn in specs:
        sp = sub.add_parser(name, help=help_text)
        _add_common_flags(sp)
        if name == "escape":
            sp.add_argument("--trials", type=int, help="number of escape trials")
        if name == "minima":
            sp.add_argument("--starts", type=int, help="number of random starts")
        sp.set_defaults(fn=fn, command=name)
    return parser


def main(argv=None):
    args = make_parser().parse_args(argv)
    try:
        base = None
        if args.command == "ica":
            base = ExperimentConfig(record_every=ICA_RECORD_EVERY)
        config = build_config(args, base)
        check_command_limits(config, args.command)
        if args.command == "verify" and not (config.out or args.out):
            out_dir = None
        else:
            out_dir = resolve_out_dir(config, args.command)
            prepare_out_dir(out_dir, config.overwrite)
        return args.fn(config, out_dir)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
