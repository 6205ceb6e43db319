"""One workload repetition in a fresh process.

Usage: python3 perfbench/child.py RESULT.json WORKLOAD SEED MODE [--smoke]

MODE is 0 (untraced), 1 (traced) or env.

Times ``import strictsaddle`` plus the workload's set-up, then calls
``strictsaddle.cli.main(argv)`` in-process with the cli's stdout sent to
``stdout.txt`` next to RESULT.json and its files to ``$STRICTSADDLE_OUT``.
In mode 1 the call runs under the span tracer, and the spans are
written to ``spans.npz`` beside the result.  Mode env only imports the
package and reports the environment.  Only the standard library is
imported before the set-up clock starts.
"""

import contextlib
import json
import os
import resource
import sys
import time

T0 = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_name(np):
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return "unknown"


def environment():
    import numpy as np
    import scipy

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_name(np),
        "cpu_count": os.cpu_count(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def _bytes_under(path):
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def main(argv):
    result_path, workload_name, seed, mode = argv[:4]
    smoke = "--smoke" in argv[4:]
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import strictsaddle
    import workloads

    if not os.path.abspath(strictsaddle.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"strictsaddle imported from {strictsaddle.__file__}, not {SRC}")
    out = {}
    if mode == "env":
        out["env"] = environment()
    else:
        workload = workloads.get(workload_name, smoke=smoke)
        workload.setup(strictsaddle, int(seed))
        out["setup_s"] = time.perf_counter() - T0
        out.update(_run(strictsaddle, workload, int(seed), mode == "1",
                        os.path.dirname(result_path)))
    with open(result_path, "w") as fh:
        json.dump(out, fh)


def _run(ss, workload, seed, traced, rep_dir):
    argv = workload.argv(seed)
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.Tracer(ss)
        tracer.install()
    with open(os.path.join(rep_dir, "stdout.txt"), "w") as fh, contextlib.redirect_stdout(fh):
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            rc = ss.cli.main(argv)
        finally:
            t1, cpu1 = time.perf_counter(), _cpu_seconds()
            if tracer is not None:
                tracer.uninstall()
    out = {
        "argv": argv,
        "rc": rc,
        "wall_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        import numpy as np

        spans = tracer.spans()
        np.savez(os.path.join(rep_dir, "spans.npz"), names=np.array(tracer.names), **spans)
        metrics = tracing.layer_metrics(spans, tracer.counters, tracer.names)
        run_dir = workload.run_dir(rep_dir)
        metrics["cli.bytes_written"] = (_bytes_under(run_dir) if os.path.isdir(run_dir) else 0, "bytes")
        out["per_layer"] = metrics
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
