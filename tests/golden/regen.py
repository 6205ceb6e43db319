"""Golden outputs of the command line, and the script that regenerates them.

Each case runs one ``strictsaddle`` command at a small size and keeps its
stdout, exit code and every file it writes, normalized so that reruns
match byte for byte: the ``elapsed_ms`` column of the CSVs and the
manifest's ``started``, ``finished`` and ``environment`` entries are
dropped, and the manifest's output directory reads as the case name.

``index.json`` stores each case's argv and exit code together with the
host key of the machine that wrote the goldens: the manifest's
environment block plus the targets numpy's SIMD dispatch picked.  On
another host the last bits of a float can differ, so
``tests/test_golden.py`` compares byte for byte only when the host key
matches.

Regenerate (this rewrites every golden; say why in CHANGES.md):

    PYTHONPATH=src python tests/golden/regen.py
"""

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

from numpy.lib.introspect import opt_func_info

from strictsaddle import cli

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
INDEX = os.path.join(GOLDEN_DIR, "index.json")
STDOUT = "stdout.txt"

_DECOMPOSE = ["decompose", "--d", "3", "--seeds", "2", "--iters", "300", "--record-every", "50"]
CASES = {
    "decompose-correlation": _DECOMPOSE,
    "decompose-reconstruction": [*_DECOMPOSE, "--objective", "reconstruction"],
    "decompose-maxeig": [*_DECOMPOSE, "--objective", "maxeig"],
    "decompose-ica": [*_DECOMPOSE, "--sampler", "ica", "--batch", "5"],
    "ica": ["ica", "--d", "3", "--seeds", "2", "--iters", "300", "--record-every", "50", "--batch", "5"],
    "escape": ["escape", "--d", "4", "--trials", "20", "--iters", "500"],
    "minima": ["minima", "--d", "2", "--starts", "20", "--iters", "600", "--eta", "0.05", "--noise", "0.5"],
    "verify": ["verify", "--d", "4"],
}
MANIFEST_DROPPED = ("started", "finished", "environment")


def host_key():
    """The manifest's environment block plus numpy's dispatch targets."""
    targets = {sig["current"] for func in opt_func_info().values() for sig in func.values()}
    return {**cli._environment(), "numpy_dispatch": sorted(targets)}


def _drop_column(text, name):
    rows = [line.split(",") for line in text.splitlines()]
    if name not in rows[0]:
        return text
    k = rows[0].index(name)
    return "".join(",".join(row[:k] + row[k + 1:]) + "\n" for row in rows)


def normalize(name, filename, text):
    """A file's text with the parts that differ between reruns removed."""
    if filename.endswith(".csv"):
        return _drop_column(text, "elapsed_ms")
    if filename == "manifest.json":
        body = json.loads(text)
        for key in MANIFEST_DROPPED:
            body.pop(key)
        body["config"]["out"] = name
        return json.dumps(body, indent=2, sort_keys=True) + "\n"
    return text


def run_case(name, argv, workdir):
    """Run one case with its outputs under ``workdir``: (exit code, {file: normalized text})."""
    out = os.path.join(workdir, name)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([*argv, "--out", out])
    files = {STDOUT: stdout.getvalue()}
    for filename in sorted(os.listdir(out)):
        with open(os.path.join(out, filename)) as fh:
            files[filename] = normalize(name, filename, fh.read())
    return code, files


def main():
    index = {"host": host_key(), "cases": {}}
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in CASES.items():
            code, files = run_case(name, argv, workdir)
            case_dir = os.path.join(GOLDEN_DIR, name)
            shutil.rmtree(case_dir, ignore_errors=True)
            os.makedirs(case_dir)
            for filename, text in files.items():
                with open(os.path.join(case_dir, filename), "w") as fh:
                    fh.write(text)
            index["cases"][name] = {"argv": argv, "exit_code": code}
            print(f"{name}: exit {code}, {len(files)} files")
    with open(INDEX, "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
