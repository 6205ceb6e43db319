"""Same bytes as another revision: run the reference commands on this
checkout and on REV, and compare what they write.

    python tests/parity.py [REV]      # REV defaults to HEAD~1

REV's ``src/`` is exported with ``git archive`` into a temporary directory,
so the repository's own ``.git`` gains no worktree entry.  Each command
in COMMANDS runs once per tree, in a child process that imports the
package from that tree's ``src/`` (this checkout's working files, edits
included), writing to ``out`` under its own temporary directory.  The two
runs must agree on:

- the exit code and stdout;
- every CSV, with its ``elapsed_ms`` column removed;
- ``manifest.json``, without ``started``, ``finished``, ``environment``
  and ``timing``, which vary from run to run;
- every other file byte for byte (``verify_report.json`` and ``.txt``).

Prints one line per command, then the count of commands with the same
outputs.  Exits 0 when every command matches, 1 when one differs.  It
runs outside the tier-1 suite; ``tests/test_parity.py`` checks that the
list covers every command, objective and sampler.
"""

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST_VARYING = ("started", "finished", "environment", "timing")
RUN = "import sys; from strictsaddle.cli import main; sys.exit(main())"

# (name, argv): the benchmark's and the north star's reference configs,
# every objective, both samplers, ica sign counts (batch x d) even and odd,
# and a sampler run of one block, which forks no block producer
COMMANDS = [
    ("escape", ["escape", "--d", "40", "--trials", "1000", "--iters", "2000"]),
    ("decompose", ["decompose", "--d", "10", "--seeds", "4", "--iters", "10000"]),
    ("decompose-one-block", ["decompose", "--d", "3", "--seeds", "2", "--iters", "50"]),
    ("decompose-maxeig", ["decompose", "--objective", "maxeig", "--d", "5", "--seeds", "3", "--iters", "2000"]),
    ("decompose-reconstruction",
     ["decompose", "--objective", "reconstruction", "--d", "5", "--seeds", "3", "--iters", "2000"]),
    ("decompose-ica-odd", ["decompose", "--sampler", "ica", "--d", "5", "--batch", "7", "--seeds", "3",
                           "--iters", "2000"]),
    ("ica-even", ["ica", "--d", "10", "--seeds", "2"]),
    ("ica-odd", ["ica", "--d", "3", "--batch", "5", "--seeds", "3"]),
    ("verify", ["verify", "--d", "4"]),
    ("minima-census", ["minima", "--d", "2", "--starts", "60", "--iters", "1200", "--eta", "0.05",
                       "--noise", "0.5"]),
]


def export(rev, dest):
    """Write ``rev``'s ``src/`` under ``dest`` with ``git archive``."""
    tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def run(tree, argv, workdir):
    """Run ``argv`` with the package of ``tree``; (exit code, stdout, {file: comparable text})."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-c", RUN, *argv, "--out", "out"], cwd=workdir, env=env,
                          capture_output=True, text=True)
    out = os.path.join(workdir, "out")
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name)) as fh:
            files[name] = comparable(name, fh.read())
    return proc.returncode, proc.stdout, files


def comparable(name, text):
    """What must match in the file ``name``: a CSV without ``elapsed_ms``,
    a manifest without its varying keys, any other file as it is."""
    if name.endswith(".csv"):
        rows = [line.split(",") for line in text.splitlines()]
        drop = rows[0].index("elapsed_ms") if rows and "elapsed_ms" in rows[0] else None
        return "\n".join(",".join(cell for i, cell in enumerate(row) if i != drop) for row in rows)
    if name == "manifest.json":
        body = json.loads(text)
        for key in MANIFEST_VARYING:
            body.pop(key, None)
        return json.dumps(body, sort_keys=True)
    return text


def differences(mine, theirs):
    """What differs between two runs' (exit code, stdout, files)."""
    (code, stdout, files), (code_, stdout_, files_) = mine, theirs
    found = [] if code == code_ else [f"exit {code} vs {code_}"]
    found += [] if stdout == stdout_ else ["stdout"]
    found += [name for name in sorted(set(files) | set(files_)) if files.get(name) != files_.get(name)]
    return found


def main(argv):
    rev = argv[0] if argv else "HEAD~1"
    with tempfile.TemporaryDirectory() as tmp:
        other = os.path.join(tmp, "rev")
        export(rev, other)
        same = 0
        for name, command in COMMANDS:
            runs = []
            for tree in (REPO, other):
                workdir = tempfile.mkdtemp(dir=tmp)
                runs.append(run(tree, command, workdir))
            found = differences(*runs)
            same += not found
            print(f"{name:26} {'same' if not found else 'DIFFERS: ' + ', '.join(found)}", flush=True)
    print(f"{same}/{len(COMMANDS)} commands give the same outputs as {rev}")
    return 0 if same == len(COMMANDS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
