"""Every golden command reproduces its stored outputs (see tests/golden/regen.py).

On the host that wrote the goldens the comparison is byte for byte.  On
any other host it is numeric: the text between numbers must match
exactly, and each number must be within RTOL relative or ATOL absolute
of the stored one.  ATOL lets round-off-sized values (the verify
battery's errors near 1e-15) move with the platform; RTOL allows the
last-bit differences that another SIMD target or BLAS leaves in a
trajectory, and nothing that changes an outcome.
"""

import json
import math
import os
import re

import pytest

from golden.regen import CASES, GOLDEN_DIR, INDEX, host_key, run_case

RTOL = 1e-6
ATOL = 1e-9
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?\bnan\b|-?\binf\b)")

with open(INDEX) as _fh:
    GOLDEN = json.load(_fh)


def numeric_mismatch(got, want):
    """First place where ``got`` differs from ``want`` beyond the tolerance, or None."""
    got_parts, want_parts = _NUMBER.split(got), _NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return f"{len(got_parts) // 2} numbers, want {len(want_parts) // 2}"
    for k, (a, b) in enumerate(zip(got_parts, want_parts)):
        if k % 2 == 0:
            if a != b:
                return f"text {a!r}, want {b!r}"
        elif a != b:
            x, y = float(a), float(b)
            same_nan = math.isnan(x) and math.isnan(y)
            if not same_nan and not abs(x - y) <= ATOL + RTOL * abs(y):
                return f"number {a}, want {b}"
    return None


def test_case_list_matches_index():
    assert CASES == {name: case["argv"] for name, case in GOLDEN["cases"].items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_reproduces_golden(name, tmp_path):
    exact = host_key() == GOLDEN["host"]
    print(f"golden {name}: {'byte-for-byte' if exact else f'numeric (rtol {RTOL}, atol {ATOL})'} comparison")
    code, files = run_case(name, CASES[name], str(tmp_path))
    assert code == GOLDEN["cases"][name]["exit_code"]
    case_dir = os.path.join(GOLDEN_DIR, name)
    assert sorted(files) == sorted(os.listdir(case_dir))
    for filename, text in files.items():
        with open(os.path.join(case_dir, filename)) as fh:
            want = fh.read()
        if exact:
            assert text == want, f"{name}/{filename} differs from its golden"
        else:
            assert numeric_mismatch(text, want) is None, f"{name}/{filename}: {numeric_mismatch(text, want)}"


def test_numeric_comparison_tolerates_last_bits_only():
    want = "seed 0: f=0.125 error=5.551e-15 [ok]\n1,0.30000000000000004,nan\n"
    assert numeric_mismatch(want, want) is None
    assert numeric_mismatch("seed 0: f=0.12500000000001 error=9.9e-15 [ok]\n1,0.3,nan\n", want) is None
    assert numeric_mismatch("seed 0: f=0.126 error=5.551e-15 [ok]\n1,0.30000000000000004,nan\n", want)
    assert numeric_mismatch("seed 0: f=0.125 error=5.551e-15 [diverged]\n1,0.30000000000000004,nan\n", want)
    assert numeric_mismatch("seed 0: f=0.125 error=5.551e-15 [ok]\n1,0.30000000000000004\n", want)
