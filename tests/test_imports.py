"""scipy stays unloaded on the routes that need none of it.

Every ring level is solved by the package's numpy Lanczos or taken from
the Bethe ansatz in numpy, at any N, and every block up to ``dynamics.DENSE_CUTOFF`` states is propagated with
numpy alone; scipy is imported only for the Krylov propagation route
above that cutoff and for the ``expm`` oracle of ``verify``. Each case
runs in a fresh interpreter and reads ``sys.modules`` at its exit.
"""

import os
import subprocess
import sys

import pytest

import heisenberg_star

SRC = os.path.dirname(os.path.dirname(os.path.abspath(heisenberg_star.__file__)))

# runs the CLI on its arguments, then prints the scipy modules it loaded
PROBE = """
import sys
from heisenberg_star import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
sys.exit(code)
"""


def scipy_modules(args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", PROBE, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.splitlines()[-1]
    return line.split(",") if line else []


@pytest.mark.parametrize("code", ["import heisenberg_star", "import heisenberg_star.cli"])
def test_importing_the_package_loads_no_scipy(code):
    env = dict(os.environ, PYTHONPATH=SRC)
    check = (f"{code}\nimport sys\n"
             "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']")
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_importing_the_cli_loads_neither_verify_nor_a_thread_pool():
    # verify and concurrent.futures are imported by the code that runs them
    env = dict(os.environ, PYTHONPATH=SRC)
    check = ("import sys\nimport heisenberg_star.cli\n"
             "loaded = [m for m in sys.modules if m == 'heisenberg_star.verify'"
             " or m.split('.')[0] == 'concurrent']\n"
             "assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-c", check], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("args", [
    ["coherent", "--n", "14", "--jp", "0.8", "--with-l2", "--samples", "21"],
    ["level-table", "--n", "16"],
    ["ground-scan", "--n", "12", "--two-s", "3"],
    ["subground", "--n", "16", "--two-s", "3", "--two-l", "6"],
    # ring levels on orbit blocks of up to 1282 states (l = 1)
    ["level-table", "--n", "18"],
    ["ground-scan", "--n", "18", "--two-s", "3"],
    ["subground", "--n", "18", "--two-s", "2", "--two-l", "0"],
    # Bethe ring levels beyond the reach of exact diagonalization
    ["ground-scan", "--n", "64", "--two-s", "7"],
], ids=["coherent", "level-table", "ground-scan", "subground",
        "level-table-18", "ground-scan-18", "subground-18", "ground-scan-64"])
def test_dense_routes_load_no_scipy(args, tmp_path):
    assert scipy_modules([*args, "--threads", "1", "--out", "out.csv"], tmp_path) == []


@pytest.mark.parametrize("args", [
    # one Krylov block of 2421 sublattice orbits
    ["neel", "--n", "16", "--two-s", "3", "--samples", "21"],
], ids=["neel-krylov"])
def test_routes_above_the_cutoff_import_scipy_sparse(args, tmp_path):
    assert "scipy.sparse" in scipy_modules([*args, "--threads", "1", "--out", "out.csv"],
                                           tmp_path)
