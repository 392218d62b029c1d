"""Importing pistonflow loads LAPACK dgtsv, not the scipy.linalg package.

Each check runs in a fresh interpreter, so no module another test imported
can make it pass.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pistonflow

SRC = str(Path(pistonflow.__file__).parents[1])


def run_fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )


def test_cli_import_loads_no_scipy_linalg_package():
    proc = run_fresh("""
        import sys
        import pistonflow.cli
        print(sorted(name for name in sys.modules if name.startswith("scipy")))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['scipy.linalg._flapack']"


@pytest.mark.parametrize("first,second", [
    ("pistonflow.solver", "scipy.linalg.lapack"),
    ("scipy.linalg.lapack", "pistonflow.solver"),
])
def test_dgtsv_is_scipy_linalg_lapack_dgtsv(first, second):
    # the same function object, so every solve is bit-identical to scipy's
    proc = run_fresh(f"""
        import {first}, {second}
        import pistonflow.solver, scipy.linalg.lapack
        assert pistonflow.solver.dgtsv is scipy.linalg.lapack.dgtsv
    """)
    assert proc.returncode == 0, proc.stderr


def test_missing_extension_is_one_import_error_naming_the_directory():
    proc = run_fresh("""
        import importlib.machinery
        import importlib.util
        import os
        importlib.machinery.EXTENSION_SUFFIXES = []
        directory = os.path.join(
            importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
        try:
            import pistonflow.solver
        except ImportError as exc:
            assert str(exc) == f"LAPACK extension _flapack not found in {directory}"
        else:
            raise AssertionError("pistonflow.solver imported without _flapack")
    """)
    assert proc.returncode == 0, proc.stderr
