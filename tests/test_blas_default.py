"""``import repro`` defaults BLAS to one thread, before numpy can load,
and the ``fast`` kernel applies it to a BLAS that numpy loaded first.

Each case runs a fresh interpreter whose environment holds nothing but
``PYTHONPATH``, so neither the caller's BLAS settings nor numpy already
imported by the test process can mask the package's own behaviour.
"""

import glob
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: numpy's bundled OpenBLAS, as ``repro.bnn.vectorized`` finds it
OPENBLAS = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "libscipy_openblas64_*.so")

#: the variables perfbench's worker environment pins as well
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")


def run_clean(code: str, **env: str):
    """The JSON that ``code`` prints, run with only ``env`` set."""
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True,
                          timeout=60, env={"PYTHONPATH": str(SRC), **env})
    return json.loads(done.stdout)


def blas_variables_after(imports: str, **env: str) -> dict:
    return run_clean(f"import json, os\n{imports}\n"
                     f"print(json.dumps({{name: os.environ.get(name) "
                     f"for name in {BLAS_VARIABLES!r}}}))", **env)


class TestBlasThreadDefault:
    def test_unset_variables_default_to_one_thread(self):
        assert blas_variables_after("") == dict.fromkeys(BLAS_VARIABLES)
        assert blas_variables_after("import repro") == \
            dict.fromkeys(BLAS_VARIABLES, "1")

    def test_a_value_the_user_set_wins(self):
        got = blas_variables_after("import repro", OPENBLAS_NUM_THREADS="2")
        assert got == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1",
                       "MKL_NUM_THREADS": "1"}

    def test_import_loads_no_numpy(self):
        """The default only reaches BLAS if it is set before numpy
        loads, so the package and the engine lookup must not load it."""
        loaded = run_clean("import json, sys\n"
                           "import repro, repro.engine\n"
                           "print(json.dumps('numpy' in sys.modules))")
        assert loaded is False


def blas_threads_around(imports: str, **env: str):
    """OpenBLAS's thread count after ``import numpy``, then after
    ``imports``, read through its own getter."""
    return run_clean(
        "import ctypes, glob, json\n"
        "import numpy\n"
        f"get = ctypes.CDLL(glob.glob({OPENBLAS!r})[0])"
        ".scipy_openblas_get_num_threads64_\n"
        "get.argtypes, get.restype = [], ctypes.c_int\n"
        "before = get()\n"
        f"{imports}\n"
        "print(json.dumps([before, get()]))", **env)


@pytest.mark.skipif(not glob.glob(OPENBLAS),
                    reason="numpy has no bundled scipy-openblas here")
class TestBlasThreadsWithNumpyFirst:
    """numpy loaded before ``repro`` has already sized OpenBLAS's pool,
    so only the kernel's load can apply the one-thread default."""

    def test_kernel_load_sets_one_thread(self):
        before, after = blas_threads_around("import repro.bnn.vectorized")
        if before == 1:
            pytest.skip("OpenBLAS starts with one thread on this host")
        assert after == 1

    def test_a_value_the_user_set_wins(self):
        before, after = blas_threads_around("import repro.bnn.vectorized",
                                            OPENBLAS_NUM_THREADS="2")
        if before != 2:
            pytest.skip("OpenBLAS cannot start two threads on this host")
        assert after == 2


def test_a_missing_openblas_is_logged_at_debug_and_skipped(monkeypatch,
                                                           caplog):
    import logging

    import repro
    from repro.bnn import vectorized

    monkeypatch.setattr(repro, "_BLAS_DEFAULTED", ("OPENBLAS_NUM_THREADS",))
    monkeypatch.setattr(vectorized.glob, "glob", lambda pattern: [])
    monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
    with caplog.at_level(logging.DEBUG, logger="repro.bnn.vectorized"):
        vectorized._one_blas_thread()
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    assert "scipy-openblas" in record.getMessage()
