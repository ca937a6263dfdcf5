"""``import repro`` defaults BLAS to one thread, before numpy can load.

Each case runs a fresh interpreter whose environment holds nothing but
``PYTHONPATH``, so neither the caller's BLAS settings nor numpy already
imported by the test process can mask the package's own behaviour.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
