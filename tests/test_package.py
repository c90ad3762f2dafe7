import pytest

import hyperflow
from hyperflow.autodiff import BLAS_PINNED

from conftest import run_python

# Prints the thread count of numpy's bundled OpenBLAS after importing hyperflow.
_BLAS_THREADS_AFTER_IMPORT = """
import ctypes, glob, os
import numpy as np
import hyperflow
libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
lib = sorted(glob.glob(os.path.join(libs, "libscipy_openblas*")))[0]
print(ctypes.CDLL(lib).scipy_openblas_get_num_threads64_())
"""


def test_every_exported_name_resolves():
    missing = [name for name in hyperflow.__all__ if not hasattr(hyperflow, name)]
    assert missing == []


@pytest.mark.skipif(not BLAS_PINNED, reason="numpy's bundled OpenBLAS is not loadable")
def test_import_holds_openblas_to_one_thread():
    # A fresh interpreter, so that OpenBLAS starts from the environment's count.
    out = run_python("-c", _BLAS_THREADS_AFTER_IMPORT, env={"OPENBLAS_NUM_THREADS": "2"},
                     check=True, timeout=60)
    assert out.stdout.split() == ["1"]
