import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).parent

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(HERE))

# Python subprocesses started by the tests import resokit from this
# checkout's src, as the test process itself does.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture()
def unconverged_eigvals(monkeypatch):
    """numpy's LAPACK eigenvalue kernel, patched to return as it does when
    dgeev does not converge: a NaN eigenvalue, with the invalid flag raised."""
    import numpy as np
    from numpy.linalg import _umath_linalg

    kernel = _umath_linalg.eigvals

    def eigvals(mat, signature):
        w = kernel(mat, signature=signature)
        w[-1] = np.sqrt(-1.0)
        return w

    monkeypatch.setattr(_umath_linalg, "eigvals", eigvals)
