import sys

import numpy as np
import pytest


@pytest.fixture
def bundled_openblas():
    """Skip the test unless numpy bundles scipy-openblas on Linux, where
    ``spectral._openblas`` must find it."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if not (blas.get("name") == "scipy-openblas" and sys.platform.startswith("linux")):
        pytest.skip("numpy does not bundle scipy-openblas here")
