import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from procmat.operators import CANONICAL_LABELS, HermitianOperator


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def random_hermitian(rng, side, labels=None):
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    mat = (g + g.conj().T) / 2
    if labels is None:
        labels = CANONICAL_LABELS
    return HermitianOperator(labels, mat)


@pytest.fixture
def random_canonical(rng):
    def make():
        return random_hermitian(rng, 16)

    return make


@pytest.fixture
def recording_pool(monkeypatch):
    """Puts an in-process stand-in for ``ProcessPoolExecutor`` into
    ``concurrent.futures`` and returns the list of ``max_workers`` values it
    was built with, so a pool's size can be checked without starting it."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes
