import numpy as np
import pytest

from knnrobust import Dataset, Query

from helpers import CORPUS_SEED, CORPUS_SIZE, random_grid_dataset


@pytest.fixture(scope="session")
def corpus():
    """The acceptance corpus: seeded small integer-grid datasets with a query."""
    rng = np.random.default_rng(CORPUS_SEED)
    return [random_grid_dataset(rng) for _ in range(CORPUS_SIZE)]


@pytest.fixture
def fix_a():
    """d=1: x1=(-1) label 1, x2=(3) label 2; query z=(0), true label 1."""
    ds = Dataset(np.array([[-1.0], [3.0]]), np.array([1, 2]))
    return ds, Query(np.array([0.0]), 1)


@pytest.fixture
def fix_b():
    """d=2: x1=(1,1) label 1, x2=(2,0) label 2; query z=(0,0), true label 1."""
    ds = Dataset(np.array([[1.0, 1.0], [2.0, 0.0]]), np.array([1, 2]))
    return ds, Query(np.array([0.0, 0.0]), 1)


@pytest.fixture
def fix_c():
    """d=1: p1,p2 label 1 at -0.5,-1; q1,q2,q3 label 2 at 2,3,4; z=0."""
    ds = Dataset(
        np.array([[-0.5], [-1.0], [2.0], [3.0], [4.0]]),
        np.array([1, 1, 2, 2, 2]),
    )
    return ds, Query(np.array([0.0]), 1)
