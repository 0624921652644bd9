import random

import numpy as np
import pytest

from hadshock import ElasticState, build, catalog
from hadshock.oracle import random_shock, sample_frequency


@pytest.fixture(scope="session")
def cg2():
    return catalog("ciarlet-geymonat", {"d": 2, "mu": 1.0, "kappa": 2.0})


@pytest.fixture(scope="session")
def cg2_shock(cg2):
    return build(cg2, ElasticState(np.eye(2)), -0.3)


@pytest.fixture(scope="session")
def cg2_weak_shock(cg2):
    return build(cg2, ElasticState(np.eye(2)), -8.0)


@pytest.fixture(scope="session")
def foam_shock():
    m = catalog("ogden-foam", {"d": 2, "mu": 1.0, "c1": 2.0})
    return build(m, ElasticState(np.eye(2)), -1.0)


@pytest.fixture(scope="session")
def shock_pool():
    """Random Lax fronts per dimension, shared across the suite."""
    rng = random.Random(20240811)
    return {d: [random_shock(rng, d) for _ in range(12)] for d in (2, 3, 4)}


@pytest.fixture(scope="session")
def frequency_sampler():
    def make(seed, d):
        rng = random.Random(seed)
        return lambda: sample_frequency(rng, d)

    return make
