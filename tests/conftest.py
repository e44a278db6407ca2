"""Shared fixtures.

Two Monte Carlo batches are expensive enough that suites share them:
a structured batch at n=64 (1e5 paths, canonical horizon, correlation
functional recorded) and a dense equicorrelated batch at dimension 4
(1e5 stored paths).  Both use fixed seeds so every consuming test is
deterministic.
"""

import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

import forrlab.boolean_fourier as bf
import forrlab.diffusion as diff

STRUCTURED_N = 64
DENSE_DIM = 4
DENSE_GAMMA = 0.2
BATCH_SAMPLES = 100_000
STRUCTURED_SEED = 20260815
DENSE_SEED = 31415926

# wall seconds spent building each shared batch, for runtime budget checks
BATCH_BUILD_SECONDS = {}


@pytest.fixture(scope="session")
def structured_cov():
    return diff.build_sigma(STRUCTURED_N)


@pytest.fixture(scope="session")
def structured_config():
    return diff.default_sampler_config(2 * STRUCTURED_N, seed=STRUCTURED_SEED)


@pytest.fixture(scope="session")
def structured_batch(structured_cov, structured_config):
    """1e5 structured paths at n=64 with stored endpoints and functional."""
    started = time.perf_counter()
    batch = diff.sample_stopped_paths(
        structured_cov, structured_config, BATCH_SAMPLES, store_paths=True, want_phi=True
    )
    BATCH_BUILD_SECONDS["structured"] = time.perf_counter() - started
    return batch


@pytest.fixture(scope="session")
def dense_cov():
    return diff.equicorrelated_covariance(DENSE_DIM, DENSE_GAMMA)


@pytest.fixture(scope="session")
def dense_config():
    return diff.default_sampler_config(DENSE_DIM, seed=DENSE_SEED)


@pytest.fixture(scope="session")
def dense_batch(dense_cov, dense_config):
    """1e5 dense equicorrelated paths at dimension 4 with stored endpoints."""
    started = time.perf_counter()
    batch = diff.sample_stopped_paths(dense_cov, dense_config, BATCH_SAMPLES, store_paths=True)
    BATCH_BUILD_SECONDS["dense"] = time.perf_counter() - started
    return batch


def expanded_enumeration(dist):
    """The restrictions of ``dist`` as ``restricted_mean`` expands them.

    Returns the ``(3^N, N)`` int8 value array and the probability vector, in
    the expansion's row order.  Expanding the table of x_i through every
    variable leaves x_i's value in each row's constant entry (0 where x_i
    stays free), and the probabilities come with the last expansion.
    """
    n = dist.n_vars
    probs = np.stack([dist.p_plus, dist.p_minus, dist.p_star], axis=1)
    columns = []
    for i in range(n):
        c, p = np.zeros((1, 2**n)), np.ones(1)
        c[0, 1 << i] = 1.0
        for j in range(n):
            c, p = bf._expand(c, p, probs[j], j)
        columns.append(c[:, 0])
    return np.stack(columns, axis=1).astype(np.int8), p
