import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import mmtrace as mt


@pytest.fixture(scope="session")
def grid1d_11():
    coords = np.linspace(0, 1, 11).reshape(-1, 1)
    return mt.FiniteMetricMeasureSpace(weights=np.full(11, 1 / 11), coords=coords, resolution=0.1)


@pytest.fixture(scope="session")
def simple_instance_16():
    space, pw = mt.generate(mt.simple_case_spec(1 / 16), verify=False)
    seq = mt.build_measure_sequence(space, pw, 2.0, p=2.5)
    return space, pw, seq


@pytest.fixture(scope="session")
def difficult_instance_16():
    space, pw = mt.generate(mt.difficult_case_spec(1 / 16), verify=False)
    seq = mt.build_measure_sequence(space, pw, 1.0, p=2.5)
    return space, pw, seq


def build_tiny_instance(seed):
    """<= 10 S-points on a 9-point 1-d grid, two pieces, 3 scales."""
    rng = np.random.default_rng(seed)
    n = 9
    coords = np.linspace(0, 1, n).reshape(-1, 1)
    space = mt.FiniteMetricMeasureSpace(
        weights=rng.uniform(0.8, 1.2, n) / n, coords=coords, resolution=1 / 8
    )
    ids = rng.permutation(n)
    na = int(rng.integers(2, 5))
    nb = int(rng.integers(2, 5))
    ids_a = np.sort(ids[:na])
    ids_b = np.sort(ids[na : na + nb])
    pa = mt.SubsetPiece(ids=ids_a, theta=0.5, weights=rng.uniform(0.5, 1.5, na) / 8)
    pb = mt.SubsetPiece(ids=ids_b, theta=1.5, weights=rng.uniform(0.5, 1.5, nb) / 8)
    pw = mt.compose_piecewise([pa, pb])
    f = rng.uniform(-1.0, 1.0, n)
    return space, pw, f


@pytest.fixture()
def tiny_instance():
    return build_tiny_instance(0)


def trees_built(call):
    """call()'s result and the sizes of the KD trees built during it,
    counted at ``mmtrace.space._kd_tree`` and at its import in
    ``mmtrace._neighbors``."""
    from unittest import mock

    from mmtrace import _neighbors as nb
    from mmtrace import space as msp

    sizes, build = [], msp._kd_tree

    def counted(points, **kwargs):
        sizes.append(len(points))
        return build(points, **kwargs)

    with mock.patch.object(msp, "_kd_tree", counted), mock.patch.object(nb, "_kd_tree", counted):
        return call(), sizes
