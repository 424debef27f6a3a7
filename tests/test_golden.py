"""Byte identity of ``sample`` output, and the array path walker.

The digests below are the sha256 of ``sample`` and ``sample --paths``
CSVs written by the step-by-step walker and the per-row ``%.17g`` writer
that the array code replaced.  The bytes depend on numpy's Philox stream
and on its uniform and multinomial samplers, so the digests hold only for
the numpy version they were recorded with (2.4.6).
"""

import hashlib

import numpy as np
import pytest

from hexwalk import StepProbabilities, cli, montecarlo, sample_endpoint
from hexwalk.lattice import step_vectors

DECIMAL = ["--q0", "0.3,0.3,0.4", "--q1", "0.5,0.3,0.2"]
EDGE = str(montecarlo.CHUNK + 3)

# name -> (flags, sha256 of the CSV)
ENDPOINTS = {
    "zero-steps": (
        ["--uniform", "--n", "0", "--replicas", "4", "--seed", "1"],
        "2ed31220f8f35e8ed6a923698432865461c239196657b7d6eb472cd1fff64004",
    ),
    "uniform-odd-block-edge": (
        ["--uniform", "--n", "7", "--replicas", EDGE, "--seed", "5"],
        "9d4a51732a1212e2e95a60d9e5d088f23178f0b06379847f684bd064663874ba",
    ),
    "uniform-a1.7": (
        ["--uniform", "--a", "1.7", "--n", "1000", "--replicas", "3000", "--seed", "2"],
        "7974fa4fd643db005fb5e61234a4615a223015273bbbf2a269394fa73abdcdc8",
    ),
    "decimal": (
        DECIMAL + ["--n", "1000", "--replicas", "3000", "--seed", "3"],
        "ce42834970460dfa1a6f8e5c183c0e253d06b7dd1647e9c15423705826f6edce",
    ),
    "decimal-a1.7-odd-block-edge": (
        DECIMAL + ["--a", "1.7", "--n", "1001", "--replicas", EDGE, "--seed", "3"],
        "2773791848272a7fab05fa891ae4f3cf871bb9fa46dea450952fcb77b254aafb",
    ),
}
PATHS = {
    "zero-steps": (
        ["--uniform", "--n", "0", "--replicas", "3", "--seed", "1"],
        "f4ed7096712c717bb141a49e5e33d242cd4060bbf356f667fd0327a7adbd4ad3",
    ),
    "uniform-a1.7-odd": (
        ["--uniform", "--a", "1.7", "--n", "101", "--replicas", "5", "--seed", "9"],
        "ddfea7948f3c691c2c128e23891f397b978aed1ec559f2843d6760c20391be4a",
    ),
    "decimal": (
        DECIMAL + ["--n", "1000", "--replicas", "3", "--seed", "4"],
        "7a7220942bdf1ae321c3888dba4ddbd2460197873fc3e00671cdc9f9f17cfc71",
    ),
    # n + 1 = CHUNK + 3 rows per path, so each path spans two write blocks.
    "decimal-a1.7-block-edge": (
        DECIMAL + ["--a", "1.7", "--n", str(montecarlo.CHUNK + 2), "--replicas", "2", "--seed", "3"],
        "87b4621e39fe2a94bba05868f7742c15588fb1bd0f5553a3711d74b04065b4a3",
    ),
}


def _digest(flags, tmp_path):
    out = tmp_path / "sample.csv"
    assert cli.main(["sample", *flags, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ENDPOINTS))
def test_endpoint_bytes(name, tmp_path):
    flags, expected = ENDPOINTS[name]
    assert _digest(flags, tmp_path) == expected


@pytest.mark.parametrize("name", sorted(PATHS))
def test_path_bytes(name, tmp_path):
    flags, expected = PATHS[name]
    assert _digest(flags + ["--paths"], tmp_path) == expected


def _scalar_walk(n, q, seed, replica):
    """One draw and one class lookup per step, positions added one at a time."""
    gen = montecarlo._chunk_generator(seed, replica)
    steps = step_vectors(q.a)
    x = y = 0.0
    path = [(x, y)]
    for s in range(n):
        i = s % 2
        cumulative = np.cumsum(montecarlo._row_pvals(q, i))
        r = min(int(np.searchsorted(cumulative, gen.random(), side="right")), 2)
        x += steps[i][r][0]
        y += steps[i][r][1]
        path.append((x, y))
    return np.array(path)


@pytest.mark.parametrize(
    "q",
    [
        StepProbabilities.uniform(a=1.7),
        StepProbabilities((0.3, 0.3, 0.4), (0.5, 0.3, 0.2)),
        StepProbabilities((0.5, 0.5, 0.0), (0.0, 0.2, 0.8), a=0.3),
    ],
)
@pytest.mark.parametrize("n", [0, 1, 257])
def test_array_walker_matches_scalar_walker(q, n):
    for replica in (0, 3):
        sample = sample_endpoint(n, q, 11, with_path=True, replica=replica)
        expected = _scalar_walk(n, q, 11, replica)
        assert sample.path.dtype == np.float64
        assert sample.path.shape == (n + 1, 2)
        assert np.array_equal(sample.path.view(np.int64), expected.view(np.int64))
        assert (sample.endpoint.x, sample.endpoint.y) == tuple(expected[-1])
        assert not sample.path.flags.writeable
