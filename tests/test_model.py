"""The model claim on a synthetic signal: a piecewise-smooth model splits a
field that is a step plus a smooth ramp along the step, where the
piecewise-constant baseline splits it along the ramp.

The signal lives on a regular grid of the unit square (7,200 faces) and
is fed to ``segment`` directly as a K=2 feature field, with auto alpha and
seed 0; the score is the Rand-index dissimilarity (%) against the step.
"""

import numpy as np
import pytest

from msseg.evaluation import rand_index_dissimilarity
from msseg.mesh import TriMesh
from msseg.solver import MODES, SolverParams, segment

from _meshes import flat_patch


@pytest.fixture(scope="module")
def grid():
    patch = flat_patch(60)
    mesh = TriMesh(patch.vertices / 60.0, patch.faces)
    x, y, _ = mesh.vertices[mesh.faces].mean(axis=1).T
    return mesh, x, y


def _scores(mesh, truth, signal, sigma):
    noise = np.random.default_rng(0).normal(size=mesh.n_faces)
    f = (signal + sigma * noise)[:, None]
    return {mode: rand_index_dissimilarity(
                segment(mesh, f, SolverParams(k=2, mode=mode)).labels, truth)
            for mode in MODES}


@pytest.mark.parametrize("ramp", [0.0, 1.0])
def test_every_mode_splits_a_step_on_a_gentle_ramp(grid, ramp):
    mesh, x, y = grid
    step = (x > 0.5).astype(int)
    scores = _scores(mesh, step, step + ramp * y, 0.05)
    assert max(scores.values()) <= 1.0, scores


def test_only_the_smooth_modes_split_a_step_on_a_steep_ramp(grid):
    mesh, x, y = grid
    step = (x > 0.5).astype(int)
    scores = _scores(mesh, step, step + 2.0 * y, 0.05)
    assert scores["pcms"] >= 30.0, scores
    assert scores["psms"] <= 1.0 and scores["gpsms"] <= 1.0, scores


def _wavy(x, y):
    return (y > 0.5 + 0.1 * np.sin(6 * np.pi * x)).astype(int)


def test_only_the_smooth_modes_split_a_wavy_step_on_a_ramp(grid):
    mesh, x, y = grid
    wavy = _wavy(x, y)
    scores = _scores(mesh, wavy, wavy + 2.0 * x, 0.3)
    assert scores["pcms"] >= 30.0, scores
    assert scores["psms"] <= 1.0 and scores["gpsms"] <= 1.0, scores


@pytest.mark.xfail(strict=True, reason="estimate_alpha picks a data weight "
                   "too large on a noisy step: at it psms and gpsms score "
                   "about 47 and pcms 25, at a tenth of it pcms and psms "
                   "score below 1")
def test_smooth_modes_are_no_worse_than_pcms_on_a_noisy_step(grid):
    mesh, x, y = grid
    wavy = _wavy(x, y)
    scores = _scores(mesh, wavy, wavy, 0.6)
    assert max(scores["psms"], scores["gpsms"]) <= scores["pcms"], scores
