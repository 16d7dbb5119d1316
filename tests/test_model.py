"""The model claim on a synthetic signal: a piecewise-smooth model splits a
field that is a step plus a smooth ramp along the step, where the
piecewise-constant baseline splits it along the ramp.

The signal lives on a regular grid of the unit square (7,200 faces) and
is fed to ``segment`` directly as a K=2 feature field, with auto alpha and
seed 0; the score is the Rand-index dissimilarity (%) against the step.

The claim end to end, on a shape with parts: a mitered elbow, whose every
cut around the tube is equally short and only the crease marks the two
arms, run from its spectral features with K=2, default parameters and
seed 0, and scored against the arms.
"""

import numpy as np
import pytest

from msseg.evaluation import rand_index_dissimilarity
from msseg.features import feature_field
from msseg.mesh import TriMesh
from msseg.solver import MODES, SolverParams, segment

from _meshes import elbow, flat_patch


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


def test_gpsms_runs_with_a_heavy_smoothness_weight(grid):
    # at beta_ratio 1e4 a b solve of the 16th outer iteration has a
    # residual of 1.7e-8 |rhs| but a backward error of 1e-16, so a gate
    # relative to 1 + |rhs| stops this run with NumericError
    mesh, x, y = grid
    step = (x > 0.5).astype(int)
    noise = np.random.default_rng(0).normal(size=mesh.n_faces)
    f = (step + 2.0 * y + 0.05 * noise)[:, None]
    params = SolverParams(k=2, mode="gpsms", beta_ratio=1e4, max_outer=20)
    result = segment(mesh, f, params)
    assert len(result.error_trace) == 20
    assert np.isfinite(result.state.b).all()
    assert result.labels.shape == step.shape


def _wavy(x, y):
    return (y > 0.5 + 0.1 * np.sin(6 * np.pi * x)).astype(int)


def test_only_the_smooth_modes_split_a_wavy_step_on_a_ramp(grid):
    mesh, x, y = grid
    wavy = _wavy(x, y)
    scores = _scores(mesh, wavy, wavy + 2.0 * x, 0.3)
    assert scores["pcms"] >= 30.0, scores
    assert scores["psms"] <= 1.0 and scores["gpsms"] <= 1.0, scores


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="estimate_alpha picks a data weight too large on a "
                   "noisy step: at it psms and gpsms score about 47 and pcms "
                   "25, at a tenth of it pcms and psms score below 1")
def test_smooth_modes_are_no_worse_than_pcms_on_a_noisy_step(grid):
    mesh, x, y = grid
    wavy = _wavy(x, y)
    scores = _scores(mesh, wavy, wavy, 0.6)
    assert max(scores["psms"], scores["gpsms"]) <= scores["pcms"], scores


# -- the mitered elbow ------------------------------------------------------


@pytest.mark.parametrize("theta, L1, L2", [(90, 3, 3), (60, 2, 5)])
def test_a_capped_elbow_is_one_closed_outward_piece_split_at_the_miter(
        theta, L1, L2):
    mesh, truth = elbow(theta, L1, L2, caps=True)
    assert not mesh.boundary_edge.any()
    assert not mesh.components.any()
    corners = mesh.vertices[mesh.faces]
    volume = np.einsum("ij,ij->", corners[:, 0],
                       np.cross(corners[:, 1], corners[:, 2])) / 6
    # two tubes of radius 1, a little less as polygons
    assert 0.99 * np.pi * (L1 + L2) < volume < np.pi * (L1 + L2)
    half = np.radians(theta) / 2
    miter = np.array([np.sin(half), 0.0, np.cos(half)])
    assert np.array_equal(truth, corners.mean(axis=1) @ miter > 0)
    open_mesh, open_truth = elbow(theta, L1, L2)
    assert mesh.n_faces == open_mesh.n_faces + 80
    assert np.array_equal(truth[40:-40], open_truth)


def _elbow_score(mode, theta, L1, L2, caps):
    mesh, truth = elbow(theta, L1, L2, caps=caps)
    f = feature_field(mesh, 2).values
    labels = segment(mesh, f, SolverParams(k=2, mode=mode)).labels
    return rand_index_dissimilarity(labels, truth)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item "
                   "3: the normal weights underflow across the crease (the "
                   "caps too), so the K=2 channel parts a few faces or one "
                   "end from the rest; pcms scores about 50")
@pytest.mark.parametrize("caps", [False, True])
def test_pcms_splits_a_symmetric_elbow_at_its_crease(caps):
    assert _elbow_score("pcms", 90, 3, 3, caps) <= 1.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items "
                   "6 and 7: on an asymmetric elbow the feature ramps along "
                   "the tube and jumps at the crease, and gpsms, which "
                   "should put the ramp into b and cut at the jump, does no "
                   "better than pcms; every mode scores 41")
def test_gpsms_splits_an_asymmetric_elbow_at_its_crease():
    scores = {mode: _elbow_score(mode, 90, 2, 5, False)
              for mode in ("pcms", "gpsms")}
    assert scores["gpsms"] <= 5.0, scores
    assert scores["gpsms"] <= scores["pcms"] - 5.0, scores
