"""Inputs that overflow a float, or break the entry contract of a solver
step, raise a typed ``MeshSegError`` subclass: never numpy's or SuperLU's
bare error, and never a mesh or operator built on non-finite numbers."""

import numpy as np
import pytest

from msseg import errors
from msseg.calculus import vectorial_rtgv
from msseg.cli import main
from msseg.features import feature_field
from msseg.mesh import TriMesh
from msseg.solver import SolverParams, segment

from _meshes import random_patch, write_off


@pytest.fixture(scope="module")
def patch():
    mesh = random_patch(200, 5)
    return mesh, feature_field(mesh, 3).values


def _scaled(scale):
    return lambda mesh, f, tmp_path, capsys: TriMesh(scale * mesh.vertices,
                                                      mesh.faces)


def _segment(factor=1.0, shape=None, **params):
    def run(mesh, f, tmp_path, capsys):
        f = factor * f if shape is None else f.reshape(shape(f))
        segment(mesh, f, SolverParams(k=3, **params))
    return run


def _cli(mesh, f, tmp_path, capsys):
    # the one line README promises, turned back into its error
    write_off(mesh, tmp_path / "p.off")
    code = main(["--mesh", str(tmp_path / "p.off"), "--k", "3",
                 "--alpha", "1e308", "--beta-ratio", "10",
                 "--out", str(tmp_path / "out")])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1 and len(lines) == 1
    head, kind, message = lines[0].split("\t")
    assert head == "error"
    raise getattr(errors, kind)(message)


def _nan_alpha0(mesh, f, tmp_path, capsys):
    u = np.zeros((mesh.n_faces, 3))
    vectorial_rtgv(mesh, u, np.zeros((mesh.n_edges, 3)), float("nan"))


NON_FINITE_FACE = "^face 0 has a non-finite area or edge length$"
BETA_INF = "^beta must be positive and finite, got inf$"


@pytest.mark.parametrize("call, error, message", [
    # inf areas; at x1e155 the overflow read as "zero area"; NaN areas
    pytest.param(_scaled(1e150), errors.DegenerateGeometryError,
                 NON_FINITE_FACE, id="mesh-x1e150"),
    pytest.param(_scaled(1e155), errors.DegenerateGeometryError,
                 NON_FINITE_FACE, id="mesh-x1e155"),
    pytest.param(_scaled(1e200), errors.DegenerateGeometryError,
                 NON_FINITE_FACE, id="mesh-x1e200"),
    # beta = beta_ratio * alpha and c = eta + alpha overflow to inf, and
    # SolverParams rejects them before any operator is built from them
    pytest.param(_segment(alpha=1e308, beta_ratio=10), errors.ParameterError,
                 BETA_INF, id="beta-inf"),
    pytest.param(_segment(alpha=1e308, eta=1e308), errors.ParameterError,
                 "^c must be positive and finite, got inf$", id="c-inf"),
    pytest.param(_cli, errors.ParameterError, BETA_INF, id="cli-beta-inf"),
    # the squared distances of k-means++ overflow
    pytest.param(_segment(factor=1e200), errors.InitializationError,
                 "^k-means\\+\\+ scores sum to inf$", id="features-x1e200"),
    pytest.param(_segment(shape=lambda f: f.shape + (1,)),
                 errors.DimensionError,
                 "^feature field must be \\(T, k-1\\), got \\(386, 2, 1\\)$",
                 id="features-3d"),
    pytest.param(_nan_alpha0, errors.ParameterError,
                 "^alpha0 must be positive, got nan$", id="nan-alpha0"),
])
def test_overflow_and_bad_entries_raise_typed_errors(patch, tmp_path, capsys,
                                                     call, error, message):
    mesh, f = patch
    with pytest.raises(error, match=message):
        call(mesh, f, tmp_path, capsys)
