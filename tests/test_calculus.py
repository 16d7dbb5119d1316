"""Discrete gradient/divergence, weighted inner products, TV and rTGV,
and the one sparse factorization site."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from msseg.calculus import (
    BiharmonicPrior,
    _DirectSolve,
    _factor,
    divergence,
    gradient,
    inner_U,
    inner_V,
    norm_U,
    norm_V,
    row_norms,
    tv_energy,
    vectorial_rtgv,
)
from msseg.errors import DimensionError, NumericError, ParameterError
from msseg.mesh import load_off

from _meshes import (
    RIGHT_TRIANGLE_OFF,
    TETRA_OFF,
    diagonal_pair,
    equilateral,
    random_meshes,
    random_patch,
    square_axis_pair,
)
from _reference import incidence_loops


def interior_field(mesh, rng, n=1):
    """Random edge field supported on interior edges (the range of the
    gradient, where edge fields live)."""
    p = rng.normal(size=(mesh.n_edges, n))
    p[mesh.boundary_edge] = 0.0
    return p


# -- gradient ------------------------------------------------------------


def test_gradient_of_constant_is_zero_on_closed_mesh():
    mesh = load_off(TETRA_OFF)
    u = np.full((4, 2), 3.7)
    assert np.allclose(gradient(mesh, u), 0.0, atol=1e-14)


def test_gradient_two_face_jump():
    mesh = diagonal_pair()
    a, b = 2.5, -1.0
    g = gradient(mesh, np.array([a, b]))
    interior = np.nonzero(~mesh.boundary_edge)[0]
    e = interior[0]
    ref = incidence_loops(mesh.faces)
    f0 = ref["edge_faces"][e, 0]
    s0 = ref["face_edge_signs"][f0][ref["face_edges"][f0] == e][0]
    expected = s0 * (a - b) if f0 == 0 else s0 * (b - a)
    assert g[e, 0] == pytest.approx(expected, abs=1e-15)
    assert np.allclose(g[mesh.boundary_edge], 0.0)


def test_gradient_single_triangle_all_zero():
    mesh = equilateral()
    assert np.allclose(gradient(mesh, np.array([5.0])), 0.0)


def test_boundary_annihilation_any_field():
    for mesh in random_meshes(4, seed=5, max_faces=120):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(mesh.n_faces, 3))
        g = gradient(mesh, u)
        assert np.all(g[mesh.boundary_edge] == 0.0)


def test_gradient_dimension_error():
    mesh = equilateral()
    with pytest.raises(DimensionError):
        gradient(mesh, np.zeros(5))


# -- divergence -----------------------------------------------------------


def test_divergence_zero_field():
    mesh = load_off(TETRA_OFF)
    assert np.allclose(divergence(mesh, np.zeros((6, 2))), 0.0)


def test_divergence_equilateral_hand_value():
    # p aligned with every face-edge sign: all three edges are boundary
    # edges, outside the range of the gradient, so they carry no flux
    mesh = equilateral()
    ref = incidence_loops(mesh.faces)
    p = np.zeros((3, 1))
    for s in range(3):
        p[ref["face_edges"][0, s], 0] = ref["face_edge_signs"][0, s]
    assert divergence(mesh, p)[0, 0] == 0.0


def test_divergence_unit_flux_hand_value():
    # unit flux on the unit-length interior edge (0,0)-(0,1), which face 0
    # traverses along its direction and face 1 against it; both areas are
    # 1/2, so div = -(+-1) * 1 / (1/2); the boundary values add nothing
    mesh = square_axis_pair()
    p = np.where(mesh.boundary_edge, 5.0, 1.0)
    assert np.allclose(divergence(mesh, p)[:, 0], [-2.0, 2.0],
                       rtol=0, atol=1e-15)


def test_divergence_dimension_error():
    mesh = equilateral()
    with pytest.raises(DimensionError):
        divergence(mesh, np.zeros((7, 1)))


def test_linearity_of_operators():
    mesh = random_meshes(1, seed=9, max_faces=100)[0]
    rng = np.random.default_rng(1)
    u1 = rng.normal(size=(mesh.n_faces, 2))
    u2 = rng.normal(size=(mesh.n_faces, 2))
    p1 = rng.normal(size=(mesh.n_edges, 2))
    p2 = rng.normal(size=(mesh.n_edges, 2))
    a, b = 1.3, -0.4
    assert np.allclose(
        gradient(mesh, a * u1 + b * u2),
        a * gradient(mesh, u1) + b * gradient(mesh, u2),
        atol=1e-12,
    )
    assert np.allclose(
        divergence(mesh, a * p1 + b * p2),
        a * divergence(mesh, p1) + b * divergence(mesh, p2),
        atol=1e-12,
    )


def test_adjointness_spot_case():
    rng = np.random.default_rng(42)
    for mesh in random_meshes(5, seed=3, max_faces=300):
        u = rng.normal(size=(mesh.n_faces, 2))
        # a field in the range of the gradient, and one with boundary values
        for p in (interior_field(mesh, rng, n=2),
                  rng.normal(size=(mesh.n_edges, 2))):
            lhs = inner_V(mesh, gradient(mesh, u), p)
            rhs = -inner_U(mesh, u, divergence(mesh, p))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


# -- inner products ---------------------------------------------------------


def test_inner_U_one_face():
    mesh = load_off(RIGHT_TRIANGLE_OFF)
    assert inner_U(mesh, np.array([2.0]), np.array([2.0])) == pytest.approx(2.0)


def test_inner_V_zero_field():
    mesh = load_off(TETRA_OFF)
    z = np.zeros((6, 1))
    assert inner_V(mesh, z, z) == 0.0


def test_bilinearity():
    mesh = random_meshes(1, seed=21, max_faces=60)[0]
    rng = np.random.default_rng(3)
    a = rng.normal(size=(mesh.n_faces, 2))
    b = rng.normal(size=(mesh.n_faces, 2))
    c = rng.normal(size=(mesh.n_faces, 2))
    assert inner_U(mesh, a, b + c) == pytest.approx(
        inner_U(mesh, a, b) + inner_U(mesh, a, c), abs=1e-12
    )
    pa = rng.normal(size=(mesh.n_edges, 2))
    pb = rng.normal(size=(mesh.n_edges, 2))
    pc = rng.normal(size=(mesh.n_edges, 2))
    assert inner_V(mesh, pa, pb + pc) == pytest.approx(
        inner_V(mesh, pa, pb) + inner_V(mesh, pa, pc), abs=1e-12
    )


def test_inner_product_shape_mismatch():
    mesh = load_off(TETRA_OFF)
    with pytest.raises(DimensionError):
        inner_U(mesh, np.zeros((4, 1)), np.zeros((4, 2)))


def test_norms_consistent_with_inner_products():
    mesh = load_off(TETRA_OFF)
    rng = np.random.default_rng(4)
    u = rng.normal(size=(4, 2))
    p = rng.normal(size=(6, 2))
    assert norm_U(mesh, u) == pytest.approx(np.sqrt(inner_U(mesh, u, u)))
    assert norm_V(mesh, p) == pytest.approx(np.sqrt(inner_V(mesh, p, p)))


# -- tv and rtgv -------------------------------------------------------------


def test_tv_constant_is_zero():
    mesh = load_off(TETRA_OFF)
    assert tv_energy(mesh, np.full((4, 3), 2.0)) == pytest.approx(0.0, abs=1e-13)


def test_tv_indicator_across_unit_edge():
    mesh = square_axis_pair()
    assert tv_energy(mesh, np.array([0.0, 1.0])) == pytest.approx(1.0)


def test_tv_indicator_across_diagonal_edge():
    mesh = diagonal_pair()
    assert tv_energy(mesh, np.array([0.0, 1.0])) == pytest.approx(np.sqrt(2.0))


def test_tv_one_homogeneous():
    mesh = random_meshes(1, seed=8, max_faces=60)[0]
    u = np.random.default_rng(5).normal(size=(mesh.n_faces, 2))
    assert tv_energy(mesh, 2.0 * u) == pytest.approx(
        2.0 * tv_energy(mesh, u), rel=1e-12
    )


def test_rtgv_at_v_zero_equals_tv():
    # one channel, where the row norm is the absolute value
    mesh = random_meshes(1, seed=17, max_faces=60)[0]
    u = np.random.default_rng(6).normal(size=(mesh.n_faces, 1))
    v = np.zeros((mesh.n_edges, 1))
    assert vectorial_rtgv(mesh, u, v, 2.0) == pytest.approx(
        tv_energy(mesh, u), rel=1e-12
    )


def test_rtgv_zero_fields():
    mesh = load_off(TETRA_OFF)
    assert vectorial_rtgv(mesh, np.zeros(4), np.zeros(6), 1.0) == 0.0


def test_rtgv_brute_force_oracle():
    # a closed mesh and an open one, at one channel, where the row norm is
    # the absolute value
    for mesh in (random_meshes(1, seed=30, max_faces=50)[0],
                 random_patch(20, 4)):
        rng = np.random.default_rng(7)
        u = rng.normal(size=(mesh.n_faces, 1))
        v = rng.normal(size=(mesh.n_edges, 1))
        alpha0 = 1.7
        # independent summation straight from the loop-built incidence
        # arrays; the gradient and the divergence both skip boundary edges
        ref = incidence_loops(mesh.faces)
        face_edges, signs = ref["face_edges"], ref["face_edge_signs"]
        first = 0.0
        for e in range(mesh.n_edges):
            g = np.zeros(1)
            if not mesh.boundary_edge[e]:
                for t in ref["edge_faces"][e]:
                    s = signs[t][face_edges[t] == e][0]
                    g += s * u[t]
            first += mesh.edge_lengths[e] * np.abs(g - v[e]).sum()
        second = 0.0
        for t in range(mesh.n_faces):
            d = np.zeros(1)
            for s in range(3):
                e = face_edges[t, s]
                if not mesh.boundary_edge[e]:
                    d -= signs[t, s] * mesh.edge_lengths[e] * v[e]
            d /= mesh.face_areas[t]
            second += mesh.face_areas[t] * np.abs(d).sum()
        expected = first + alpha0 * second
        assert vectorial_rtgv(mesh, u, v, alpha0) == pytest.approx(
            expected, rel=1e-10)


def test_vectorial_rtgv_takes_row_norms():
    mesh = random_patch(20, 4)
    rng = np.random.default_rng(9)
    u = rng.normal(size=(mesh.n_faces, 3))
    v = rng.normal(size=(mesh.n_edges, 3))
    alpha0 = 1.7
    first = mesh.edge_lengths @ np.sqrt(
        ((gradient(mesh, u) - v) ** 2).sum(axis=1))
    second = mesh.face_areas @ np.sqrt((divergence(mesh, v) ** 2).sum(axis=1))
    assert vectorial_rtgv(mesh, u, v, alpha0) == pytest.approx(
        first + alpha0 * second, rel=1e-12)
    with pytest.raises(ParameterError):
        vectorial_rtgv(mesh, u, v, 0.0)


def test_rtgv_nonnegative():
    mesh = random_meshes(1, seed=31, max_faces=50)[0]
    rng = np.random.default_rng(8)
    u = rng.normal(size=(mesh.n_faces, 2))
    v = rng.normal(size=(mesh.n_edges, 2))
    assert vectorial_rtgv(mesh, u, v, 0.5) >= 0.0


def test_rtgv_parameter_and_shape_errors():
    mesh = load_off(TETRA_OFF)
    with pytest.raises(ParameterError):
        vectorial_rtgv(mesh, np.zeros(4), np.zeros(6), 0.0)
    with pytest.raises(DimensionError):
        vectorial_rtgv(mesh, np.zeros((4, 2)), np.zeros((6, 1)), 1.0)


@pytest.mark.parametrize("n", range(1, 21))
def test_row_norms_match_linalg_norm(n):
    # the squares add column by column in channel order at every width and
    # layout; below 8 terms that is numpy's order too, so the norms are
    # bitwise np.linalg.norm's there, while from 8 on numpy sums pairwise
    rng = np.random.default_rng(60 + n)
    x = rng.normal(size=(2000, n))
    x[0] = 0.0
    in_order = x[:, 0] ** 2
    for j in range(1, n):
        in_order = in_order + x[:, j] ** 2
    for layout in (x, np.asfortranarray(x), np.repeat(x, 2, axis=1)[:, ::2]):
        got = row_norms(layout)
        assert np.array_equal(got, np.sqrt(in_order))
        if n < 8:
            assert np.array_equal(got, np.linalg.norm(x, axis=1))


def test_edge_lengths_are_not_broadcast_in_solver_or_calculus():
    # the length weights reach the transposed gradient through
    # mesh.grad_tl, not through an (E, K) product formed on every call
    src = Path(__file__).parents[1] / "src" / "msseg"
    for name in ("solver.py", "calculus.py"):
        assert "edge_lengths[:, None]" not in (src / name).read_text(), name


def _modules():
    """(file name, text, scope of a line) of each module of src/msseg;
    the scope is the module-level function or the ``Class.method`` the
    line is in, or None."""
    src = Path(__file__).parents[1] / "src" / "msseg"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        scopes = []
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                scopes.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                scopes += [(f"{node.name}.{fn.name}", fn) for fn in node.body
                           if isinstance(fn, ast.FunctionDef)]

        def scope(lineno, scopes=scopes):
            return next((name for name, fn in scopes
                         if fn.lineno <= lineno <= fn.end_lineno), None)

        yield path.name, text, scope


def test_singular_factor_is_a_numeric_error():
    # no run reaches this branch through an infinite beta or c, which
    # SolverParams rejects; it guards a factor singular for other reasons
    with pytest.raises(NumericError, match="^sparse factorization failed: "
                       "Factor is exactly singular$"):
        _factor(sp.csc_matrix([[1.0, 1.0], [1.0, 1.0]]))


def test_splu_is_called_only_in_factor():
    # every factor goes through calculus._factor, so none escapes its
    # SuperLU settings
    sites = [(name, scope(lineno)) for name, text, scope in _modules()
             for lineno, line in enumerate(text.splitlines(), 1)
             if "splu(" in line]
    assert sites == [("calculus.py", "_factor")]


def test_one_gate_and_a_prior_that_keeps_no_complex_matrix():
    # the backward-error bound is read (or imported) only by the gate,
    # which the solves and the eigenpair check call; the factored prior
    # keeps its factor and the mesh's S, and no matrix that nothing reads
    reads = []
    for name, text, scope in _modules():
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Name) and node.id == "_SOLVE_RTOL"
                    and isinstance(node.ctx, ast.Load)) \
                    or (isinstance(node, ast.alias)
                        and node.name == "_SOLVE_RTOL"):
                reads.append((name, scope(node.lineno)))
    assert reads and set(reads) == {("calculus.py", "_gate")}
    assert not issubclass(BiharmonicPrior, _DirectSolve)
    mesh = random_patch(200, 5)
    prior = BiharmonicPrior(mesh, 0.5, 3.0)
    assert hasattr(prior, "_lu")
    for attr, value in vars(prior).items():
        assert not np.iscomplexobj(value), attr
        assert not sp.issparse(value) or value is mesh.S, attr


def test_S_is_formed_only_by_the_mesh_and_laplace_is_gone():
    # the u, v and b systems and the smooth prior read the mesh's frozen
    # S = grad_tl @ grad; no other module weights grad by the lengths to
    # form it again, and the face Laplacian is applied only by the prior
    src = Path(__file__).parents[1] / "src" / "msseg"
    forms = re.compile(r"diags\((mesh\.|self\.)?edge_lengths\)"
                       r"|grad_tl\s*@\s*(mesh\.|self\.)?grad\b")
    sites = [path.name for path in sorted(src.glob("*.py"))
             if forms.search(path.read_text())]
    assert sites == ["mesh.py"]
    assert not [path.name for path in sorted(src.glob("*.py"))
                if "laplace(" in path.read_text()]
