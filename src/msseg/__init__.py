"""Piecewise-smooth Mumford-Shah segmentation of triangle meshes."""

__version__ = "0.1.0"

from .calculus import (
    divergence,
    gradient,
    inner_U,
    inner_V,
    tv_energy,
    vectorial_rtgv,
)
from .evaluation import parse_seg, rand_index_dissimilarity
from .features import FeatureField, build_laplacian, feature_field
from .mesh import TriMesh, load_mesh, load_mesh_file, smoothed_normals
from .solver import SegmentationResult, SolverParams, SolverState, segment

__all__ = [
    "TriMesh", "load_mesh", "load_mesh_file", "smoothed_normals",
    "gradient", "divergence", "inner_U", "inner_V", "tv_energy",
    "vectorial_rtgv",
    "build_laplacian", "feature_field", "FeatureField",
    "SolverParams", "SolverState", "SegmentationResult", "segment",
    "parse_seg", "rand_index_dissimilarity",
]
