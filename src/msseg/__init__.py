"""Piecewise-smooth Mumford-Shah segmentation of triangle meshes."""

__version__ = "0.1.0"

_EXPORTS = {
    "TriMesh": "mesh",
    "load_mesh": "mesh",
    "load_mesh_file": "mesh",
    "smoothed_normals": "mesh",
    "gradient": "calculus",
    "divergence": "calculus",
    "inner_U": "calculus",
    "inner_V": "calculus",
    "tv_energy": "calculus",
    "vectorial_rtgv": "calculus",
    "build_laplacian": "features",
    "feature_field": "features",
    "FeatureField": "features",
    "SolverParams": "solver",
    "SolverState": "solver",
    "SegmentationResult": "solver",
    "segment": "solver",
    "parse_seg": "evaluation",
    "rand_index_dissimilarity": "evaluation",
}


def __getattr__(name):
    # lazy re-exports keep `import msseg` light for the CLI entry point
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(list(globals()) + list(_EXPORTS))
