"""The package's public names: every export resolves, the README lists
exactly the exports, every `module.name` the README cites resolves, and
so does every span the benchmark's tracer books to a metric.  A run's
records hold each value once, under one name."""

import ast
import importlib
import inspect
import re
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

import msseg
from msseg import calculus, cli, evaluation, features, mesh, solver
from msseg.solver import SegmentationResult, SolverParams, Systems

from _meshes import TETRA_OFF, random_closed

README = Path(__file__).parents[1] / "README.md"
TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_exports_resolve_and_are_listed():
    for name in msseg.__all__:
        assert getattr(msseg, name) is not None, name
        assert name in dir(msseg), name


def test_readme_public_api_names_exactly_the_exports():
    readme = README.read_text()
    paragraph = readme.split("Public API:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(msseg.__all__)


def test_readme_code_references_resolve():
    # a backticked `module.name` in the README names an attribute of that
    # module or class, or of a built TriMesh or Systems
    tetra = mesh.load_off(TETRA_OFF)
    systems = Systems(tetra, SolverParams(k=2, mode="gpsms", alpha=1.0))
    owners = {"calculus": [calculus], "solver": [solver],
              "features": [features], "cli": [cli],
              "evaluation": [evaluation], "Systems": [Systems, systems],
              "mesh": [mesh, tetra]}
    refs = set(re.findall(r"`(%s)\.(\w+)" % "|".join(owners),
                          README.read_text()))
    assert refs
    missing = [f"{owner}.{name}" for owner, name in sorted(refs)
               if not any(hasattr(o, name) for o in owners[owner])]
    assert not missing


def test_benchmark_span_names_are_public_callables():
    # perfbench/tracing.py wraps the public functions and classes of each
    # module and books a span to a per-layer metric by name; a name that
    # no longer resolves would read 0 s there.  The tables are read from
    # the source, so the benchmark's file is neither run nor changed.
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if getattr(target, "id", None) in ("SPAN_METRIC",
                                                   "STAGE_METRIC"):
                    tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPAN_METRIC", "STAGE_METRIC"}
    names = set(tables["SPAN_METRIC"]) | set(tables["STAGE_METRIC"])
    assert names
    for name in sorted(names):
        mod_name, attr = name.split(".")
        module = importlib.import_module(f"msseg.{mod_name}")
        obj = getattr(module, attr, None)
        assert not attr.startswith("_"), name
        assert inspect.isfunction(obj) or inspect.isclass(obj), name
        assert obj.__module__ == module.__name__, name


def test_records_have_exactly_the_kept_fields():
    assert {f.name for f in fields(features.FeatureField)} == {
        "values", "eigenvalues"}
    assert {f.name for f in fields(SegmentationResult)} == {
        "labels", "error_trace", "energy_trace", "kkt", "seconds",
        "converged", "alpha", "state"}
    assert fields(SegmentationResult)[-1].default is MISSING


def test_no_array_of_a_result_is_also_held_by_its_state():
    surface = random_closed(60, seed=12)
    f = features.feature_field(surface, 3).values
    result = solver.segment(surface, f, SolverParams(k=3, max_outer=2))
    # u, mu and b are reached through the state alone
    held = list(vars(result.state).values())
    for name, value in vars(result).items():
        if isinstance(value, np.ndarray):
            assert not any(value is x for x in held), name
