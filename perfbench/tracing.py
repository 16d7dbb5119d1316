"""Spans around the public functions of msseg, recorded from outside.

``Tracer.install`` replaces each public function of the six pipeline
modules (and the ``Systems`` class) by a recording wrapper in every msseg
module namespace that binds it, which is where callers look it up:
``msseg.cli.feature_field``, ``msseg.solver.solve_v``,
``msseg.calculus.gradient`` and ``msseg.solver.gradient``, and so on.
Spans (name, start, end, parent) stay in memory until ``dump``.
"""

import functools
import importlib
import inspect
import json
import time

MODULES = ("mesh", "features", "calculus", "solver", "evaluation", "cli")
CLASSES = {"solver": ("Systems",)}
# called once per face: a span each would cost more than the work, and
# their time belongs to their caller's layer
PER_ITEM = {"smoothed_normal", "normal_distance", "label_color"}

# span name -> per-layer metric; a span not listed counts towards its
# module's entry in MODULE_METRIC
SPAN_METRIC = {
    "mesh.smoothed_normals": "mesh.normals_s",
    "features.build_laplacian": "features.laplacian_s",
    "cli.export_colored_mesh": "cli.export_s",
    "calculus.gradient": "calculus.grad_div_s",
    "calculus.divergence": "calculus.grad_div_s",
    "solver.Systems": "solver.factor_s",
    "solver.solve_u": "solver.u_solve_s",
    "solver.solve_v": "solver.v_solve_s",
    "solver.solve_b": "solver.b_solve_s",
    "solver.s_field": "solver.zstep_s",
    "solver.update_z": "solver.zstep_s",
    "solver.project_simplex": "solver.zstep_s",
    "solver.prox_p": "solver.prox_s",
    "solver.prox_q": "solver.prox_s",
    "solver.update_mu": "solver.mu_s",
}
# stages outside the ADMM sweeps: everything inside one, nested spans
# included, counts towards its metric, so that the s_field and calculus
# calls of the energy or the KKT check do not read as sweep work
STAGE_METRIC = {
    "solver.initial_state": "solver.init_s",
    "solver.estimate_alpha": "solver.alpha_s",
    "solver.energy": "solver.energy_s",
    "solver.kkt_residuals": "solver.kkt_s",
}
MODULE_METRIC = {
    "mesh": "mesh.load_s",
    "features": "features.spectral_s",
    "calculus": "calculus.other_s",
    "solver": "solver.other_s",
    "evaluation": "evaluation.score_s",
    "cli": "cli.other_s",
}
SELF_TIME_METRICS = sorted(set(SPAN_METRIC.values()) | set(STAGE_METRIC.values())
                           | set(MODULE_METRIC.values()))


def _targets():
    """(module name, attribute name, object) for every traced callable."""
    found = []
    for mod_name in MODULES:
        mod = importlib.import_module(f"msseg.{mod_name}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or attr in PER_ITEM:
                continue
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__) \
                    or attr in CLASSES.get(mod_name, ()):
                found.append((mod_name, attr, obj))
    return found


class Tracer:
    """Records spans while installed.

    ``observe`` maps a span name to a function of the call's return value;
    its result is kept in ``observed`` as (span index, value), so that a
    large return value need not be kept alive.
    """

    def __init__(self, observe=None):
        self.spans = []     # [name, start, end, parent index or -1]
        self.observed = []
        self._observe = observe or {}
        self._open = []     # indices of the spans now running
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._open, time.perf_counter
        observe = self._observe.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                value = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                self.observed.append((idx, observe(value)))
            return value

        return traced

    def install(self):
        namespaces = [vars(importlib.import_module(f"msseg.{m}"))
                      for m in MODULES]
        for mod_name, attr, obj in _targets():
            wrapped = self._wrap(f"{mod_name}.{attr}", obj)
            for ns in namespaces:
                if ns.get(attr) is obj:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = wrapped

    def uninstall(self):
        for ns, attr, obj in reversed(self._patches):
            ns[attr] = obj
        self._patches.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)


def summarize(spans):
    """Per-span-name call counts, self times and inclusive times, plus the
    per-layer time sums keyed by metric name.  The layer sums split the
    root spans' time without overlap."""
    child_time = [0.0] * len(spans)
    stage = []
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        stage.append(STAGE_METRIC.get(name)
                     or (stage[parent] if parent >= 0 else None))
    calls, self_s, inclusive_s = {}, {}, {}
    layers = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    for (name, start, end, _), inner, in_stage in zip(spans, child_time, stage):
        own = (end - start) - inner
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        inclusive_s[name] = inclusive_s.get(name, 0.0) + (end - start)
        metric = in_stage or SPAN_METRIC.get(
            name, MODULE_METRIC[name.split(".")[0]])
        layers[metric] += own
    return calls, self_s, inclusive_s, layers
