"""Layer-by-layer tracing of conelab, measured from outside the library.

`Tracer.install` replaces every public function of each layer module by a
wrapper that records one span per call: name, layer, start, end, parent
span id and whether the call raised.  The replacement is made in every
``conelab`` namespace that binds the function, because modules re-export
names through ``from .x import y`` (``cli`` does this for
``scal_from_jet`` and others) and a call through such a name would
otherwise go uncounted.  Two class members are wrapped as well:
``BendProfile.jet``, and ``MetricField.__post_init__``, which validates
every metric field, counts its sampled bytes and wraps its analytic
callbacks as spans of the module that defined them.

Spans stay in memory; `Tracer.write` dumps them at the end of a run.
Nothing here changes what the library computes.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import itertools
import json
import sys
import time

LAYERS = ("cli", "grids", "fields", "cones", "spectral", "perron", "barrier", "covering", "bending")

#: `<prefix>.self_s` is the layer's self time inside calls that entered the
#: layer through one of these functions (nested same-layer calls included)
ENTRY_GROUPS = {
    "perron.perron_minimal": ("perron.perron_minimal", "perron.perron_minimal_detailed"),
    "perron.is_supersolution": ("perron.is_supersolution",),
    "spectral.lambda0": ("spectral.lambda0", "spectral.lambda0_detailed"),
    "bending.stiffness_search": ("bending.stiffness_search",),
    "barrier.deflection_radius": ("barrier.deflection_radius",),
    "covering.assign_families": ("covering.assign_families",),
    "covering.verify_families": ("covering.verify_families",),
}

#: functions whose every call is counted (nested calls included)
CALL_COUNTS = ("grids.scal_from_jet", "bending.BendProfile.jet", "barrier.sphere_trace")

#: counts gathered by result hooks and by the workloads' own tasks
HOOK_COUNTS = (
    "perron.sweeps",
    "perron.sweep_cap_hits",
    "grids.metric_bytes",
    "covering.kept",
    "covering.default_bound_exceeded",
    "cli.artifact_bytes",
)

_CALLBACKS = ("metric_fn", "dmetric_fn", "d2metric_fn")

# span tuple fields; _ROOT is the name of the outermost open span of the
# same layer (the call through which the work entered that layer)
_ID, _PARENT, _NAME, _LAYER, _START, _END, _CHILD, _ROOT, _ERROR = range(9)


def per_layer_metric_units():
    """Every per-layer metric name with its unit, in output order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.errors"] = "count"
    for group in ENTRY_GROUPS:
        units[f"{group}.self_s"] = "s"
    for name in CALL_COUNTS:
        units[f"{name}.calls"] = "count"
    for name in HOOK_COUNTS:
        units[name] = "B" if name.endswith("_bytes") else "count"
    return units


class Tracer:
    """Records spans while installed and active; one instance per run."""

    def __init__(self):
        self.active = False
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._roots = collections.defaultdict(list)
        self._ids = itertools.count()
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer; idempotent per instance."""
        if self._patches:
            self.active = True
            return
        modules = [importlib.import_module(f"conelab.{layer}") for layer in LAYERS]
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if m is not None and (name == "conelab" or name.startswith("conelab."))]
        bindings = collections.defaultdict(list)
        for ns in namespaces:
            for attr, obj in vars(ns).items():
                if inspect.isfunction(obj):
                    bindings[id(obj)].append((ns, attr))
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, layer, obj, _RESULT_HOOKS.get(name), _ERROR_HOOKS.get(name))
                for ns, bound_attr in bindings[id(obj)]:
                    self._patch(ns, bound_attr, wrapper)
        bending = importlib.import_module("conelab.bending")
        self._patch(bending.BendProfile, "jet",
                    self._wrap("bending.BendProfile.jet", "bending", bending.BendProfile.jet))
        grids = importlib.import_module("conelab.grids")
        self._patch(grids.MetricField, "__post_init__",
                    self._wrap("grids.MetricField.__post_init__", "grids",
                               grids.MetricField.__post_init__, self._on_metric_field))
        self.active = True

    def uninstall(self):
        """Restore every original binding."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, layer, fn, on_result=None, on_error=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            roots = tracer._roots[layer]
            span = [next(tracer._ids), parent[_ID] if parent else -1, name, layer,
                    0.0, 0.0, 0.0, roots[0] if roots else name, False]
            stack.append(span)
            roots.append(name)
            span[_START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count an error once, at the deepest traced call it passed
                span[_ERROR] = not getattr(exc, "_traced_error", False)
                with contextlib.suppress(AttributeError):
                    exc._traced_error = True
                if on_error is not None:
                    on_error(tracer, fn, args, kwargs, exc)
                raise
            finally:
                span[_END] = end = time.perf_counter()
                stack.pop()
                roots.pop()
                if parent is not None:
                    parent[_CHILD] += end - span[_START]
                tracer.spans.append(tuple(span))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        traced.__traced__ = True
        return traced

    def _on_metric_field(self, tracer, args, kwargs, result):
        field = args[0]
        self.counts["grids.metric_bytes"] += int(field.g.nbytes)
        for attr in _CALLBACKS:
            fn = getattr(field, attr)
            if fn is None or getattr(fn, "__traced__", False):
                continue
            layer = getattr(fn, "__module__", "").rpartition(".")[2]
            if layer in LAYERS:
                object.__setattr__(field, attr, self._wrap(f"{layer}.{fn.__name__}", layer, fn))

    # -- aggregation ---------------------------------------------------------

    def take_round(self):
        """Per-layer metrics of the spans and counts since the last call.

        Returns (metrics, spans); both buffers are cleared."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, collections.Counter()
        metrics = {name: 0 for name in per_layer_metric_units()}
        entry_names = {fn: group for group, fns in ENTRY_GROUPS.items() for fn in fns}
        for s in spans:
            self_s = s[_END] - s[_START] - s[_CHILD]
            layer = s[_LAYER]
            metrics[f"{layer}.calls"] += 1
            metrics[f"{layer}.self_s"] += self_s
            metrics[f"{layer}.errors"] += int(s[_ERROR])
            if s[_NAME] in CALL_COUNTS:
                metrics[f"{s[_NAME]}.calls"] += 1
            group = entry_names.get(s[_ROOT])
            if group is not None:
                metrics[f"{group}.self_s"] += self_s
        for name, value in counts.items():
            metrics[name] += value
        return metrics, spans

    @staticmethod
    def write(path, spans):
        """Write spans as JSON lines (times in seconds from the first span)."""
        origin = min((s[_START] for s in spans), default=0.0)
        with open(path, "w") as out:
            for s in spans:
                out.write(json.dumps({
                    "id": s[_ID], "parent": s[_PARENT], "name": s[_NAME],
                    "start": s[_START] - origin, "end": s[_END] - origin, "error": s[_ERROR],
                }) + "\n")


# -- result hooks ------------------------------------------------------------

def _on_perron_result(tracer, args, kwargs, result):
    tracer.counts["perron.sweeps"] += int(result.iterations)


def _on_perron_error(tracer, fn, args, kwargs, exc):
    errors = importlib.import_module("conelab.errors")
    if isinstance(exc, errors.IterationLimitError) and "did not converge" in str(exc):
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.counts["perron.sweep_cap_hits"] += 1
        tracer.counts["perron.sweeps"] += int(bound.arguments["max_sweeps"])


def _on_assignment(tracer, args, kwargs, result):
    tracer.counts["covering.kept"] += sum(1 for fam in result.families.values() if fam > 0)


_RESULT_HOOKS = {
    "perron.perron_minimal_detailed": _on_perron_result,
    "covering.assign_families": _on_assignment,
}
_ERROR_HOOKS = {"perron.perron_minimal_detailed": _on_perron_error}
