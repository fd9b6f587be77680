"""Span tracing of the artifact layers, installed from outside the package.

``Tracer.install`` wraps every function listed in ``layers.json`` and puts
the wrapper wherever the original is reachable: the attribute of every
loaded ``artifact`` module that holds it, and every default argument of an
``artifact`` function that names it (``coefficient_fn=bergman_coefficient``).
Each call records one span (id, name, start, end, parent) in memory; the
spans are aggregated and written out after the pass.
"""
from __future__ import annotations

import json
import os
import sys
import time
from array import array

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))


def load_layers():
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)["layers"]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _resolve(module, target):
    """(owner, attribute, original function) for a plain or Class.attr target."""
    if "." in target:
        cls_name, attr = target.split(".")
        owner = getattr(module, cls_name)
        raw = owner.__dict__[attr]
        return owner, attr, raw.__func__ if isinstance(raw, classmethod) else raw
    return module, target, getattr(module, target)


def _artifact_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "artifact" or name.startswith("artifact.")) and m is not None]


def _artifact_functions(modules):
    """Every function defined in artifact, including methods, once each."""
    seen = set()
    for mod in modules:
        for value in vars(mod).values():
            cands = [value]
            if isinstance(value, type) and value.__module__.startswith("artifact"):
                cands = [getattr(v, "__func__", v) for v in vars(value).values()]
            for fn in cands:
                if (hasattr(fn, "__defaults__")
                        and getattr(fn, "__module__", "").startswith("artifact")
                        and id(fn) not in seen):
                    seen.add(id(fn))
                    yield fn


class Tracer:
    def __init__(self, layers):
        self.layers = layers
        self.names = []          # name index -> "<layer>.<function>"
        self.ids = array("q")
        self.name_idx = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.outer = array("b")  # 1 when no span of the same name encloses it
        self.tags = {}           # span id -> tag, for the functions in _hooks
        self.counters = {"kept_coef": 0, "interp_coef": 0, "headroom_min": None,
                         "iterations": 0, "condition_max": 0.0}
        self.patched = {}        # span name -> namespaces that were patched
        self._stack = [-1]
        self._next = 0
        self._undo = []
        self._angular = None
        self._hook_table = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        before, after = self._hook_table.get(name, (None, None))
        perf = time.perf_counter
        stack = self._stack
        depth = [0]

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            ctx = before(args, kwargs) if before is not None else None
            stack.append(sid)
            nested = depth[0]
            depth[0] = nested + 1
            result = exc = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = perf()
                stack.pop()
                depth[0] = nested
                self.ids.append(sid)
                self.name_idx.append(idx)
                self.start.append(t0)
                self.end.append(t1)
                self.parent.append(parent)
                self.outer.append(nested == 0)
                if after is not None:
                    tag = after(ctx, args, kwargs, result, exc)
                    if tag is not None:
                        self.tags[sid] = tag

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        import artifact  # noqa: F401  (loads every submodule)
        from artifact.bergman import _log_angular_sum

        self._angular = _log_angular_sum
        self._hook_table = self._hooks()
        modules = _artifact_modules()
        functions = list(_artifact_functions(modules))  # before any is replaced
        wrappers = {}  # id(original) -> (wrapper, span name)
        for layer, spec in self.layers.items():
            module = sys.modules[f"artifact.{layer}"]
            for fname, fspec in spec["functions"].items():
                name = f"{layer}.{fname}"
                owner, attr, orig = _resolve(module, fspec["target"])
                wrapper = self._wrap(orig, name)
                wrappers[id(orig)] = (wrapper, name)
                if fspec["kind"] == "classmethod":
                    self._set(owner, attr, classmethod(wrapper))
                    self.patched[name] = [f"{module.__name__}.{fspec['target']}"]
                elif fspec["kind"] == "method":
                    self._set(owner, attr, wrapper)
                    self.patched[name] = [f"{module.__name__}.{fspec['target']}"]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None:
                    self._set(mod, attr, hit[0])
                    self.patched.setdefault(hit[1], []).append(f"{mod.__name__}.{attr}")
        for fn in functions:
            defaults = fn.__defaults__
            if defaults and any(id(d) in wrappers for d in defaults):
                self._undo.append((fn, "__defaults__", defaults))
                fn.__defaults__ = tuple(
                    wrappers[id(d)][0] if id(d) in wrappers else d for d in defaults
                )
                for d in defaults:
                    if id(d) in wrappers:
                        self.patched[wrappers[id(d)][1]].append(
                            f"{fn.__module__}.{fn.__qualname__}(default)")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counters and tags recorded at the layer boundary ----------------

    def _hooks(self):
        from artifact.profiles import DEFAULT_DEGREE
        from artifact.quadrature import required_order

        c = self.counters

        def headroom(rule, k, exc):
            if exc is None:
                h = rule.order - required_order(int(k))
                c["headroom_min"] = h if c["headroom_min"] is None else min(c["headroom_min"], h)

        def gram(ctx, a, kw, r, e):
            metric, k = a[0], _arg(a, kw, 1, "k")
            headroom(_arg(a, kw, 2, "rule") or metric.rule, k, e)
            return f"n={metric.n} k={int(k)}"

        def partition(ctx, a, kw, r, e):
            metric, k = a[0], _arg(a, kw, 2, "k")
            headroom(_arg(a, kw, 3, "rule") or metric.rule, k, e)
            return f"n={metric.n} k={int(k)}"

        def density(ctx, a, kw, r, e):
            return f"n={a[0].n} k={int(_arg(a, kw, 1, 'k'))}"

        def interpolate(ctx, a, kw, r, e):
            degree = _arg(a, kw, 2, "degree", DEFAULT_DEGREE)  # a[0] is the class
            if r is not None:
                c["kept_coef"] += r.coef.size
                c["interp_coef"] += degree + 1
            return f"degree={degree}"

        def a2_cold(a, kw):
            return "a2" not in getattr(a[0], "_field_cache", {})

        def coefficient(ctx, a, kw, r, e):
            j = _arg(a, kw, 1, "j")
            return f"j={j} cold={int(ctx)}" if j == 2 else f"j={j}"

        def route(ctx, a, kw, r, e):
            return f"n={a[0].n} j={_arg(a, kw, 2, 'j')}"

        def misses(a, kw):
            return self._angular.cache_info().misses

        def angular(ctx, a, kw, r, e):
            cold = self._angular.cache_info().misses > ctx
            return f"n={a[0]} k={a[1]} cold={int(cold)}"

        def iteration(ctx, a, kw, r, e):
            trace = r[1] if e is None else getattr(e, "trace", None)
            steps = trace.iterations if trace is not None else 0
            c["iterations"] += steps
            return f"k={_arg(a, kw, 1, 'k')} steps={steps}"

        def fit(ctx, a, kw, r, e):
            if r is not None:
                c["condition_max"] = max(c["condition_max"], r.condition)

        return {
            "profiles.from_callable": (None, interpolate),
            "geometry.build_metric": (None, lambda ctx, a, kw, r, e: f"n={a[0].n}"),
            "geometry.bergman_coefficient": (a2_cold, coefficient),
            "bergman.gram": (None, gram),
            "bergman.log_partition_ratio": (None, partition),
            "bergman.bergman_density": (None, density),
            "bergman.log_angular_sum": (misses, angular),
            "functionals.tilde_S_bc": (None, route),
            "functionals.tilde_S_path": (None, route),
            "balanced.t_iteration": (None, iteration),
            "fitting.fit_expansion": (None, fit),
        }

    # -- aggregation -------------------------------------------------------

    def summary(self, wall_s):
        """Per-function calls, inclusive and self time, layer self shares."""
        n = len(self.ids)
        order = np.argsort(np.frombuffer(self.ids, dtype=np.int64))
        name = np.frombuffer(self.name_idx, dtype=np.int32)[order]
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start))[order]
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        # inclusive time counts only the outermost span of a name
        outer = np.frombuffer(self.outer, dtype=np.int8)[order].astype(bool)
        # ids are 0..n-1 once sorted, so a parent id is its row index
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        funcs = {}
        for idx, fname in enumerate(self.names):
            sel = name == idx
            funcs[fname] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel & outer].sum()),
                "self_s": float(self_t[sel].sum()),
            }
        layers = {}
        for fname, f in funcs.items():
            layer = fname.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + f["self_s"]
        shares = {k: 100.0 * v / wall_s for k, v in layers.items()}
        return {"functions": funcs, "layer_self_s": layers, "layer_self_share": shares,
                "spans": n}

    def tagged_durations(self):
        """span name -> tag -> (calls, median duration), for the tagged functions."""
        pos = {sid: i for i, sid in enumerate(self.ids)} if self.tags else {}
        found = {}
        for sid, tag in self.tags.items():
            i = pos[sid]
            fname = self.names[self.name_idx[i]]
            found.setdefault(fname, {}).setdefault(tag, []).append(self.end[i] - self.start[i])
        return {fname: {tag: {"calls": len(d), "median_s": float(np.median(d))}
                        for tag, d in tags.items()}
                for fname, tags in found.items()}

    def write_spans(self, path):
        """Spans as CSV: id, name, start, end, parent (times relative to the first)."""
        t0 = min(self.start) if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent\n")
            for i in range(len(self.ids)):
                fh.write(f"{self.ids[i]},{self.names[self.name_idx[i]]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},{self.parent[i]}\n")
