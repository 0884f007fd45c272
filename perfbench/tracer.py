"""Span recorder for the traced run.

``Tracer.patch()`` wraps every public function of the lipjet modules
under each module attribute that holds it (so ``lipjet.jets.op_norm``
and ``lipjet.sandwich.lip_norm`` are wrapped as well as the defining
names) plus ``SymForm.__init__`` and ``LipFunction.__init__``, and
returns a function that restores the originals.

A span is (id, parent id, name, op id, thread, start, end). Parent
stacks are per thread, because lipjet's pair scan may run rows on a
thread pool; a span opened in a pool thread has no parent. Counts,
busy time and self time are aggregated as spans close, so the per-layer
metrics cover every call; the span list itself keeps only the first
``MAX_SPANS`` spans, for the dump.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

LAYERS = ("tensor_core", "jets", "bounds", "covering", "sandwich", "cli")
CONSTRUCTORS = (("tensor_core", "SymForm"), ("jets", "LipFunction"))
ALGEBRA = ("diff", "scale", "truncate", "restrict")
CERTIFY = ("certify_pointwise", "certify_single_point", "certify_full")
LOAD = ("load_jetfile", "dict_to_jet")
MAX_SPANS = 100_000


class _Stats:
    """Per-thread aggregates, merged when the run ends."""

    def __init__(self):
        self.stack = []
        self.calls = {}  # name -> [count, busy, self]
        self.layer_busy = {}  # layer -> time in spans not nested in the same layer
        self.extra = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.op_id = -1
        self.names = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._all_stats = []
        self._lock = threading.Lock()

    def _stats(self):
        try:
            return self._local.stats
        except AttributeError:
            st = self._local.stats = _Stats()
            with self._lock:
                self._all_stats.append(st)
            return st

    def _wrap(self, name, fn, on_return=None):
        layer = name.split(".", 1)[0]
        name_id = self.names.setdefault(name, len(self.names))
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = tracer._stats()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [layer, 0.0, next(tracer._ids), name]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                agg = st.calls.get(name)
                if agg is None:
                    agg = st.calls[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if parent is None or parent[0] != layer:
                    st.layer_busy[layer] = st.layer_busy.get(layer, 0.0) + dur
                if parent is not None:
                    parent[1] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((frame[2], -1 if parent is None else parent[2], name_id,
                                         tracer.op_id, threading.get_ident(), t0, t1))
                else:
                    tracer.dropped += 1
            if on_return is not None:
                on_return(st, dur, args, result)
            return result

        return wrapper

    @staticmethod
    def _hooks():
        def pairs(st, dur, args, report):
            f = args[0]
            st.add("pairs", f.n_sites * (f.n_sites - 1) * len(report.holder))

        def centers(st, dur, args, plan):
            st.add("centers", len(plan.center_indices))

        def certificate(st, dur, args, cert):
            st.add("certs", 1)
            st.add("valid", int(bool(cert.valid)))

        def construct(st, dur, args, result):
            if any(frame[3] == "cli.load_jetfile" for frame in st.stack):
                st.add("construct_in_load", dur)

        hooks = {"jets.lip_norm": pairs, "covering.greedy_cover": centers,
                 "jets.LipFunction.__init__": construct}
        hooks.update({"sandwich." + name: certificate for name in CERTIFY})
        return hooks

    def patch(self):
        """Wrap lipjet's public functions everywhere they are referenced."""
        import lipjet

        modules = {layer: getattr(lipjet, layer) for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        undo = []
        for mod in [lipjet, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(mod, attr, wrappers[id(obj)][1])
                    undo.append((mod, attr, obj))
        for layer, cls_name in CONSTRUCTORS:
            cls = getattr(modules[layer], cls_name)
            name = f"{layer}.{cls_name}.__init__"
            original = cls.__init__
            cls.__init__ = self._wrap(name, original, hooks.get(name))
            undo.append((cls, "__init__", original))

        def restore():
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

        return restore

    def merged(self):
        calls, layer_busy, extra = {}, {}, {}
        for st in self._all_stats:
            for name, (count, busy, self_t) in st.calls.items():
                agg = calls.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += busy
                agg[2] += self_t
            for layer, busy in st.layer_busy.items():
                layer_busy[layer] = layer_busy.get(layer, 0.0) + busy
            for key, value in st.extra.items():
                extra[key] = extra.get(key, 0) + value
        return calls, layer_busy, extra

    def layer_metrics(self):
        """The per-layer metrics; 0 where the run never calls the layer."""
        calls, layer_busy, extra = self.merged()

        def count(name):
            return calls.get(name, [0, 0.0, 0.0])[0]

        def busy(*names):
            return sum(calls.get(n, [0, 0.0, 0.0])[1] for n in names)

        def self_time(*names):
            return sum(calls.get(n, [0, 0.0, 0.0])[2] for n in names)

        lip_busy = busy("jets.lip_norm")
        certs = extra.get("certs", 0)
        cli_names = [n for n in calls if n.startswith("cli.") and n.split(".", 1)[1] not in LOAD]
        return {
            "tensor_core.symform_new.count": (count("tensor_core.SymForm.__init__"), "count"),
            "tensor_core.contract.count": (count("tensor_core.contract"), "count"),
            "tensor_core.op_norm.count": (count("tensor_core.op_norm"), "count"),
            "tensor_core.busy_s": (layer_busy.get("tensor_core", 0.0), "s"),
            "jets.lip_norm.busy_s": (lip_busy, "s"),
            "jets.lip_norm.self_s": (self_time("jets.lip_norm"), "s"),
            "jets.pairs.count": (extra.get("pairs", 0), "count"),
            "jets.pairs_per_s": (extra.get("pairs", 0) / lip_busy if lip_busy else 0.0, "1/s"),
            "jets.construct.busy_s": (busy("jets.LipFunction.__init__"), "s"),
            "jets.construct.count": (count("jets.LipFunction.__init__"), "count"),
            "jets.algebra.busy_s": (busy(*("jets." + n for n in ALGEBRA)), "s"),
            "bounds.sandwich_constants.busy_s": (busy("bounds.sandwich_constants"), "s"),
            "bounds.delta0_single_point.busy_s": (busy("bounds.delta0_single_point"), "s"),
            "bounds.delta_star.busy_s": (busy("bounds.delta_star"), "s"),
            "bounds.delta0_pointwise.busy_s": (busy("bounds.delta0_pointwise"), "s"),
            "bounds.calls.count": (sum(c[0] for n, c in calls.items() if n.startswith("bounds.")), "count"),
            "covering.greedy_cover.busy_s": (busy("covering.greedy_cover"), "s"),
            "covering.is_cover.busy_s": (busy("covering.is_cover"), "s"),
            "covering.centers.count": (extra.get("centers", 0), "count"),
            "sandwich.certify.self_s": (self_time(*("sandwich." + n for n in CERTIFY)), "s"),
            "sandwich.plan.self_s": (self_time("sandwich.plan_approximation"), "s"),
            "sandwich.valid_ratio": (extra.get("valid", 0) / certs if certs else 0.0, "1"),
            # JSON parse and form building: load time less LipFunction construction
            "cli.load.self_s": (busy("cli.load_jetfile") - extra.get("construct_in_load", 0.0), "s"),
            "cli.cmd.self_s": (self_time(*cli_names), "s"),
        }

    def dump(self, path, meta):
        names = sorted(self.names, key=self.names.get)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "names": names,
                       "columns": ["id", "parent", "name", "op", "thread", "start", "end"],
                       "spans": self.spans, "dropped": self.dropped}, fh)
