"""Per-layer tracing of the afgeo package from outside it.

`Tracer.install()` replaces the public functions of every `afgeo` module, and
a few named methods, by wrappers that record one span per call: name, start,
end, parent span.  Spans stay in memory; `layer_metrics` turns them into the
per-layer metrics after the run.  Nothing in `src/afgeo` is edited.

A function is replaced under every module name it is bound to, so names
imported by value (`flow.scalar_curvature`, `norms.sectional_bound`, ...)
are traced too.  Hot leaves called more than 1e4 times a run only count.
A wrap target that no longer exists is recorded as missing and the metrics
that depend on it are left out, so a refactor cannot break the run.
"""

import importlib
import inspect
import threading
import time

MODULES = ("analysis", "cli", "corner", "curvature", "flow", "grid",
           "heatdemo", "mass", "metrics", "norms", "oracle")

# span name -> (module, qualified attribute); these override the generic
# `<module>.<function>` span name
NAMED_SPANS = {
    "flow.rhs": ("flow", "eta_rhs"),
    "flow.step": ("flow", "h_flow_step"),
    "flow.evolve": ("flow", "evolve"),
    "flow.deturck": ("flow", "deturck_vector"),
    "flow.diffeo": ("flow", "extract_diffeomorphism"),
    "flow.pullback": ("flow", "pullback"),
    "mass.adm": ("mass", "adm_mass"),
    "mass.fit": ("mass", "fit_power_tail"),
    "corner.mollify": ("corner", "mollify"),
    "corner.eval": ("corner", "MollifiedCorner.eval"),
    "grid.deriv": ("grid", "RadialGrid.deriv"),
    "grid.stencil_build": ("grid", "RadialGrid._build_stencils"),
}

# hot leaves: a counter each, no span
COUNTERS = {
    "corner.attempts": ("corner", "MollifiedCorner.__init__"),
    "oracle.g_evals": ("oracle", "CartesianMetric.g"),
}


def _resolve(mod, qual):
    obj = mod
    for part in qual.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans = []          # (id, parent, name, t0, t1, thread)
        self.counts = {}
        self.missing = []
        self.dt = []             # dt_history of every flow.evolve call
        self._local = threading.local()
        self._main = None        # span stack of the thread of the root span
        self._next = 0
        self._lock = threading.Lock()

    # -- recording ----------------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            st = tracer._stack()
            with tracer._lock:
                sid = tracer._next
                tracer._next += 1
            if st:
                parent = st[-1]
            elif tracer._main:
                # a worker thread's first span hangs off the innermost open
                # span of the thread that waits for it
                parent = tracer._main[-1]
            else:
                parent = None
                tracer._main = st
            st.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if name == "flow.evolve":
                    tracer.dt.extend(getattr(result, "dt_history", ()))
                return result
            finally:
                t1 = time.perf_counter()
                st.pop()
                tracer.spans.append((sid, parent, name, t0, t1,
                                     threading.get_ident()))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; missing ones are listed in self.missing."""
        mods = {}
        for m in MODULES:
            try:
                mods[m] = importlib.import_module(f"afgeo.{m}")
            except ImportError:
                self.missing.append(m)
        wrapped = {}   # id(original) -> (original, wrapper)

        def target(name, m, qual, make):
            if m not in mods:
                self.missing.append(f"{m}.{qual}")
                return
            try:
                fn = _resolve(mods[m], qual)
            except AttributeError:
                self.missing.append(f"{m}.{qual}")
                return
            fn = inspect.unwrap(fn)
            if id(fn) in wrapped:
                return
            w = make(name, fn)
            wrapped[id(fn)] = (fn, w)
            if "." in qual:      # method: replace on the class
                cls_name, attr = qual.rsplit(".", 1)
                setattr(_resolve(mods[m], cls_name), attr, w)

        for name, (m, qual) in COUNTERS.items():
            target(name, m, qual, self._counter)
        for name, (m, qual) in NAMED_SPANS.items():
            target(name, m, qual, self._span)
        for m, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    target(f"{m}.{attr}", m, attr, self._span)
        # rebind module-level names, including names imported by value
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def dump(self):
        """Spans and counters as plain data, for the run record."""
        return {"spans": [list(s) for s in self.spans],
                "counts": dict(self.counts), "missing": list(self.missing),
                "dt": [float(x) for x in self.dt]}


# -- aggregation --------------------------------------------------------------

def self_times(spans):
    """{span id: self time}: duration minus the union of child intervals."""
    kids = {}
    for sid, parent, _, t0, t1, _ in spans:
        kids.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        covered = 0.0
        end = t0
        for a, b in sorted(kids.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(dump, nodes, solve_traced, solve_untraced):
    """Per-layer metrics from one traced pass (see README.md for each).

    `dump` is a list of Tracer.dump() results, one per traced invocation;
    `nodes` holds the flow grid size of each (0 when it has no flow)."""
    calls, self_s, incl_s = {}, {}, {}
    rhs_node_calls = 0
    layer_calls, layer_self = {}, {}
    counts = {}
    missing = set()
    corner_incl = 0.0
    for d, n in zip(dump, nodes):
        spans = [tuple(s) for s in d["spans"]]
        rhs_node_calls += n * sum(s[2] == "flow.rhs" for s in spans)
        st = self_times(spans)
        by_id = {s[0]: s for s in spans}
        for sid, parent, name, t0, t1, _ in spans:
            layer = name.split(".", 1)[0]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + st[sid]
            incl_s[name] = incl_s.get(name, 0.0) + (t1 - t0)
            layer_calls[layer] = layer_calls.get(layer, 0) + 1
            layer_self[layer] = layer_self.get(layer, 0.0) + st[sid]
            if layer == "corner":
                p = by_id.get(parent)
                while p is not None and not p[2].startswith("corner."):
                    p = by_id.get(p[1])
                if p is None:        # outermost corner span
                    corner_incl += t1 - t0
        for k, v in d["counts"].items():
            counts[k] = counts.get(k, 0) + v
        missing.update(d["missing"])

    def gone(name):
        spec = NAMED_SPANS.get(name) or COUNTERS.get(name)
        return spec is not None and f"{spec[0]}.{spec[1]}" in missing

    out = {}

    def put(key, value, unit, needs=()):
        if not any(gone(n) for n in needs):
            out[key] = (value, unit)

    rhs_calls = calls.get("flow.rhs", 0)
    rhs_s = self_s.get("flow.rhs", 0.0)
    put("flow.rhs.calls", rhs_calls, "count", ["flow.rhs"])
    put("flow.rhs.s", rhs_s, "s", ["flow.rhs"])
    per_node = rhs_s / rhs_node_calls * 1e6 if rhs_node_calls else 0.0
    put("flow.rhs.us_per_node", per_node, "us", ["flow.rhs"])
    put("flow.steps", calls.get("flow.step", 0), "count", ["flow.step"])
    dts = [dt for d in dump for dt in d.get("dt", [])]
    put("flow.dt_min", min(dts) if dts else 0.0, "flow_t", ["flow.evolve"])
    put("flow.dt_max", max(dts) if dts else 0.0, "flow_t", ["flow.evolve"])
    put("flow.evolve.s", incl_s.get("flow.evolve", 0.0), "s", ["flow.evolve"])
    put("flow.evolve.self_s", self_s.get("flow.evolve", 0.0), "s",
        ["flow.evolve"])
    for key in ("deturck", "diffeo", "pullback"):
        name = f"flow.{key}"
        if key == "deturck":
            put(f"{name}.calls", calls.get(name, 0), "count", [name])
        put(f"{name}.s", self_s.get(name, 0.0), "s", [name])
    for layer in ("norms", "curvature", "oracle", "metrics"):
        put(f"{layer}.calls", layer_calls.get(layer, 0), "count")
        put(f"{layer}.s", layer_self.get(layer, 0.0), "s")
    for name in ("mass.adm", "mass.fit", "corner.mollify", "corner.eval",
                 "grid.deriv", "grid.stencil_build"):
        put(f"{name}.calls", calls.get(name, 0), "count", [name])
        put(f"{name}.s", self_s.get(name, 0.0), "s", [name])
    attempts = counts.get("corner.attempts", 0)
    mollify = calls.get("corner.mollify", 0)
    put("corner.attempts", attempts, "count", ["corner.attempts"])
    put("corner.attempts_per_mollify", attempts / mollify if mollify else 0.0,
        "ratio", ["corner.attempts", "corner.mollify"])
    put("corner.incl_s", corner_incl, "s")
    put("oracle.g_evals", counts.get("oracle.g_evals", 0), "count",
        ["oracle.g_evals"])
    put("analysis.self_s", layer_self.get("analysis", 0.0), "s")
    put("cli.self_s", layer_self.get("cli", 0.0), "s")
    put("trace.solve_s", solve_traced, "s")
    put("trace.overhead_frac", solve_traced / solve_untraced - 1.0, "ratio")
    return out, sorted(missing)
