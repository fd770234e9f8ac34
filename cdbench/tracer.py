"""Per-function tracing for the benchmark's traced run.

`Tracer.install` replaces every public function and method of the layer
modules with a wrapper, at every binding site: the defining module, every
cantordyn module that imported the name, and the class that owns a method.
A wrapper keeps a stack of open calls, so each function's self time is its
duration minus the time spent in wrapped callees. Calls are aggregated per
(caller, function) pair rather than stored as spans: the hot leaves run
millions of times per run.

Timed runs never install the tracer; `overhead_frac` compares a traced
replay with the untraced run of the same queries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("space", "systems", "towers", "fullgroup", "equiv", "enumeration", "cli")

# Accessors called from inside their own layer so often that a wrapper would
# cost more than they do; their time is charged to the caller.
HOT_ACCESSORS = frozenset({
    "signature", "size_at", "size_bound", "next_symbols", "word_count",
    "point_probe", "prefix_word", "check_word", "value", "digits", "capacity",
    "level_edges", "incoming", "outgoing", "edge", "indegree", "is_max_edge",
    "is_min_edge", "count_at", "pattern_level", "is_empty", "is_full",
    "word_list", "atom", "all_atoms", "heights", "min_height", "atom_count",
    "max_depth", "prefix", "period", "period_len", "empty", "full", "extensions",
})

# Non-public methods that are layer boundaries: building one tower level,
# and constructing (and validating) a point.
EXTRA = frozenset({"KRSequence._build_next", "Point.__init__"})

# Metric groups: prefix -> functions whose calls and self time it sums.
GROUPS = {
    "systems.image_point": ("systems.Odometer.image_point", "systems.BVSystem.image_point"),
    "systems.image_clopen": ("systems.Odometer.image_clopen", "systems.BVSystem.image_clopen"),
    "space.contains_point": ("space.Clopen.contains_point",),
    "space.point_new": ("space.Point.__init__",),
    "space.subset": ("space.Clopen.is_subset", "space.Clopen.compare",
                     "space.Clopen.contains_word", "space.Clopen.is_disjoint"),
    "space.boolean": ("space.Clopen.union", "space.Clopen.intersection",
                      "space.Clopen.difference", "space.Clopen.complement",
                      "space.boolean_op"),
    "space.refine": ("space.Clopen.refined_words", "space.SpacePresentation.extensions",
                     "space.SpacePresentation.words_at_depth"),
    "space.make": ("space.Clopen.make", "space.cylinder"),
    "space.parse": ("space.Clopen.parse", "space.Point.parse",
                    "space.SpacePresentation.parse_word"),
    "space.render": ("space.Clopen.render", "space.Clopen.to_json", "space.Point.render",
                     "space.SpacePresentation.render_word"),
    "fullgroup.membership": ("fullgroup.membership_gamma",),
    "fullgroup.make": ("fullgroup.PiecewisePower.make", "fullgroup.validate_piecewise"),
    "fullgroup.compose": ("fullgroup.PiecewisePower.compose", "fullgroup.PiecewisePower.inverse"),
    "fullgroup.gamma_element": ("fullgroup.gamma_element",),
    "equiv.orbit_decide": ("equiv.orbit_decide",),
    "enumeration.decode": ("enumeration.TupleCoder.decode",),
    "cli.run": ("cli.run",),
}

# Where a CapExceededError first leaves a wrapped function -> cap name.
CAP_SITES = {
    "fullgroup.membership_gamma": "orbit_scan",
    "towers.kr_from_clopen": "first_return",
    "systems.BVSystem.image_clopen": "bv_bundle",
}
CAP_NAMES = ("orbit_scan", "first_return", "bv_bundle", "enumeration", "other")


def _count_refined(tracer, parent, args, result):
    tracer.bump("space.words_refined", len(result))


def _count_verdict(tracer, parent, args, result):
    tracer.bump("equiv.verdicts." + result.verdict.replace("-", "_"))


def _count_member(tracer, parent, args, result):
    if parent == "enumeration.is_in_gamma":
        tracer.bump("enumeration.gamma_kept", int(result.member))


def _count_atoms(tracer, parent, args, result):
    seq = args[0]
    tracer.bump("towers.atoms_built", sum(t.height for t in seq.level(seq.built()).towers))


HOOKS = {
    "space.Clopen.refined_words": _count_refined,
    "equiv.orbit_decide": _count_verdict,
    "fullgroup.membership_gamma": _count_member,
    "towers.KRSequence._build_next": _count_atoms,
}


class Tracer:
    def __init__(self):
        self.stack: list = []  # open calls: [key, time spent in wrapped callees]
        self.calls: dict = {}  # (caller key, key) -> [calls, self_s, inclusive_s]
        self.raised: dict = {}  # (caller key, key, exception type) -> count
        self.counts: dict = {}  # named counts from HOOKS and generators
        self._last_cap = None
        self._undo: list = []
        self._setup_calls: dict = {}
        self._setup_counts: dict = {}
        self._setup_raised: dict = {}

    def mark_setup_done(self) -> None:
        """Figures so far belong to set-up; metrics() reports what follows,
        except towers.* and caps_hit.*, which cover set-up and queries."""
        self._setup_calls = {k: list(v) for k, v in self.calls.items()}
        self._setup_counts = dict(self.counts)
        self._setup_raised = dict(self.raised)

    def bump(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- wrappers -------------------------------------------------------------

    def _finish(self, key, frame, elapsed, new_call):
        stack = self.stack
        stack.pop()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += elapsed
        pkey = (parent[0] if parent is not None else None, key)
        entry = self.calls.get(pkey)
        if entry is None:
            entry = self.calls[pkey] = [0, 0.0, 0.0]
        entry[0] += new_call
        entry[1] += elapsed - frame[1]
        entry[2] += elapsed
        return pkey[0]

    def _raised(self, key, exc):
        parent = self.stack[-2][0] if len(self.stack) > 1 else None
        name = type(exc).__name__
        rkey = (parent, key, name)
        self.raised[rkey] = self.raised.get(rkey, 0) + 1
        if name == "CapExceededError" and exc is not self._last_cap:
            self._last_cap = exc
            site = CAP_SITES.get(key)
            if site is None:
                site = "enumeration" if key.startswith("enumeration.") else "other"
            self.bump("caps_hit." + site)

    def _wrap(self, key, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(key, fn)
        perf = time.perf_counter
        stack = self.stack
        hook = HOOKS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._raised(key, exc)
                raise
            finally:
                parent = self._finish(key, frame, perf() - t0, 1)
            if hook is not None:
                hook(self, parent, args, result)
            return result

        return wrapper

    def _wrap_generator(self, key, fn):
        perf = time.perf_counter
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            entry = self.calls.setdefault((parent, key), [0, 0.0, 0.0])
            entry[0] += 1
            try:
                while True:
                    frame = [key, 0.0]
                    stack.append(frame)
                    t0 = perf()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    except BaseException as exc:
                        self._raised(key, exc)
                        raise
                    finally:
                        self._finish(key, frame, perf() - t0, 0)
                    self.bump(key + ".yields")
                    yield item
            finally:
                gen.close()

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules of the currently imported cantordyn."""
        replaced = {}  # original function -> wrapper
        for layer in LAYERS:
            mod = sys.modules["cantordyn." + layer]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if not name.startswith("_") and name not in HOT_ACCESSORS:
                        replaced[obj] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        namespaces = [m for n, m in sys.modules.items() if n == "cantordyn" or n.startswith("cantordyn.")]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._undo.append((ns, name, obj))
                    setattr(ns, name, replaced[obj])

    def _wrap_class(self, layer, cls) -> None:
        for name, raw in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            public = not name.startswith("_") and name not in HOT_ACCESSORS
            if not (public or qual in EXTRA):
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not inspect.isfunction(fn) or getattr(fn, "__isabstractmethod__", False):
                continue
            wrapped = self._wrap(f"{layer}.{qual}", fn)
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(wrapped)
            self._undo.append((cls, name, raw))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- metrics ------------------------------------------------------------------

    @staticmethod
    def _sum(calls, keys, parent=None, column=0, outside=None):
        total = 0
        for (p, k), entry in calls.items():
            if k in keys and (parent is None or p == parent) and (outside is None or p not in outside):
                total += entry[column]
        return total

    def _rejected(self, parent=None):
        return sum(
            n - self._setup_raised.get((p, k, name), 0) for (p, k, name), n in self.raised.items()
            if k == "fullgroup.PiecewisePower.make" and name == "PiecewiseValidationError"
            and (parent is None or p == parent)
        )

    def metrics(self, query_s: float) -> dict:
        """Per-layer figures of the queries: name -> (value, unit).

        query_s is the wall time of the queries, for the share of it spent
        outside every wrapped function.
        """
        zero = [0, 0.0, 0.0]
        calls = {
            key: [a - b for a, b in zip(entry, self._setup_calls.get(key, zero))]
            for key, entry in self.calls.items()
        }
        counts = {k: n - self._setup_counts.get(k, 0) for k, n in self.counts.items()}
        out = {}
        for prefix, keys in GROUPS.items():
            out[prefix + ".calls"] = (self._sum(calls, keys, outside=keys), "count")
            out[prefix + ".self_s"] = (float(self._sum(calls, keys, column=1)), "s")
        inside = 0.0
        for layer in LAYERS:
            self_s = sum(e[1] for (_, k), e in calls.items() if k.split(".")[0] == layer)
            out[f"layer.{layer}.self_s"] = (float(self_s), "s")
            inside += self_s
        out["layer.outside.self_s"] = (max(query_s - inside, 0.0), "s")

        image_point = GROUPS["systems.image_point"]
        out["fullgroup.membership.scan_steps"] = (
            self._sum(calls, image_point, parent="fullgroup.membership_gamma"), "count")
        out["space.words_refined"] = (counts.get("space.words_refined", 0), "count")
        out["equiv.levels_scanned"] = (
            self._sum(calls, ("towers.KRSequence.level",), parent="equiv.orbit_decide"), "count")
        for verdict in ("equivalent", "distinct", "not_yet"):
            out["equiv.verdicts." + verdict] = (counts.get("equiv.verdicts." + verdict, 0), "count")
        out["fullgroup.validate.rejected"] = (self._rejected(), "count")

        tfg = "enumeration.enum_tfg"
        scanned = self._sum(calls, ("enumeration.TupleCoder.decode",), parent=tfg)
        made = self._sum(calls, ("fullgroup.PiecewisePower.make",), parent=tfg) - self._rejected(tfg)
        out["enumeration.codes_scanned"] = (scanned, "count")
        out["enumeration.valid_ratio"] = (made / scanned if scanned else 0.0, "ratio")
        tested = self._sum(calls, ("fullgroup.membership_gamma",), parent="enumeration.is_in_gamma")
        out["enumeration.gamma_tested"] = (tested, "count")
        kept = counts.get("enumeration.gamma_kept", 0)
        out["enumeration.gamma_kept_ratio"] = (kept / tested if tested else 0.0, "ratio")
        lines = counts.get("enumeration.enum_dgamma.yields", 0)
        composes = self._sum(calls, ("fullgroup.PiecewisePower.compose",), parent="enumeration.enum_dgamma")
        out["enumeration.dgamma.lines"] = (lines, "count")
        out["enumeration.dgamma.compose_per_line"] = (composes / lines if lines else 0.0, "ratio")

        build = ("towers.KRSequence._build_next",)
        out["towers.levels_built"] = (self._sum(self.calls, build), "count")
        out["towers.atoms_built"] = (self.counts.get("towers.atoms_built", 0), "count")
        out["towers.build_s"] = (float(self._sum(self.calls, build, column=2)), "s")

        total = 0
        for name in CAP_NAMES:
            n = self.counts.get("caps_hit." + name, 0)
            out["caps_hit." + name] = (n, "count")
            total += n
        out["caps_hit.total"] = (total, "count")
        return out
