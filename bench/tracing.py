"""Per-layer tracing of opint, installed from outside the package.

``Tracer.install()`` replaces selected public functions and methods of
the ``opint`` modules by timing wrappers, at every place where they are
bound: module globals (so ``opint.operadic.block_cut`` is patched along
with ``opint.surjections.block_cut``), the package namespace, and class
attributes (so the alias ``Integration.compose1`` is patched along with
``Integration.h_compose``).  ``uninstall()`` restores the originals.

Two kinds of record are kept in memory:

* coarse spans (battery preparation, each check, each query, each cold
  hom materialization), each with an id, its parent span and a trace id
  shared by everything one check or query caused;
* counters for the hot leaf calls, aggregated per ``(name, parent)``,
  so a traced battery with millions of calls stays small.

Self time is a call's duration minus the time covered by the wrapped
calls it made.  The wrapper's own bookkeeping lands in the caller's
self time; ``trace.overhead_s`` reports how much it costs in total.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import sys
import time
import weakref

clock = time.perf_counter

# (metric name, module, attribute); "Class.method" attributes name methods.
# Several targets may share one metric name: their counts add up.
TARGETS = [
    ("surjections", "surjections", "enumerate_surjections"),
    ("surjections", "surjections", "compose"),
    ("surjections", "surjections", "induced_map"),
    ("surjections", "surjections", "block_cut"),
    ("surjections", "surjections", "ordinal_sum"),
    ("fincat.product", "fincat", "product"),
    ("fincat.validate_category", "fincat", "validate_category"),
    ("fincat.terminal_object", "fincat", "terminal_object"),
    ("fincat.FinCat.hom", "fincat", "FinCat.hom"),
    ("trees.graft", "trees", "graft"),
    ("trees.contracts_to", "trees", "contracts_to"),
    ("trees.enumerate_trees", "trees", "enumerate_trees"),
    ("operads.build", "operads", "nat_operad"),
    ("operads.build", "operads", "tree_operad"),
    ("operads.build", "operads", "terminal_operad"),
    ("operads.validate_operad", "operads", "validate_operad"),
    ("operads.check_associativity", "operads", "check_associativity"),
    ("operads.check_unitality", "operads", "check_unitality"),
    ("operads.apply", "operads", "TruncatedOperad.apply_obj"),
    ("operads.apply", "operads", "TruncatedOperad.apply_mor"),
    ("operads.apply", "operads", "TruncatedOperad.apply_mixed"),
    ("integration.integrate", "integration", "integrate"),
    ("integration.hom", "integration", "Integration.hom"),
    ("integration.h_compose", "integration", "Integration.h_compose"),
    ("integration.v_compose", "integration", "Integration.v_compose"),
    ("integration.h_compose_2cells", "integration", "Integration.h_compose_2cells"),
    ("integration.one_cell", "integration", "Integration.one_cell"),
    ("integration.two_cell", "integration", "Integration.two_cell"),
    ("integration.fibers_of_lax_triangle", "integration",
     "Integration.fibers_of_lax_triangle"),
    ("integration.fibers_of_slice_2cell", "integration",
     "Integration.fibers_of_slice_2cell"),
    ("integration.check_two_category_laws", "integration", "check_two_category_laws"),
    ("integration.check_projection", "integration", "check_projection"),
    ("integration.check_factorization", "integration", "check_factorization"),
    ("operadic.canonical_fibration", "operadic", "canonical_fibration"),
    ("operadic.check_operadic_axioms", "operadic", "check_operadic_axioms"),
    ("operadic.triangles_onto", "operadic", "OperadicTwoCat.triangles_onto"),
    ("operadic.fib1_cached", "operadic", "OperadicTwoCat.fib1_cached"),
    ("operadic.slice_compose", "operadic", "OperadicTwoCat.slice_compose"),
    ("operadic.check_splitting", "operadic", "check_splitting"),
    ("operadic.check_all_lifts_cartesian", "operadic", "check_all_lifts_cartesian"),
    ("operadic.check_trivial_subcategory", "operadic", "check_trivial_subcategory"),
    ("operadic.is_trivial", "operadic", "is_trivial"),
    ("operadic.extract_operad", "operadic", "extract_operad"),
    ("operadic.roundtrip_operad", "operadic", "roundtrip_operad"),
    ("operadic.roundtrip_2cat", "operadic", "roundtrip_2cat"),
    ("jsonio.operad_from_json", "jsonio", "operad_from_json"),
    ("jsonio.one_cell_to_json", "jsonio", "one_cell_to_json"),
    ("jsonio.reports_to_json", "jsonio", "reports_to_json"),
    ("cli.main", "cli", "main"),
]

# Calls whose arguments are remembered per owner object, for repeat_ratio:
# metric name -> function of the call's positional arguments giving the key.
REPEAT_KEYS = {
    "integration.h_compose": lambda a: (a[1], a[2]),
    "integration.fibers_of_lax_triangle": lambda a: a[1],
    "operadic.fib1_cached": lambda a: (a[1], a[2]),
    "integration.hom": lambda a: (a[1], a[2]),
}

# Checks whose instance counts come from the Report(s) they return.
CHECKS = {
    "operads.check_associativity", "integration.check_two_category_laws",
    "integration.check_projection", "integration.check_factorization",
    "operadic.check_operadic_axioms", "operadic.check_splitting",
    "operadic.check_all_lifts_cartesian", "operadic.check_trivial_subcategory",
}

# Hooks run on a wrapped call's result: metric name -> Tracer method.
AFTER = {
    "operads.build": "_after_build",
    "jsonio.operad_from_json": "_after_build",
    "fincat.product": "_after_product",
    "integration.hom": "_after_hom",
    **{name: "_after_check" for name in CHECKS},
}

# Every per-layer metric the traced run emits, with its unit.
PER_LAYER = [
    ("surjections.calls", "count"), ("surjections.self_s", "s"),
    ("fincat.product.calls", "count"), ("fincat.product.self_s", "s"),
    ("fincat.product.morphisms", "count"),
    ("fincat.validate_category.self_s", "s"),
    ("fincat.terminal_object.calls", "count"), ("fincat.terminal_object.self_s", "s"),
    ("fincat.FinCat.hom.calls", "count"), ("fincat.FinCat.hom.self_s", "s"),
    ("trees.graft.calls", "count"), ("trees.graft.self_s", "s"),
    ("trees.contracts_to.calls", "count"), ("trees.contracts_to.self_s", "s"),
    ("trees.enumerate_trees.calls", "count"), ("trees.enumerate_trees.self_s", "s"),
    ("operads.build.self_s", "s"), ("operads.mu_entries", "count"),
    ("operads.validate_operad.calls", "count"), ("operads.validate_operad.self_s", "s"),
    ("operads.check_associativity.instances", "count"),
    ("operads.check_associativity.us_per_instance", "us"),
    ("operads.check_unitality.self_s", "s"),
    ("operads.apply.calls", "count"), ("operads.apply.self_s", "s"),
    ("integration.integrate.self_s", "s"),
    ("integration.hom.calls", "count"), ("integration.hom.cold_calls", "count"),
    ("integration.hom.cold_self_s", "s"), ("integration.hom.warm_self_s", "s"),
    ("integration.hom.two_cells", "count"),
    ("integration.h_compose.calls", "count"), ("integration.h_compose.self_s", "s"),
    ("integration.h_compose.repeat_ratio", "ratio"),
    ("integration.v_compose.calls", "count"), ("integration.v_compose.self_s", "s"),
    ("integration.h_compose_2cells.calls", "count"),
    ("integration.h_compose_2cells.self_s", "s"),
    ("integration.one_cell.calls", "count"), ("integration.one_cell.self_s", "s"),
    ("integration.two_cell.calls", "count"), ("integration.two_cell.self_s", "s"),
    ("integration.fibers_of_lax_triangle.calls", "count"),
    ("integration.fibers_of_lax_triangle.self_s", "s"),
    ("integration.fibers_of_lax_triangle.repeat_ratio", "ratio"),
    ("integration.fibers_of_slice_2cell.calls", "count"),
    ("integration.fibers_of_slice_2cell.self_s", "s"),
    ("integration.check_two_category_laws.instances", "count"),
    ("integration.check_two_category_laws.us_per_instance", "us"),
    ("integration.check_projection.instances", "count"),
    ("integration.check_projection.us_per_instance", "us"),
    ("integration.check_factorization.instances", "count"),
    ("integration.check_factorization.us_per_instance", "us"),
    ("operadic.canonical_fibration.self_s", "s"),
    ("operadic.check_operadic_axioms.instances", "count"),
    ("operadic.check_operadic_axioms.us_per_instance", "us"),
    ("operadic.axiom_v_one_cells.instances", "count"),
    ("operadic.triangles_onto.calls", "count"),
    ("operadic.triangles_onto.triangles", "count"),
    ("operadic.triangles_onto.self_s", "s"),
    ("operadic.fib1_cached.calls", "count"),
    ("operadic.fib1_cached.repeat_ratio", "ratio"),
    ("operadic.slice_compose.calls", "count"), ("operadic.slice_compose.self_s", "s"),
    ("operadic.check_splitting.instances", "count"),
    ("operadic.check_splitting.us_per_instance", "us"),
    ("operadic.check_all_lifts_cartesian.instances", "count"),
    ("operadic.check_all_lifts_cartesian.us_per_instance", "us"),
    ("operadic.check_trivial_subcategory.instances", "count"),
    ("operadic.check_trivial_subcategory.us_per_instance", "us"),
    ("operadic.is_trivial.calls", "count"),
    ("operadic.extract_operad.self_s", "s"),
    ("operadic.roundtrip_operad.self_s", "s"),
    ("operadic.roundtrip_2cat.self_s", "s"),
    ("jsonio.operad_from_json.self_s", "s"),
    ("jsonio.one_cell_to_json.calls", "count"), ("jsonio.one_cell_to_json.self_s", "s"),
    ("jsonio.reports_to_json.calls", "count"), ("jsonio.reports_to_json.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("layers.operadic_integration.self_share", "ratio"),
    ("gc.collections", "count"), ("gc.pause_s", "s"),
    ("trace.overhead_s", "s"),
]

ROOT = "<root>"


class _Seen:
    """Per-owner sets of call keys, dropped when the owner is collected.

    Owners such as ``OperadicTwoCat`` are unhashable dataclasses, so they
    are tracked by id together with a weak reference.
    """

    def __init__(self):
        self._by_owner = {}

    def check_and_add(self, owner, key) -> bool:
        """True when ``key`` was seen before for ``owner``."""
        entry = self._by_owner.get(id(owner))
        if entry is None or entry[0]() is not owner:
            ref = weakref.ref(owner, lambda _, k=id(owner): self._by_owner.pop(k, None))
            entry = self._by_owner[id(owner)] = (ref, set())
        keys = entry[1]
        if key in keys:
            return True
        keys.add(key)
        return False


class Tracer:
    def __init__(self):
        # Each frame is [name, child_seconds, span id or None].
        self.stack = [[ROOT, 0.0, None]]
        self.calls = {}            # (name, parent name) -> [calls, total_s, self_s]
        self.spans = []            # dicts, written out by dump()
        self.counts = {}           # extra counters such as mu_entries
        self.repeats = {}          # name -> [repeated calls, calls]
        self.checks = {}           # name -> [instances, inclusive seconds]
        self.trace_id = 0
        self._span_ids = 0
        self._seen = _Seen()
        self._patched = []
        self._gc_start = None

    # -- spans driven by the benchmark ------------------------------------

    def begin(self, name: str):
        """Open a coarse span for one check or query, with a new trace id."""
        self.trace_id += 1
        frame = [name, 0.0, self._new_span_id()]
        frame.append(clock())
        self.stack.append(frame)

    def end(self):
        frame = self.stack.pop()
        dt = clock() - frame[3]
        self.stack[-1][1] += dt
        self._record(frame[0], dt, frame[1])
        self._span(frame, dt)

    def _new_span_id(self):
        self._span_ids += 1
        return self._span_ids

    def _parent_span(self):
        for frame in reversed(self.stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _span(self, frame, dt):
        self.spans.append({
            "id": frame[2], "parent": self._parent_span(), "trace": self.trace_id,
            "name": frame[0], "start": frame[3], "dur_s": dt, "self_s": dt - frame[1],
        })

    def _record(self, name, dt, child):
        key = (name, self.stack[-1][0])
        st = self.calls.get(key)
        if st is None:
            st = self.calls[key] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dt
        st[2] += dt - child

    def count(self, name, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        stack, record = self.stack, self._record
        span = name in ("operads.build", "integration.hom")
        repeat = REPEAT_KEYS.get(name)
        after = getattr(self, AFTER[name]) if name in AFTER else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if repeat is not None:
                seen = self._seen.check_and_add(args[0], repeat(args))
                rep = self.repeats.setdefault(name, [0, 0])
                rep[0] += seen
                rep[1] += 1
                if name == "integration.hom":
                    label = "integration.hom.warm" if seen else "integration.hom.cold"
            is_span = span and label != "integration.hom.warm"
            frame = [label, 0.0, self._new_span_id() if is_span else None]
            stack.append(frame)
            t0 = clock()
            frame.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stack[-1][1] += dt
                record(label, dt, frame[1])
                if is_span:
                    self._span(frame, dt)
            if after is not None:
                after(label, result, dt)
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        """Time each resumption of a generator as a call of ``name``."""
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            self.count(name + ".calls")
            while True:
                frame = [name, 0.0, None]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][1] += dt
                    self._record_self(name, dt, frame[1])
                self.count(name + ".items")
                yield item

        return wrapper

    def _record_self(self, name, dt, child):
        """Record a generator segment: time without adding a call."""
        key = (name, self.stack[-1][0])
        st = self.calls.get(key)
        if st is None:
            st = self.calls[key] = [0, 0.0, 0.0]
        st[1] += dt
        st[2] += dt - child

    def _after_build(self, label, P, dt):
        self.count("operads.mu_entries",
                   sum(len(F.obj_map) + len(F.mor_map) for F in P.mu.values()))

    def _after_product(self, label, C, dt):
        self.count("fincat.product.morphisms", C.counts()[1])

    def _after_hom(self, label, H, dt):
        if label == "integration.hom.cold":
            self.count("integration.hom.two_cells", H.counts()[1])

    def _after_check(self, label, result, dt):
        reports = result if isinstance(result, list) else [result]
        inst = self.checks.setdefault(label, [0, 0.0])
        inst[0] += sum(r.checked for r in reports)
        inst[1] += dt
        if label == "operadic.check_operadic_axioms":
            self.count("operadic.axiom_v_one_cells.instances",
                       sum(r.checked for r in reports
                           if r.name == "axiom (v) one-cells"))

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target wherever the ``opint`` modules bind it."""
        import opint.cli  # noqa: F401  (loads every submodule)
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "opint" or n.startswith("opint.")) and m is not None]
        classes = [v for m in modules for v in vars(m).values()
                   if isinstance(v, type) and v.__module__.startswith("opint")]
        containers = modules + list({id(c): c for c in classes}.values())
        for name, module, attr in TARGETS:
            owner = sys.modules["opint." + module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original)
            for container in containers:
                for key, value in list(vars(container).items()):
                    if value is original:
                        self._patched.append((container, key, value))
                        setattr(container, key, wrapper)
        gc.callbacks.append(self._gc_callback)

    def uninstall(self):
        for container, key, value in reversed(self._patched):
            setattr(container, key, value)
        self._patched.clear()
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = clock()
        elif self._gc_start is not None:
            self.count("gc.collections")
            self.counts["gc.pause_s"] = self.counts.get("gc.pause_s", 0.0) + \
                clock() - self._gc_start
            self._gc_start = None

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, total_s, self_s], summed over parents."""
        out = {}
        for (name, _), (calls, total, self_s) in self.calls.items():
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
        return out

    def metrics(self, traced_wall_s: float, slowdown: float, overhead_s: float) -> dict:
        """Every per-layer metric.

        ``traced_wall_s`` is the wall time of the traced work, ``slowdown``
        the machine's slowdown over it (see speed.py): times are divided by
        it so that they read at nominal speed, as the end-to-end ones do.
        """
        tot = self.totals()

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def self_s(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        def ratio(name):
            rep, n = self.repeats.get(name, (0, 0))
            return rep / n if n else 0.0

        values = {}
        for metric, _ in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if metric in self.counts:
                values[metric] = self.counts[metric]
            elif head == "integration.hom":
                cold, warm = "integration.hom.cold", "integration.hom.warm"
                values[metric] = {
                    "calls": calls(cold) + calls(warm), "cold_calls": calls(cold),
                    "cold_self_s": self_s(cold), "warm_self_s": self_s(warm),
                    "two_cells": 0,
                }[stat]
            elif head in CHECKS and stat in ("instances", "us_per_instance"):
                inst, secs = self.checks.get(head, (0, 0.0))
                values[metric] = inst if stat == "instances" else \
                    (1e6 * secs / inst if inst else 0.0)
            elif stat == "calls":
                values[metric] = self.counts.get(head + ".calls", calls(head))
            elif stat == "self_s":
                values[metric] = self_s(head)
            elif stat == "repeat_ratio":
                values[metric] = ratio(head)
            elif stat == "triangles":
                values[metric] = self.counts.get("operadic.triangles_onto.items", 0)
            else:
                values[metric] = 0
        layered = sum(v[2] for k, v in tot.items()
                      if k.startswith(("operadic.", "integration.")))
        values["layers.operadic_integration.self_share"] = layered / traced_wall_s
        for metric, unit in PER_LAYER:
            if unit in ("s", "us"):
                values[metric] /= slowdown
        values["trace.overhead_s"] = overhead_s
        return values

    def dump(self, path):
        """Write spans and aggregated call counters as JSON lines."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (name, parent), (calls, total, self_s) in sorted(self.calls.items()):
                fh.write(json.dumps({"counter": name, "parent": parent, "calls": calls,
                                     "total_s": total, "self_s": self_s}) + "\n")
