"""Spans around ifslab's public functions, recorded from outside the package.

``Tracer.install`` rebinds every public function of the ten layer modules in
every ``ifslab`` module namespace that holds it, so a name imported into
another module (``addresses.contains``, ``conditions.apply_inverse``) is
traced too.  Each call records a span ``[fid, start, end, parent, request,
work]``; ``work`` is a count taken from the arguments or the return value.
Spans are kept in memory for one request and folded into ``LayerStats``
when it ends.  The program runs in one thread, so nothing waits on a queue
or lock and no waiting time is recorded.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

from workloads import LAYERS

# Per-coordinate and per-cell helpers: a span each would time the tracer
# rather than the program, so their cost stays in the caller's self time.
UNTRACED = frozenset({"cli.fmt", "geometry.is_exact_scalar", "geometry.is_exact_point"})


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _contains_work(args, kwargs, out):
    # (3-D polytope?, membership result)
    return _arg(args, kwargs, 0, "poly").dim >= 3, bool(out)


def _report_work(args, kwargs, rep):
    return sum(rep.prefix_counts), rep.exact


WORK = {
    "geometry.contains": _contains_work,
    "addresses.classify_point": _report_work,
    "addresses.enumerate_prefixes": lambda a, k, tree: (sum(tree.counts), False),
    "measure.chain_walk": lambda a, k, out: len(_arg(a, k, 1, "pts")) * _arg(a, k, 2, "depth"),
    "conditions.wn_entry_depths": lambda a, k, out: len(_arg(a, k, 2, "pts")),
    "conditions.covering_deficiency": lambda a, k, out: _arg(a, k, 2, "samples"),
    "render.chaos_game": lambda a, k, out: _arg(a, k, 1, "iters"),
    "cli.write_csv": lambda a, k, out: len(_arg(a, k, 2, "rows")),
    "triangle.digit_forcing": lambda a, k, out: out.step,
}


class Tracer:
    def __init__(self):
        self.names = []  # fid -> "layer.function"
        self.spans = []
        self.request = -1
        self._stack = []
        self._patched = []
        self._wrappers = {}

    def _wrap(self, fid, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [fid, clock(), 0.0, stack[-1] if stack else -1, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, out)
            return out

        return traced

    def install(self, package="ifslab"):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == package or n.startswith(package + ".")]
        if not self._wrappers:
            for layer in LAYERS:
                mod = sys.modules[f"{package}.{layer}"]
                for name, obj in vars(mod).items():
                    qual = f"{layer}.{name}"
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not name.startswith("_") and qual not in UNTRACED):
                        self._wrappers[obj] = self._wrap(len(self.names), obj, WORK.get(qual))
                        self.names.append(qual)
        for mod in mods:
            ns = vars(mod)
            for name, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patched.append((ns, name, obj))
                    ns[name] = self._wrappers[obj]

    def uninstall(self):
        for ns, name, obj in reversed(self._patched):
            ns[name] = obj
        self._patched.clear()

    def take(self):
        """The spans recorded since the last call, oldest first."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Children of a span run one after another inside it (one thread), so
    the part of its interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, *_), c in zip(spans, covered)]


class LayerStats:
    """Per-function totals folded from spans, and the per-layer metrics built on them."""

    def __init__(self, names):
        self.names = names
        self.layer = [n.split(".")[0] for n in names]
        n = len(names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.work = [0.0] * n
        self.c = dict.fromkeys((
            "contains2_calls", "contains2_s", "contains3_calls", "contains3_s",
            "addr_tests", "addr_children", "cov_tests", "lin_calls", "lin_s",
            "nodes", "nodes_s", "exact_nodes", "exact_nodes_s"), 0)

    def fold(self, spans):
        fid_of = {n: i for i, n in enumerate(self.names)}
        contains = fid_of.get("geometry.contains")
        covering = fid_of.get("conditions.covering_deficiency")
        feasible = fid_of.get("addresses.feasible_children")
        selfs = self_times(spans)
        in_addr = [False] * len(spans)
        in_cov = [False] * len(spans)
        child_feasible = [0] * len(spans)
        c = self.c
        for i, (fid, start, end, parent, _, work) in enumerate(spans):
            layer = self.layer[fid]
            self.calls[fid] += 1
            self.self_s[fid] += selfs[i]
            self.incl_s[fid] += end - start
            if isinstance(work, (int, float)):
                self.work[fid] += work
            if parent >= 0:
                p_layer = self.layer[spans[parent][0]]
                in_addr[i] = in_addr[parent] or p_layer == "addresses"
                in_cov[i] = in_cov[parent] or spans[parent][0] == covering
                if fid == feasible:
                    child_feasible[parent] += 1
            dur = end - start
            if fid == contains and work is not None:
                d3, inside = work
                key = "contains3" if d3 else "contains2"
                c[key + "_calls"] += 1
                c[key + "_s"] += dur
                if in_addr[i]:
                    c["addr_tests"] += 1
                    c["addr_children"] += inside
                if in_cov[i]:
                    c["cov_tests"] += 1
            if layer == "linfeas" and (parent < 0 or self.layer[spans[parent][0]] != "linfeas"):
                c["lin_calls"] += 1
                c["lin_s"] += dur
        # top-level address spans: nodes from the report, or one per
        # feasible_children call for the chain walkers
        for i, (fid, start, end, parent, _, work) in enumerate(spans):
            if self.layer[fid] != "addresses" or in_addr[i]:
                continue
            nodes, exact = work if isinstance(work, tuple) else (max(child_feasible[i], 1), False)
            pre = "exact_nodes" if exact else "nodes"
            c[pre] += nodes
            c[pre + "_s"] += end - start

    def total(self, qual, field):
        """A function's total of calls, self_s, incl_s or work; 0 if it no longer exists."""
        if qual not in self.names:
            return 0
        return getattr(self, field)[self.names.index(qual)]

    def metrics(self, passes, traced_wall, overhead_s, setup_stats):
        """Per-layer metrics, per pass over the request list; 0 where a layer does no work.

        `traced_wall` is the mean traced pass; `overhead_s` what tracing adds to a pass.
        """

        def per(x):
            return x / passes

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.c
        out = {}
        for layer in LAYERS:
            s = sum(v for v, ly in zip(self.self_s, self.layer) if ly == layer)
            out[f"{layer}.self_s"] = (per(s), "s")
            out[f"{layer}.share"] = (ratio(per(s), traced_wall), "ratio")
        out["geometry.contains.calls"] = (per(c["contains2_calls"]), "count")
        out["geometry.contains.us_per_call"] = (1e6 * ratio(c["contains2_s"], c["contains2_calls"]), "us")
        out["geometry.contains_d3.us_per_call"] = (1e6 * ratio(c["contains3_s"], c["contains3_calls"]), "us")
        out["linfeas.calls"] = (per(c["lin_calls"]), "count")
        out["linfeas.us_per_call"] = (1e6 * ratio(c["lin_s"], c["lin_calls"]), "us")
        calls = self.total("core.apply_inverse", "calls")
        out["core.apply_inverse.calls"] = (per(calls), "count")
        out["core.apply_inverse.us_per_call"] = (
            1e6 * ratio(self.total("core.apply_inverse", "self_s"), calls), "us")
        out["addresses.nodes"] = (per(c["nodes"] + c["exact_nodes"]), "count")
        out["addresses.us_per_node"] = (1e6 * ratio(c["nodes_s"], c["nodes"]), "us")
        out["addresses.exact_us_per_node"] = (1e6 * ratio(c["exact_nodes_s"], c["exact_nodes"]), "us")
        out["addresses.children_per_test"] = (ratio(c["addr_children"], c["addr_tests"]), "ratio")

        def inclusive_per_work(qual, scale):
            return scale * ratio(self.total(qual, "incl_s"), self.total(qual, "work"))

        samples = self.total("conditions.covering_deficiency", "work")
        out["conditions.covering_deficiency.us_per_sample"] = (
            inclusive_per_work("conditions.covering_deficiency", 1e6), "us")
        out["conditions.covering_tests_per_sample"] = (ratio(c["cov_tests"], samples), "count")
        out["conditions.wn_entry_depths.us_per_point"] = (
            inclusive_per_work("conditions.wn_entry_depths", 1e6), "us")
        out["conditions.vertex_overlap_witness.self_s"] = (
            per(self.total("conditions.vertex_overlap_witness", "self_s")), "s")
        out["measure.chain_walk.ns_per_point_step"] = (inclusive_per_work("measure.chain_walk", 1e9), "ns")
        for f in ("sample_natural_measure", "attractor_point_cloud", "box_dim_estimate"):
            out[f"measure.{f}.self_s"] = (per(self.total(f"measure.{f}", "self_s")), "s")
        out["render.chaos_game.ns_per_iter"] = (inclusive_per_work("render.chaos_game", 1e9), "ns")
        out["render.write_pgm.self_s"] = (per(self.total("render.write_pgm", "self_s")), "s")
        out["triangle.digit_forcing.us_per_step"] = (inclusive_per_work("triangle.digit_forcing", 1e6), "us")
        out["deleted_digits.count_expansions.self_s"] = (
            per(self.total("deleted_digits.count_expansions", "self_s")), "s")
        out["cli.main.self_s"] = (per(self.total("cli.main", "self_s")), "s")
        out["cli.write_csv.ns_per_row"] = (inclusive_per_work("cli.write_csv", 1e9), "ns")
        out["core.new_ifs.self_s"] = (setup_stats.total("core.new_ifs", "self_s"), "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out
