"""In-memory tracing of the calls into nbwalk's modules, made from outside
the package by patching module attributes and graph instances.

Two kinds of record are kept:

* spans, one per call of a coarse function (a graph build, a contraction,
  an oracle, a Monte Carlo run, a CLI command), each with a name, start and
  end in nanoseconds, the span it ran under, the job and the pass;
* counters for hot leaf functions (neighbour lookups, walk steps, one
  Monte Carlo replica), summed per (enclosing span, name) as calls,
  nanoseconds and work units, so that millions of calls take no memory.

A function is patched under the name its caller looks it up by: ``stats``
imports ``srw_step`` by name, so ``nbwalk.stats.srw_step`` is patched as
well as ``nbwalk.walkers.srw_step``.  Spans are opened only by the driving
thread; counters recorded by worker threads (``diagnose --jobs 2``) are kept
in per-thread tables and attach to the span that was open when they ran.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns

LONG_STREAM = 25_000  # cursor streams longer than this count as long
FAMILIES = ("lattice", "subdivided_lattice", "tree", "explicit")
STEP_KINDS = ("srw", "nbrw", "nbrw_edge", "wrw")
KERNELS = ("lattice_fast", "tree_fast", "generic")
CLI_COMMANDS = ("diagnose", "compare", "enumerate", "erase")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _kind(*args, **kwargs):
    kind = _arg(args, kwargs, 1, "kind")
    return {"kind": getattr(kind, "value", kind)}


# (module, attribute, span name, extra span attributes from the call's args)
SPANS = [
    ("cli", "graph_from_spec", "graph.build", None),
    ("graph", "graph_from_spec", "graph.build", None),
    ("graph", "subdivide", "graph.build", None),
    ("cli", "contract", "contraction.contract", None),
    ("contraction", "contract", "contraction.contract", None),
    ("cli", "monte_carlo", "stats.monte_carlo", None),
    ("stats", "monte_carlo", "stats.monte_carlo", None),
    ("cli", "total_variation", "stats.total_variation", None),
    ("cli", "sample_path", "walkers.sample_path", lambda *a, **k: {"units": _arg(a, k, 3, "n")}),
    ("cli", "enumerate_prefix_distribution", "walkers.enumerate", None),
    ("walkers", "enumerate_prefix_distribution", "walkers.enumerate", None),
    ("cli", "erase_backtracks", "erasure.cursor", lambda *a, **k: {"units": len(_arg(a, k, 0, "seq"))}),
    ("erasure", "erase_backtracks_stack", "erasure.stack", lambda *a, **k: {"units": len(_arg(a, k, 0, "seq"))}),
    ("cli", "erased_prefix_distribution", "erasure.erased_prefix", None),
    ("erasure", "enumerate_move_distribution", "erasure.move_law", None),
    ("cli", "induced_prefix_distribution", "contraction.induced", _kind),
    ("birthdeath", "chain_move_law", "birthdeath.chain_move_law", None),
    ("birthdeath", "escape_probability", "birthdeath.escape", None),
]

# (module, attribute, counter name, work units from the call's args)
COUNTERS = [
    ("walkers", "srw_step", "walkers.step.srw", None),
    ("stats", "srw_step", "walkers.step.srw", None),
    ("walkers", "nbrw_step", "walkers.step.nbrw", None),
    ("stats", "nbrw_step", "walkers.step.nbrw", None),
    ("walkers", "nbrw_step_edge", "walkers.step.nbrw_edge", None),
    ("stats", "nbrw_step_edge", "walkers.step.nbrw_edge", None),
    ("walkers", "wrw_step", "walkers.step.wrw", None),
    ("stats", "wrw_step", "walkers.step.wrw", None),
    ("walkers", "step_distribution", "walkers.step_distribution", None),
    ("stats", "_lattice_run", "stats.kernel.lattice_fast", lambda *a, **k: _arg(a, k, 3, "horizon")),
    ("stats", "_tree_run", "stats.kernel.tree_fast", lambda *a, **k: _arg(a, k, 2, "horizon")),
    ("stats", "_generic_replica", "stats.kernel.generic", lambda *a, **k: _arg(a, k, 3, "horizon")),
]

# functions whose result is a graph (or a (multigraph, map) pair) to watch
_BUILDERS = {"graph.build", "contraction.contract"}


class Tracer:
    def __init__(self, nb):
        self.nb = nb
        self.spans = []
        self.job = None
        self.pass_label = None
        self.missing = []
        self._root = None
        self._ids = itertools.count()
        self._patches = []
        self._watched = []
        self._lock = threading.Lock()
        self._tables = []
        tracer = self

        class _State(threading.local):
            def __init__(self):
                self.counts = {}
                with tracer._lock:
                    tracer._tables.append(self.counts)

        self._local = _State()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name, **attrs):
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": self._root,
            "job": self.job,
            "pass": self.pass_label,
            "start": _clock(),
            "end": None,
            **attrs,
        }
        self.spans.append(rec)
        outer, self._root = self._root, rec["id"]
        try:
            yield rec
        finally:
            rec["end"] = _clock()
            self._root = outer

    def spanned(self, fn, name, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            extra = attrs(*args, **kwargs) if attrs else {}
            with tracer.span(name, **extra):
                result = fn(*args, **kwargs)
            if name in _BUILDERS:
                tracer.watch(result[0] if isinstance(result, tuple) else result)
            return result

        return wrapper

    def counted(self, fn, name, units=None):
        tracer = self
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                key = (tracer._root, name)
                counts = local.counts
                c = counts.get(key)
                if c is None:
                    c = counts[key] = [0, 0, 0]
                c[0] += 1
                c[1] += dt
                if units is not None:
                    c[2] += units(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def install(self, graphs=()):
        for table, make in ((SPANS, self.spanned), (COUNTERS, self.counted)):
            for mod_name, attr, name, extra in table:
                module = getattr(self.nb, mod_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"nbwalk.{mod_name}.{attr}")
                    continue
                self._patches.append((module, attr, original))
                setattr(module, attr, make(original, name, extra))
        for g in graphs:
            self.watch(g)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        for g in self._watched:
            g.__dict__.pop("neighbors", None)
            g.__dict__.pop("half_edges", None)
        self._watched.clear()

    def watch(self, g):
        """Count neighbour and half-edge lookups on one graph instance."""
        graph = self.nb.graph
        if "neighbors" in g.__dict__ or "half_edges" in g.__dict__:
            return
        if isinstance(g, graph.Lattice):
            family = "lattice" if g.pitch == 1 else "subdivided_lattice"
        elif isinstance(g, (graph.RegularTree, graph.BiregularTree)):
            family = "tree"
        elif isinstance(g, graph.ExplicitGraph):
            family = "explicit"
        elif isinstance(g, graph.WeightedMultigraph):
            g.half_edges = self.counted(g.half_edges, "graph.half_edges")
            self._watched.append(g)
            return
        else:
            return
        g.neighbors = self.counted(g.neighbors, "graph.neighbors." + family)
        self._watched.append(g)

    # -- reading -----------------------------------------------------------

    def counters(self):
        """All counter rows as (span id, name, calls, ns, units)."""
        rows = []
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for (parent, name), (calls, ns, units) in table.items():
                rows.append((parent, name, calls, ns, units))
        return rows

    def dump(self):
        return {
            "spans": self.spans,
            "counters": [
                {"parent": p, "name": n, "calls": c, "ns": ns, "units": u}
                for p, n, c, ns, u in self.counters()
            ],
            "missing": self.missing,
        }


def _duration(span):
    return span["end"] - span["start"]


def layer_metrics(tracer, passes, setups):
    """Per-layer metrics: each value is the median over the traced passes
    (or traced set-ups) of that pass's figure.  A layer the workload never
    calls reads 0."""
    by_id = {s["id"]: s for s in tracer.spans}
    children: dict = {}
    for s in tracer.spans:
        children.setdefault(s["parent"], []).append(s)
    own: dict = {}
    for parent, name, calls, ns, units in tracer.counters():
        own.setdefault(parent, []).append((name, calls, ns, units))

    def outermost(spans, name):
        return [s for s in spans if s["name"] == name and by_id.get(s["parent"], {}).get("name") != name]

    def seconds(spans, name, **match):
        sel = [s for s in outermost(spans, name) if all(s.get(k) == v for k, v in match.items())]
        return sum(_duration(s) for s in sel) / 1e9

    def subtree_counts(span_ids):
        out: dict = {}
        todo = list(span_ids)
        while todo:
            sid = todo.pop()
            for name, calls, ns, units in own.get(sid, ()):
                c = out.setdefault(name, [0, 0, 0])
                c[0] += calls
                c[1] += ns
                c[2] += units
            todo.extend(s["id"] for s in children.get(sid, ()))
        return out

    def expansions(spans, *names):
        ids = [s["id"] for n in names for s in outermost(spans, n)]
        counts = subtree_counts(ids)
        return sum(c[0] for n, c in counts.items() if n.startswith(("graph.neighbors.", "graph.half_edges")))

    def per_unit(spans, name, select=lambda s: True):
        sel = [s for s in outermost(spans, name) if select(s)]
        units = sum(s.get("units", 0) for s in sel)
        return sum(_duration(s) for s in sel) / units if units else 0.0

    def ns_per(counts, name, by_units=False):
        calls, ns, units = counts.get(name, (0, 0, 0))
        den = units if by_units else calls
        return ns / den if den else 0.0

    def cli_overhead(spans):
        total = 0
        for s in spans:
            if not s["name"].startswith("cli."):
                continue
            inner = sum(_duration(c) for c in children.get(s["id"], ()))
            inner += sum(ns for _, _, ns, _ in own.get(s["id"], ()))
            total += _duration(s) - inner
        return total / 1e9

    def one_pass(label):
        spans = [s for s in tracer.spans if s["pass"] == label]
        counts = subtree_counts(s["id"] for s in spans if s["parent"] is None)
        m = {
            "graph.neighbors_calls": sum(c[0] for n, c in counts.items() if n.startswith("graph.neighbors.")),
            "graph.half_edges_ns": ns_per(counts, "graph.half_edges"),
            "walkers.step_calls": sum(c[0] for n, c in counts.items() if n.startswith("walkers.step.")),
            "walkers.sample_path_ns_per_step": per_unit(spans, "walkers.sample_path"),
            "walkers.enumerate_s": seconds(spans, "walkers.enumerate"),
            "walkers.expansions": expansions(spans, "walkers.enumerate"),
            "erasure.cursor_ns_per_token.short": per_unit(
                spans, "erasure.cursor", lambda s: s["units"] <= LONG_STREAM
            ),
            "erasure.cursor_ns_per_token.long": per_unit(
                spans, "erasure.cursor", lambda s: s["units"] > LONG_STREAM
            ),
            "erasure.stack_ns_per_token": per_unit(spans, "erasure.stack"),
            "erasure.erased_prefix_s": seconds(spans, "erasure.erased_prefix"),
            "erasure.move_law_s": seconds(spans, "erasure.move_law"),
            "erasure.expansions": expansions(spans, "erasure.erased_prefix", "erasure.move_law"),
            "contraction.induced_srw_s": seconds(spans, "contraction.induced", kind="srw"),
            "contraction.induced_nbrw_s": seconds(spans, "contraction.induced", kind="nbrw"),
            "contraction.expansions": expansions(spans, "contraction.induced"),
            "birthdeath.chain_move_law_s": seconds(spans, "birthdeath.chain_move_law"),
            "birthdeath.escape_s": seconds(spans, "birthdeath.escape"),
            "stats.total_variation_s": seconds(spans, "stats.total_variation"),
            "cli.overhead_s": cli_overhead(spans),
        }
        for fam in FAMILIES:
            m["graph.neighbors_ns." + fam] = ns_per(counts, "graph.neighbors." + fam)
        for kind in STEP_KINDS:
            m["walkers.step_ns." + kind] = ns_per(counts, "walkers.step." + kind)
        for path in KERNELS:
            m["stats.ns_per_step." + path] = ns_per(counts, "stats.kernel." + path, by_units=True)
        for sub in CLI_COMMANDS:
            m[f"cli.{sub}_s"] = seconds(spans, "cli." + sub)
        return m

    def one_setup(label):
        spans = [s for s in tracer.spans if s["pass"] == label]
        return {
            "graph.build_s": seconds(spans, "graph.build"),
            "contraction.contract_s": seconds(spans, "contraction.contract"),
        }

    out: dict = {}
    for labels, fn in ((passes, one_pass), (setups, one_setup)):
        rows = [fn(label) for label in labels]
        for key in rows[0]:
            out[key] = statistics.median(r[key] for r in rows)
    return out

