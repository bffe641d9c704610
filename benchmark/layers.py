"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the ``intervalpc``
modules (cli, graphcore, engine, oracle, kernels, bipartite) by wrappers
that time each call and count its work, in every module that imported
them by name.  ``uninstall`` puts the originals back.  A layer's time is
the wall time of its calls; ``cli.self_s`` is the time inside
``cli.main`` that its calls into the other layers do not cover.  Spans
are summed in memory; ``metrics`` divides every sum by the number of
round sends, so that runs of different lengths compare.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

EDIT_KINDS = ("connect", "insert", "bridge", "new_path", "connect_break",
              "detour", "split_merge")

# (per-layer metric, unit, better); every name ``metrics`` reports
METRICS = [
    ("graphcore.parse_s", "s", "lower"),
    ("graphcore.build_ordering_s", "s", "lower"),
    ("graphcore.vertices", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("engine.solve_free_s", "s", "lower"),
    ("engine.solves_free", "count", "lower"),
    ("engine.solve_terminal_s", "s", "lower"),
    ("engine.solves_terminal", "count", "lower"),
    ("engine.terminal_over_free", "ratio", "lower"),
] + [(f"engine.edits.{k}", "count", "lower") for k in EDIT_KINDS] + [
    ("engine.serialize_s", "s", "lower"),
    ("engine.parse_cover_s", "s", "lower"),
    ("engine.paths", "count", "lower"),
    ("oracle.validate_s", "s", "lower"),
    ("oracle.nesting_s", "s", "lower"),
    ("oracle.diff_s", "s", "lower"),
    ("oracle.comparisons", "count", "lower"),
    ("oracle.run_engine_s", "s", "lower"),
    ("kernels.cover_tables_s", "s", "lower"),
    ("kernels.reach_table_s", "s", "lower"),
    ("kernels.terminal_sizes_s", "s", "lower"),
    ("kernels.table_rows", "count", "lower"),
    ("bipartite.parse_s", "s", "lower"),
    ("bipartite.convexify_s", "s", "lower"),
    ("bipartite.solve_s", "s", "lower"),
    ("bipartite.solves_per_question", "ratio", "lower"),
]


class Tracer:
    def __init__(self):
        self.sums = defaultdict(float)
        self.free_times = defaultdict(list)      # graph key -> free solve times
        self.terminal_times = defaultdict(list)  # graph key -> terminal solve times
        self._stack = []      # time covered by child spans of each open span
        self._patched = []
        self._in_question = 0  # 1 while a bipartite question runs

    # -- spans --------------------------------------------------------

    def _span(self, fn, on_exit, self_metric=None):
        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += dt
            if self_metric is not None:
                self.sums[self_metric] += dt - children
            on_exit(dt, args, kwargs, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _timed(self, metric):
        def on_exit(dt, args, kwargs, result):
            self.sums[metric] += dt
        return on_exit

    # -- layer-specific counts ----------------------------------------

    def _build_ordering(self, dt, args, kwargs, result):
        self.sums["graphcore.build_ordering_s"] += dt
        self.sums["graphcore.vertices"] += result.n

    def _kernel(self, metric, n_index):
        """A kernel whose vertex count is positional argument n_index."""
        def on_exit(dt, args, kwargs, result):
            self.sums[metric] += dt
            self.sums["kernels.table_rows"] += 1 << args[n_index]
        return on_exit

    def _diff(self, dt, args, kwargs, result):
        self.sums["oracle.diff_s"] += dt
        self.sums["oracle.comparisons"] += result.comparisons

    def _question(self, dt, args, kwargs, result):
        self.sums["bipartite.solve_s"] += dt
        self.sums["bipartite.questions"] += 1

    def _solve(self, dt, args, kwargs, result):
        g, terminal = args[0], args[1]
        kind = "free" if terminal is None else "terminal"
        self.sums[f"engine.solve_{kind}_s"] += dt
        self.sums[f"engine.solves_{kind}"] += 1
        self.sums["engine.paths"] += result.lam
        self.sums["bipartite.solves"] += self._in_question
        times = self.free_times if terminal is None else self.terminal_times
        times[(g.n, hash(tuple(g.window)))].append(dt)

    def _wrap_solve(self, fn):
        """solve_1pc, called with a trace list so that edits are counted."""
        timed = self._span(fn, self._solve)

        def solve(g, terminal=None, trace=None, validate_each_step=False):
            own = [] if trace is None else trace
            mark = len(own)
            cover = timed(g, terminal, own, validate_each_step)
            for _, op, _ in own[mark:]:
                self.sums[f"engine.edits.{op}"] += 1
            return cover
        solve.__wrapped__ = fn
        return solve

    def _wrap_question(self, fn):
        inner = self._span(fn, self._question)

        def question(*args, **kwargs):
            self._in_question = 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._in_question = 0
        question.__wrapped__ = fn
        return question

    # -- install / uninstall ------------------------------------------

    def install(self):
        import intervalpc.bipartite as bipartite
        import intervalpc.cli as cli
        import intervalpc.engine as engine
        import intervalpc.graphcore as graphcore
        import intervalpc.kernels as kernels
        import intervalpc.oracle as oracle
        plan = [
            (cli, "main", self._span(cli.main, lambda *a: None, "cli.self_s")),
            (graphcore, "parse_interval_file",
             self._span(graphcore.parse_interval_file, self._timed("graphcore.parse_s"))),
            (graphcore, "build_ordering",
             self._span(graphcore.build_ordering, self._build_ordering)),
            (engine, "solve_1pc", self._wrap_solve(engine.solve_1pc)),
            (engine, "serialize_cover",
             self._span(engine.serialize_cover, self._timed("engine.serialize_s"))),
            (engine, "parse_cover",
             self._span(engine.parse_cover, self._timed("engine.parse_cover_s"))),
            (oracle, "validate_cover",
             self._span(oracle.validate_cover, self._timed("oracle.validate_s"))),
            (oracle, "check_nesting",
             self._span(oracle.check_nesting, self._timed("oracle.nesting_s"))),
            (oracle, "diff_engine_vs_oracle",
             self._span(oracle.diff_engine_vs_oracle, self._diff)),
            (kernels, "cover_tables",
             self._span(kernels.cover_tables, self._kernel("kernels.cover_tables_s", 1))),
            (kernels, "reach_table",
             self._span(kernels.reach_table, self._kernel("kernels.reach_table_s", 1))),
            (kernels, "terminal_sizes",
             self._span(kernels.terminal_sizes, self._kernel("kernels.terminal_sizes_s", 2))),
            (bipartite, "parse_bipartite_file",
             self._span(bipartite.parse_bipartite_file, self._timed("bipartite.parse_s"))),
            (bipartite, "convexify",
             self._span(bipartite.convexify, self._timed("bipartite.convexify_s"))),
            (bipartite, "hp_biconvex", self._wrap_question(bipartite.hp_biconvex)),
            (bipartite, "onehp_biconvex", self._wrap_question(bipartite.onehp_biconvex)),
        ]
        modules = [m for name, m in sys.modules.items()
                   if name == "intervalpc" or name.startswith("intervalpc.")]
        for home, name, wrapper in plan:
            orig = getattr(home, name)
            for mod in modules:
                if getattr(mod, name, None) is orig:
                    self._patched.append((mod, name, orig))
                    setattr(mod, name, wrapper)
        # the differential runner's own engine runs, timed apart
        self._patched.append((oracle, "run_engine", oracle.run_engine))
        oracle.run_engine = self._span(oracle.run_engine,
                                       self._timed("oracle.run_engine_s"))

    def uninstall(self):
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched = []

    # -- report -------------------------------------------------------

    def metrics(self, sends):
        out = {}
        for name, unit, _ in METRICS:
            out[name] = {"value": self.sums.get(name, 0.0) / sends, "unit": unit}
        both = [k for k in self.terminal_times if k in self.free_times]
        if both:
            term = statistics.median(t for k in both for t in self.terminal_times[k])
            free = statistics.median(t for k in both for t in self.free_times[k])
            out["engine.terminal_over_free"]["value"] = term / free
        else:
            out["engine.terminal_over_free"]["value"] = 0.0
        questions = self.sums.get("bipartite.questions", 0)
        out["bipartite.solves_per_question"]["value"] = (
            self.sums.get("bipartite.solves", 0) / questions if questions else 0.0)
        return out
