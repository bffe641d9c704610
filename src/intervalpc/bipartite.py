"""Hamiltonian paths on convex and biconvex bipartite graphs.

A bipartite graph G=(X, Y; E) is X-convex when every N(y) is a consecutive
run in the X ordering, and biconvex when the symmetric condition holds for
an ordering of Y as well.  Adding edges between same-side vertices whose
neighbourhood runs intersect turns G into an interval graph: each x
becomes the point interval [pos(x), pos(x)] and each y the run
[min N(y), max N(y)] over X positions, so interval overlap coincides
exactly with E plus the added same-side edges.

Hamiltonian path questions then reduce to path cover solves on that
interval graph: with the two sides (almost) balanced, the untouched side
stays independent in the augmented graph, which pins every Hamiltonian
path of the augmented graph to a strict alternation and therefore to
edges of G.  Any path handed back is still re-checked against the
original edges; a failure there signals a solver bug, never a negative
answer.

With |X| = |Y| the augmented graph G' can be Hamiltonian while G is not,
so a yes needs a Y-side fixed endpoint and the search tries every y.  A
no is cheaper: G is a spanning subgraph of G' and lambda_T >= lambda for
every terminal T, so when the free cover of G' needs two or more paths
no terminal solve can succeed.  One free solve therefore settles most
balanced questions without the loop.

Only the brute-force oracle loads numpy, and it imports it on first use.
"""

from __future__ import annotations

from itertools import permutations

from .engine import InternalInvariantViolation, solve_1pc
from .graphcore import IntervalModel, OrderedGraph, build_ordering

__all__ = [
    "BipartiteConvexGraph",
    "ConvexityViolation",
    "StartNotInY",
    "UnsupportedCase",
    "convexify",
    "hp_biconvex",
    "onehp_biconvex",
    "hp_xconvex",
    "onehp_xconvex",
    "find_observation51_counterexample",
    "hp_oracle",
    "hp_oracle_from",
    "parse_bipartite_file",
    "write_bipartite_file",
]


class ConvexityViolation(Exception):
    pass


class StartNotInY(Exception):
    pass


class UnsupportedCase(Exception):
    """Size/start combination the method does not cover (it would need the
    two-fixed-endpoint problem, which is open on interval graphs)."""


class BipartiteConvexGraph:
    """Two-sided vertex lists with orderings and a convexity level.

    ``convexity`` is ``"x"`` (only the X side ordered and convex) or
    ``"bi"`` (both).  Convexity of the given orderings is validated at
    construction time.
    """

    def __init__(self, x_order, y_order, edges, convexity="bi"):
        if convexity not in ("x", "bi"):
            raise ValueError("convexity must be 'x' or 'bi'")
        self.X = list(x_order)
        self.Y = list(y_order)
        self.convexity = convexity
        self.edges = {(x, y) for x, y in edges}
        xpos = {x: i + 1 for i, x in enumerate(self.X)}
        ypos = {y: i + 1 for i, y in enumerate(self.Y)}
        if len(xpos) != len(self.X) or len(ypos) != len(self.Y):
            raise ValueError("duplicate vertex labels")
        # neighbour positions on the other side, sorted: X positions per y
        # and Y positions per x, both from one pass over the edges
        self.n_of = {y: [] for y in self.Y}
        self._y_pos_of = {x: [] for x in self.X}
        for x, y in self.edges:
            if x not in xpos or y not in ypos:
                raise ValueError(f"edge ({x},{y}) uses unknown vertices")
            self.n_of[y].append(xpos[x])
            self._y_pos_of[x].append(ypos[y])
        for ps in self.n_of.values():
            ps.sort()
        for ps in self._y_pos_of.values():
            ps.sort()
        self._check_consecutive(self.n_of, "Y", "X")
        if convexity == "bi":
            self._check_consecutive(self._y_pos_of, "X", "Y")

    @staticmethod
    def _check_consecutive(nbrs, side, other):
        for v, positions in nbrs.items():
            if positions and positions[-1] - positions[0] + 1 != len(positions):
                raise ConvexityViolation(
                    f"{side}-vertex {v!r} has a non-consecutive run over {other}")

    def y_run(self, y):
        ps = self.n_of[y]
        return (ps[0], ps[-1]) if ps else None

    def x_run_over_y(self, x):
        ps = self._y_pos_of[x]
        return (ps[0], ps[-1]) if ps else None

    def degree_y(self, y):
        return len(self.n_of[y])

    def has_edge(self, x, y):
        return (x, y) in self.edges

    def __repr__(self):
        return (f"BipartiteConvexGraph(|X|={len(self.X)}, |Y|={len(self.Y)}, "
                f"m={len(self.edges)}, {self.convexity})")


def convexify(g: BipartiteConvexGraph, side: str):
    """Interval model of the augmented graph G' = (X u Y, E u E_side).

    side="add-Y-edges" joins y's with intersecting runs over X (needs
    X-convexity); side="add-X-edges" is the symmetric construction over
    the Y ordering (needs biconvexity).  Returns (OrderedGraph,
    IntervalModel); vertices with empty neighbourhoods get isolated point
    intervals.  The model's intersection graph equals the augmented edge
    set exactly: runs intersect iff the two neighbourhoods share a vertex.
    """
    if side == "add-Y-edges":
        points, runs = g.X, g.Y
        run_of = {y: g.y_run(y) for y in g.Y}
        tag_p, tag_r = "x", "y"
    elif side == "add-X-edges":
        if g.convexity != "bi":
            raise ConvexityViolation("add-X-edges needs a convex Y ordering")
        points, runs = g.Y, g.X
        run_of = {x: g.x_run_over_y(x) for x in g.X}
        tag_p, tag_r = "y", "x"
    else:
        raise ValueError("side must be 'add-Y-edges' or 'add-X-edges'")
    intervals = []
    for j, p in enumerate(points, 1):
        intervals.append(((tag_p, p), j, j))
    iso = 0
    for r in runs:
        span = run_of[r]
        if span is None:
            iso += 1
            intervals.append(((tag_r, r), -iso, -iso))
        else:
            intervals.append(((tag_r, r), span[0], span[1]))
    model = IntervalModel(intervals)
    return build_ordering(model), model


def _validate_in_g(g: BipartiteConvexGraph, labels):
    if len(labels) != len(g.X) + len(g.Y):
        raise InternalInvariantViolation("returned path does not cover X u Y")
    for (sa, a), (sb, b) in zip(labels, labels[1:]):
        if sa == sb:
            raise InternalInvariantViolation(
                f"returned path uses a same-side pair ({a},{b})")
        edge = (a, b) if sa == "x" else (b, a)
        if edge not in g.edges:
            raise InternalInvariantViolation(
                f"returned path uses non-edge {edge}")
    return labels


def _solve_hp(g, graph, terminal=None):
    """The labels of a one-path cover of ``graph`` (ending at
    ``terminal`` when one is given), checked against g's edges; None
    when the minimum cover needs more paths."""
    cover = solve_1pc(graph, terminal=terminal)
    if cover.lam != 1:
        return None
    return _validate_in_g(
        g, [graph.label_of(v) for v in cover.paths[0].vertices])


def _vertex_of_label(graph: OrderedGraph):
    return {graph.labels[v]: v for v in range(1, graph.n + 1)}


def _hp_balanced(g: BipartiteConvexGraph, trace):
    """HP question for |X| = |Y| through the Y-augmented graph G'.

    Any HP of G has a Y-side end, so it is the one-path cover of G' with
    a y as terminal; the alternation pins it to edges of G.  A degree-1 y
    must be an end, so it is the only terminal worth trying.  Otherwise
    the Y loop runs only when the free cover of G' is one path (see the
    module docstring).
    """
    deg1 = [y for y in g.Y if g.degree_y(y) == 1]
    if len(deg1) > 2:
        if trace is not None:
            trace.append("more than two degree-1 Y vertices: no HP")
        return None
    graph, _ = convexify(g, "add-Y-edges")
    vertex = _vertex_of_label(graph)
    if deg1:
        if trace is not None:
            trace.append(f"degree-1 shortcut through {deg1[0]!r}")
        return _solve_hp(g, graph, vertex[("y", deg1[0])])
    lam = solve_1pc(graph, terminal=None).lam
    if lam != 1:
        if trace is not None:
            trace.append(f"augmented graph needs {lam} paths: no HP")
        return None
    for y in g.Y:
        res = _solve_hp(g, graph, vertex[("y", y)])
        if res is not None:
            return res
    return None


def hp_biconvex(g: BipartiteConvexGraph, trace=None):
    """Hamiltonian path of a biconvex graph, or None.

    Balanced sides loop over all Y-side fixed endpoints of the augmented
    graph G' (a degree-one y short-circuits the loop).  The loop runs only
    when the free cover of G' is one path: G is a spanning subgraph of G'
    and lambda_T >= lambda for every terminal, so lambda(G') >= 2 already
    means no HP.  A side bigger by one needs only the free minimum path
    cover on the matching augmentation.  Reasons for a balanced answer are
    appended to ``trace`` when a list is given.
    """
    if g.convexity != "bi":
        raise ConvexityViolation("hp_biconvex needs a biconvex input")
    k, m = len(g.X), len(g.Y)
    if abs(k - m) > 1:
        return None
    if k == m:
        return _hp_balanced(g, trace)
    if k - m == 1:
        graph, _ = convexify(g, "add-Y-edges")
        return _solve_hp(g, graph)
    graph, _ = convexify(g, "add-X-edges")
    return _solve_hp(g, graph)


def onehp_biconvex(g: BipartiteConvexGraph, start):
    """Hamiltonian path of a biconvex graph starting at ``start`` in Y."""
    if g.convexity != "bi":
        raise ConvexityViolation("onehp_biconvex needs a biconvex input")
    if start not in set(g.Y):
        raise StartNotInY(f"{start!r} is not a Y vertex")
    k, m = len(g.X), len(g.Y)
    if abs(k - m) > 1:
        return None
    if k - m == 1:
        return None  # endpoints of any HP both lie in X
    side = "add-Y-edges" if k == m else "add-X-edges"
    graph, _ = convexify(g, side)
    res = _solve_hp(g, graph, _vertex_of_label(graph)[("y", start)])
    if res is not None and res[0] != ("y", start):
        res.reverse()
    return res


def hp_xconvex(g: BipartiteConvexGraph, trace=None):
    """HP on an X-convex graph; supported when |X|=|Y| or |X|-|Y|=1.
    The balanced case is the one of ``hp_biconvex``, trace included."""
    k, m = len(g.X), len(g.Y)
    if abs(k - m) > 1:
        return None
    if m - k == 1:
        raise UnsupportedCase(
            "|Y|-|X|=1 on an X-convex graph needs the two-fixed-endpoint "
            "problem, which is open")
    if k == m:
        return _hp_balanced(g, trace)
    graph, _ = convexify(g, "add-Y-edges")
    return _solve_hp(g, graph)


def onehp_xconvex(g: BipartiteConvexGraph, start):
    """1HP on an X-convex graph for the supported size/start cases.  A
    label on both sides names its X vertex."""
    in_x = start in set(g.X)
    if not in_x and start not in set(g.Y):
        raise ValueError(f"{start!r} is not a vertex")
    return _onehp_xconvex(g, "x" if in_x else "y", start)


def _onehp_xconvex(g: BipartiteConvexGraph, side, start):
    """``onehp_xconvex`` from the vertex ``start`` on ``side`` ("x" or
    "y"), which also holds when X and Y share the label."""
    k, m = len(g.X), len(g.Y)
    if abs(k - m) > 1:
        return None
    if k == m:
        if side == "x":
            raise UnsupportedCase(
                "|X|=|Y| with a start in X needs the two-fixed-endpoint problem")
        graph, _ = convexify(g, "add-Y-edges")
    elif k - m == 1:
        graph, _ = convexify(g, "add-Y-edges")
    else:  # m - k == 1
        if side == "x":
            return None  # endpoints of any HP both lie in Y
        raise UnsupportedCase(
            "|Y|-|X|=1 with a start in Y needs the two-fixed-endpoint problem")
    res = _solve_hp(g, graph, _vertex_of_label(graph)[(side, start)])
    if res is not None and res[0] != (side, start):
        res.reverse()
    return res


# ----------------------------------------------------------------------
# brute-force HP oracle (independent of the reduction)

def hp_oracle_from(labels, adjacency) -> bool:
    """Does the graph on ``labels`` with ``adjacency[u] = iterable of
    neighbours`` have a Hamiltonian path, a cover by one path (so the
    empty graph has none)?  Bitmask DP, n <= 20."""
    import numpy as np

    from . import kernels
    n = len(labels)
    if n > 20:
        raise ValueError("brute-force HP oracle capped at 20 vertices")
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = np.zeros(n, dtype=np.int64)
    for u, nbrs in adjacency.items():
        for v in nbrs:
            adj[idx[u]] |= np.int64(1) << idx[v]
    reach = kernels.reach_table(adj, n)
    return int(reach[(1 << n) - 1]) != 0


def _adjacency(g: BipartiteConvexGraph):
    """(labels, adjacency) of g for ``hp_oracle_from``."""
    labels = [("x", x) for x in g.X] + [("y", y) for y in g.Y]
    adjacency = {lab: set() for lab in labels}
    for x, y in g.edges:
        adjacency[("x", x)].add(("y", y))
        adjacency[("y", y)].add(("x", x))
    return labels, adjacency


def hp_oracle(g: BipartiteConvexGraph) -> bool:
    return hp_oracle_from(*_adjacency(g))


def _augmented_hp(g: BipartiteConvexGraph) -> bool:
    """HP existence in G' = (X u Y, E u E_Y), by brute force."""
    labels, adjacency = _adjacency(g)
    runs = {y: g.y_run(y) for y in g.Y}
    ys = list(g.Y)
    for i, y1 in enumerate(ys):
        for y2 in ys[i + 1:]:
            r1, r2 = runs[y1], runs[y2]
            if r1 and r2 and r1[0] <= r2[1] and r2[0] <= r1[1]:
                adjacency[("y", y1)].add(("y", y2))
                adjacency[("y", y2)].add(("y", y1))
    return hp_oracle_from(labels, adjacency)


def _biconvex_y_order(k, run_list):
    """A Y ordering certifying biconvexity of the runs, or None."""
    m = len(run_list)
    cols = []
    for j in range(1, k + 1):
        cols.append(frozenset(i for i, (a, b) in enumerate(run_list) if a <= j <= b))
    for perm in permutations(range(m)):
        pos = {y: p for p, y in enumerate(perm)}
        ok = True
        for col in cols:
            ps = sorted(pos[y] for y in col)
            if ps and ps[-1] - ps[0] + 1 != len(ps):
                ok = False
                break
        if ok:
            return list(perm)
    return None


def find_observation51_counterexample(bound: int):
    """Search balanced biconvex graphs for one where the Y-augmented
    interval graph is Hamiltonian but the bipartite graph is not.

    Exhausts |X| = |Y| = k for k up to ``bound``, canonicalising run
    multisets (and their left-right mirrors) to skip relabelled
    duplicates.  Sizes are tried from ``bound`` downward, so the call
    with bound 4 exhibits a counterexample of that size (smaller ones
    exist too, from |X| = |Y| = 3 on).  Returns the first instance
    found, or None.
    """
    for k in range(bound, 0, -1):
        runs = [(a, b) for a in range(1, k + 1) for b in range(a, k + 1)]
        seen = set()
        for assignment in _assignments(runs, k):
            key = tuple(sorted(assignment))
            mirror = tuple(sorted((k + 1 - b, k + 1 - a) for a, b in assignment))
            if key in seen or mirror in seen:
                continue
            seen.add(key)
            order = _biconvex_y_order(k, list(key))
            if order is None:
                continue
            x_order = [f"x{j}" for j in range(1, k + 1)]
            y_names = [f"y{i}" for i in range(1, k + 1)]
            y_order = [y_names[i] for i in order]
            edges = []
            for i, (a, b) in enumerate(key):
                for j in range(a, b + 1):
                    edges.append((f"x{j}", y_names[i]))
            g = BipartiteConvexGraph(x_order, y_order, edges, "bi")
            if _augmented_hp(g) and not hp_oracle(g):
                return g
    return None


def _assignments(runs, k):
    """Non-decreasing k-tuples over the run list (combinations with
    repetition), in lexicographic order."""
    def rec(start, acc):
        if len(acc) == k:
            yield tuple(acc)
            return
        for i in range(start, len(runs)):
            acc.append(runs[i])
            yield from rec(i, acc)
            acc.pop()
    yield from rec(0, [])


# ----------------------------------------------------------------------
# file format

def parse_bipartite_file(text: str) -> BipartiteConvexGraph:
    """Header ``X=<k> Y=<m> convex=<x|bi>``, an ``X:`` ordering line, an
    optional ``Y:`` ordering line, then ``x y`` edge lines."""
    header = None
    x_order = y_order = None
    edges = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            fields = dict(tok.partition("=")[::2] for tok in line.split())
            missing = [key for key in ("X", "Y", "convex") if not fields.get(key)]
            if missing:
                raise ValueError(f"line {ln}: header needs "
                                 + " ".join(f"{key}=" for key in missing))
            header = (int(fields["X"]), int(fields["Y"]), fields["convex"])
            continue
        if line.startswith("X:"):
            x_order = line[2:].split()
            continue
        if line.startswith("Y:"):
            y_order = line[2:].split()
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected edge 'x y'")
        edges.append((parts[0], parts[1]))
    if header is None or x_order is None:
        raise ValueError("missing header or X ordering")
    k, m, conv = header
    if conv not in ("x", "bi"):
        raise ValueError(f"unknown convexity {conv!r}")
    if y_order is None:
        ys = sorted({y for _, y in edges})
        if len(ys) != m:
            raise ValueError("Y ordering line required (isolated Y vertices)")
        y_order = ys
    if len(x_order) != k or len(y_order) != m:
        raise ValueError("ordering lines do not match header sizes")
    return BipartiteConvexGraph(x_order, y_order, edges, conv)


def write_bipartite_file(g: BipartiteConvexGraph) -> str:
    lines = [f"X={len(g.X)} Y={len(g.Y)} convex={g.convexity}"]
    lines.append("X: " + " ".join(str(x) for x in g.X))
    lines.append("Y: " + " ".join(str(y) for y in g.Y))
    for x, y in sorted(g.edges, key=lambda e: (str(e[0]), str(e[1]))):
        lines.append(f"{x} {y}")
    return "\n".join(lines) + "\n"
