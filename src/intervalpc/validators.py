"""Independent structural validators for finished covers.

They check exact coverage, disjointness, edge validity, the
terminal-endpoint condition, the degree-sum identity
sum(d) = 2(n - lambda), and the endpoint non-nesting property of
engine-built covers.  This module loads no numpy, so ``intervalpc verify``
runs without it; ``oracle`` re-exports both functions.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .engine import PathCover
from .graphcore import OrderedGraph

__all__ = ["validate_cover", "check_nesting"]


def validate_cover(g: OrderedGraph, cover: PathCover, terminal=None):
    """Structural checks; returns a list of (kind, message) violations."""
    out = []
    n = g.n
    if cover.n != n:
        out.append(("SizeViolation", f"cover built for n={cover.n}, graph has n={n}"))
    if cover.lam != len(cover.paths):
        out.append(("SizeViolation", "lambda does not equal the path count"))
    seen = {}
    for idx, p in enumerate(cover.paths):
        for v in p.vertices:
            if not 1 <= v <= n:
                out.append(("CoverageViolation", f"vertex {v} out of range"))
            elif v in seen:
                out.append(("DisjointnessViolation",
                            f"vertex {v} in paths {seen[v]} and {idx}"))
            else:
                seen[v] = idx
        for a, b in zip(p.vertices, p.vertices[1:]):
            if not g.has_edge(a, b):
                out.append(("AdjacencyViolation",
                            f"consecutive pair ({a},{b}) is not an edge"))
    missing = [v for v in range(1, n + 1) if v not in seen]
    if missing:
        out.append(("CoverageViolation", f"vertices not covered: {missing}"))
    if terminal is not None:
        hits = [idx for idx, p in enumerate(cover.paths)
                if terminal in (p.vertices[0], p.vertices[-1])]
        if len(hits) != 1:
            out.append(("TerminalViolation",
                        f"terminal {terminal} is an endpoint of {len(hits)} paths"))
    # degree sum over the cover's paths
    dsum = sum(2 * (len(p) - 1) for p in cover.paths)
    if not missing and dsum != 2 * (n - cover.lam):
        out.append(("DConnectivityViolation",
                    f"sum of degrees {dsum} != 2(n - lambda) = {2 * (n - cover.lam)}"))
    return out


def check_nesting(g: OrderedGraph, cover: PathCover):
    """Non-nesting of path endpoint spans (free paths only when a
    terminal path exists, all pairs otherwise)."""
    out = []
    paths = list(enumerate(cover.paths))
    if cover.terminal is not None:
        paths = [(i, p) for i, p in paths if p.kind != "terminal"]
    spans = [(i, min(p.endpoints), max(p.endpoints)) for i, p in paths]
    # every path endpoint as (value, path, slot); a path never has an
    # endpoint strictly inside its own span
    ends = sorted((e, i, slot) for i, lo, hi in spans
                  for slot, e in enumerate((lo, hi)))
    values = [e for e, _, _ in ends]
    for ia, lo_a, hi_a in spans:
        inside = ends[bisect_right(values, lo_a):bisect_left(values, hi_a)]
        for e, ib, _ in sorted(inside, key=lambda t: t[1:]):
            out.append(("NestingViolation",
                        f"endpoint {e} of path {ib} lies inside the "
                        f"span ({lo_a},{hi_a}) of path {ia}"))
    return out
