"""Interval models and the canonical right-endpoint vertex ordering.

An interval graph is handled through an ``OrderedGraph``: vertices are
renumbered 1..n by ascending right interval endpoint, which guarantees the
ordering property

    for all i < j < k:  if (i, k) is an edge then (j, k) is an edge.

Under that property the earlier neighbours of any vertex k form the
contiguous window [W(k), k-1], so a single array of window starts encodes
the whole adjacency structure.  Everything downstream (the cover engine,
the validators) queries adjacency through that window.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction

__all__ = [
    "IntervalModel",
    "OrderedGraph",
    "OrderingViolation",
    "build_ordering",
    "validate_ordering",
    "parse_interval_file",
    "parse_adjacency_file",
    "write_interval_file",
]


class OrderingViolation(Exception):
    """A claimed vertex ordering breaks the interval ordering property.

    Carries the witnessing triple i < j < k with (i,k) an edge but (j,k)
    not an edge.
    """

    def __init__(self, i: int, j: int, k: int):
        self.triple = (i, j, k)
        super().__init__(f"ordering property violated: {i}<{j}<{k}, "
                         f"edge ({i},{k}) present but ({j},{k}) missing")


class IntervalModel:
    """A family of closed intervals with unique labels.

    Endpoints are exact rationals: an integral endpoint is held as an
    ``int``, any other as a ``fractions.Fraction``.  The two compare
    exactly with each other.  Touching endpoints count as intersection.
    """

    def __init__(self, intervals):
        items = []
        seen = set()
        for label, lo, hi in intervals:
            lo, hi = _exact(lo), _exact(hi)
            if hi < lo:
                raise ValueError(f"interval {label!r}: right end {hi} < left end {lo}")
            if label in seen:
                raise ValueError(f"duplicate interval id {label!r}")
            seen.add(label)
            items.append((label, lo, hi))
        self.intervals = tuple(items)

    def __len__(self):
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalModel) and self.intervals == other.intervals


def _exact(x):
    """``x`` as an ``int`` when integral, else as a ``Fraction``."""
    if type(x) is int:
        return x
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


class OrderedGraph:
    """Adjacency structure with the right-endpoint numbering baked in.

    Vertices are 1..n.  ``window[k]`` is the smallest index adjacent to k
    among 1..k-1, or k itself when no earlier neighbour exists; the earlier
    neighbourhood of k is exactly [window[k], k-1].  Immutable after
    construction.
    """

    def __init__(self, n: int, window: list[int], labels=None):
        self.n = n
        # window is 1-based; index 0 unused
        self.window = window
        self.labels = labels if labels is not None else list(range(n + 1))

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        if u > v:
            u, v = v, u
        return u >= self.window[v]

    def neighbors(self, v: int) -> list[int]:
        out = list(range(self.window[v], v))
        out.extend(u for u in range(v + 1, self.n + 1) if self.window[u] <= v)
        return out

    def edge_count(self) -> int:
        return sum(v - self.window[v] for v in range(1, self.n + 1))

    def edges(self):
        for v in range(1, self.n + 1):
            for u in range(self.window[v], v):
                yield (u, v)

    def label_of(self, v: int):
        return self.labels[v]


def build_ordering(model: IntervalModel) -> OrderedGraph:
    """Number the intervals by ascending right endpoint and build the graph.

    Ties on right endpoints break by ascending left endpoint, then input
    order.  Edge (i, j) holds iff the closed intervals intersect; with the
    sorted numbering that reduces to left_j <= right_i for i < j, so each
    window start comes from one binary search over the sorted right ends.
    """
    keyed = sorted((hi, lo, idx)
                   for idx, (_, lo, hi) in enumerate(model.intervals))
    n = len(keyed)
    rights = [hi for hi, _, _ in keyed]
    window = [0] * (n + 1)
    for pos, (_, left, _) in enumerate(keyed, 1):
        # first earlier interval whose right end reaches this left end
        w = bisect_left(rights, left, 0, pos - 1) + 1
        window[pos] = w if w < pos else pos
    labels = [None] + [model.intervals[idx][0] for _, _, idx in keyed]
    return OrderedGraph(n, window, labels)


def validate_ordering(n: int, edges, pi: list[int]) -> OrderedGraph:
    """Check a claimed ordering against the interval ordering property.

    ``pi`` lists original vertex names in claimed order, so pi[0] becomes
    v_1.  Raises OrderingViolation with the failing triple; on success
    returns an OrderedGraph whose labels map back to the original names.
    """
    if sorted(pi) != sorted(set(pi)) or len(pi) != n:
        raise ValueError("pi is not a permutation of the vertices")
    index_of = {name: i + 1 for i, name in enumerate(pi)}
    nbrs = [set() for _ in range(n + 1)]
    for a, b in edges:
        u, v = index_of[a], index_of[b]
        if u == v:
            raise ValueError(f"self-loop on {a}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    window = [0] * (n + 1)
    for k in range(1, n + 1):
        earlier = [u for u in nbrs[k] if u < k]
        if not earlier:
            window[k] = k
            continue
        w = min(earlier)
        # contiguity: everything in (w, k) must also be adjacent to k
        if len(earlier) != k - w:
            for j in range(w + 1, k):
                if j not in nbrs[k]:
                    raise OrderingViolation(w, j, k)
        window[k] = w
    return OrderedGraph(n, window, [None] + list(pi))


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _parse_rational(tok: str) -> int | Fraction:
    """An ``int`` for an integer token, else an exact ``Fraction``."""
    if tok.isdecimal() and tok.isascii() or _INTEGER.fullmatch(tok):
        return int(tok)
    try:
        if "/" in tok:
            p, q = tok.split("/", 1)
            return Fraction(int(p), int(q))
        return Fraction(tok)
    except ZeroDivisionError:
        raise ValueError(f"endpoint {tok!r} has a zero denominator") from None


def parse_interval_file(text: str) -> IntervalModel:
    """One record per line: ``<id> <left> <right>``; ``#`` starts a comment."""
    intervals = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"line {ln}: expected '<id> <left> <right>', got {raw!r}")
        label, lo, hi = parts
        intervals.append((label, _parse_rational(lo), _parse_rational(hi)))
    return IntervalModel(intervals)


def write_interval_file(model: IntervalModel) -> str:
    lines = []
    for label, lo, hi in model:
        lines.append(f"{label} {lo} {hi}")
    return "\n".join(lines) + "\n"


def parse_adjacency_file(text: str):
    """Header ``n m``, then m ``u v`` edge lines (1-based), optional
    ``pi: i1 i2 ... in`` line declaring a claimed ordering.

    Returns (n, edges, pi) with pi defaulting to the identity.
    """
    n = m = None
    edges = []
    pi = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("pi:"):
            pi = [int(tok) for tok in line[3:].split()]
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2:
                raise ValueError(f"line {ln}: expected header 'n m'")
            n, m = int(parts[0]), int(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"line {ln}: expected edge 'u v'")
        u, v = int(parts[0]), int(parts[1])
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"line {ln}: vertex out of range")
        edges.append((u, v))
    if n is None:
        raise ValueError("missing header line 'n m'")
    if m is not None and len(edges) != m:
        raise ValueError(f"header announced {m} edges, found {len(edges)}")
    if pi is None:
        pi = list(range(1, n + 1))
    elif sorted(pi) != list(range(1, n + 1)):
        raise ValueError("pi is not a permutation of 1..n")
    return n, edges, pi
