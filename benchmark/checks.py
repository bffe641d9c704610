"""Checks of the program's answers, computed apart from the program.

Interval answers are checked from the raw ``(label, left, right)``
intervals: a cover file is mapped back to intervals through the
documented vertex order and walked; its size is compared with the path
cover greedy of Arikati and Pandu Rangan, run here on the raw intervals;
on connected components of at most 12 vertices a terminal answer is
compared with the exact subset search of ``intervalpc.oracle``, which
shares no code with the engine.  Bipartite answers are walked over the
original edges and, on small graphs, compared with a brute-force search.

Each checker returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations

import sys
from bisect import bisect_left

from inputs import right_order

EXACT_MAX = 12
_GONE = float("inf")          # value of a removed entry
_ANY = sys.float_info.max     # query bound that every present entry meets


class _MinTree:
    """Minimum tree over a fixed array with point removal and the query
    'first index at or after a whose value is at most x'."""

    def __init__(self, values):
        size = 1
        while size < len(values):
            size *= 2
        self.size = size
        self.t = [_GONE] * (2 * size)
        self.t[size:size + len(values)] = values
        for i in range(size - 1, 0, -1):
            self.t[i] = min(self.t[2 * i], self.t[2 * i + 1])

    def remove(self, i):
        i += self.size
        self.t[i] = _GONE
        i //= 2
        while i:
            self.t[i] = min(self.t[2 * i], self.t[2 * i + 1])
            i //= 2

    def first(self, a, x):
        return self._first(1, 0, self.size, a, x)

    def _first(self, node, lo, hi, a, x):
        if hi <= a or self.t[node] > x:
            return None
        if hi - lo == 1:
            return lo
        mid = (lo + hi) // 2
        hit = self._first(2 * node, lo, mid, a, x)
        if hit is None:
            hit = self._first(2 * node + 1, mid, hi, a, x)
        return hit


def greedy_paths(intervals):
    """Minimum path cover by the Arikati-Pandu Rangan greedy: in the
    vertex order, start at the lowest unvisited vertex, step to the
    lowest unvisited neighbour, open a new path when stuck.  Returns the
    paths as lists of 1-based vertex numbers."""
    order = right_order(intervals)
    lefts = [intervals[i][1] for i in order]
    rights = [intervals[i][2] for i in order]
    tree = _MinTree(lefts)
    paths = []
    while True:
        v = tree.first(0, _ANY)
        if v is None:
            return paths
        path = [v + 1]
        tree.remove(v)
        while True:
            # earlier vertices meet v exactly when their right end
            # reaches v's left end; later ones when their left end
            # is at most v's right end
            u = tree.first(bisect_left(rights, lefts[v]), _ANY)
            if u is None or u > v:
                u = tree.first(v + 1, rights[v])
            if u is None:
                break
            path.append(u + 1)
            tree.remove(u)
            v = u
        paths.append(path)


def components(intervals):
    """Connected component id of every interval (by input position)."""
    comp = [0] * len(intervals)
    cid, reach = -1, None
    for i in sorted(range(len(intervals)), key=lambda i: intervals[i][1]):
        lo, hi = intervals[i][1], intervals[i][2]
        if reach is None or lo > reach:
            cid += 1
            reach = hi
        else:
            reach = max(reach, hi)
        comp[i] = cid
    return comp


def exact_sizes(intervals):
    """[lambda, lambda_T(1), ..., lambda_T(c)] of a small graph, vertices
    in the documented order, by the oracle's subset search over masks
    built here from pairwise intersection."""
    import numpy as np
    from intervalpc.oracle import oracle_sizes_all_terminals
    order = right_order(intervals)
    c = len(order)
    adj = np.zeros(c, dtype=np.int64)
    for a in range(c):
        for b in range(a + 1, c):
            ia, ib = intervals[order[a]], intervals[order[b]]
            if max(ia[1], ib[1]) <= min(ia[2], ib[2]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return [int(x) for x in oracle_sizes_all_terminals(adj, c)]


class IntervalReference:
    """Reference answers for one interval graph, built from its raw
    intervals: the order, the greedy's lambda, components, and exact
    answers for terminals in components of at most 12 vertices."""

    def __init__(self, intervals):
        self.intervals = intervals
        self.order = right_order(intervals)
        self.lam = len(greedy_paths(intervals))
        self.comp = components(intervals)
        self._exact = {}

    def exact_terminal(self, t):
        """Exact lambda_T of the whole graph, or None when the terminal's
        component has more than 12 vertices."""
        cid = self.comp[self.order[t - 1]]
        members = [i for i in range(len(self.intervals)) if self.comp[i] == cid]
        if len(members) > EXACT_MAX:
            return None
        if cid not in self._exact:
            self._exact[cid] = exact_sizes([self.intervals[i] for i in members])
        sizes = self._exact[cid]
        # position of t among its component, in the component's own order
        sub_order = right_order([self.intervals[i] for i in members])
        pos = [members[j] for j in sub_order].index(self.order[t - 1]) + 1
        return self.lam - sizes[0] + sizes[pos]


def parse_cover_text(text):
    """(header dict, [(flag, [v, ...]), ...]) of a cover file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = dict(tok.split("=", 1) for tok in lines[0].split())
    paths = []
    for ln in lines[1:]:
        head, _, rest = ln.partition(":")
        paths.append((head.split()[-1], [int(tok) for tok in rest.split()]))
    return header, paths


def check_cover(ref, text, terminal):
    """Problems with a cover file for ``ref``'s graph; ``terminal`` is a
    vertex number or None.  Returns (lambda read, problems)."""
    try:
        header, paths = parse_cover_text(text)
        lam = int(header["lambda"])
        n = int(header["n"])
    except (IndexError, KeyError, ValueError) as exc:
        return None, [f"unreadable cover: {exc}"]
    out = []
    if lam != len(paths):
        out.append(f"header lambda={lam} but {len(paths)} paths")
    if n != len(ref.intervals):
        out.append(f"header n={n} but the graph has {len(ref.intervals)}")
    seen = [0] * (len(ref.intervals) + 1)
    for _, verts in paths:
        for v in verts:
            if 1 <= v < len(seen):
                seen[v] += 1
            else:
                out.append(f"vertex {v} out of range")
        for a, b in zip(verts, verts[1:]):
            if 1 <= a < len(seen) and 1 <= b < len(seen):
                ia = ref.intervals[ref.order[a - 1]]
                ib = ref.intervals[ref.order[b - 1]]
                if max(ia[1], ib[1]) > min(ia[2], ib[2]):
                    out.append(f"consecutive {a},{b}: intervals {ia[0]} and "
                               f"{ib[0]} do not intersect")
    bad = [v for v in range(1, len(seen)) if seen[v] != 1]
    if bad:
        out.append(f"{len(bad)} vertices not covered exactly once, e.g. {bad[0]}")
    if terminal is not None:
        if not any(verts and terminal in (verts[0], verts[-1]) for _, verts in paths):
            out.append(f"terminal {terminal} is not a path endpoint")
    return len(paths), out


def check_size(ref, lam, terminal):
    """Problems with the path count of a valid cover."""
    if terminal is None:
        if lam != ref.lam:
            return [f"free lambda={lam}, greedy gives {ref.lam}"]
        return []
    if not ref.lam <= lam <= ref.lam + 1:
        return [f"lambda_T={lam} outside [{ref.lam}, {ref.lam + 1}]"]
    exact = ref.exact_terminal(terminal)
    if exact is not None and lam != exact:
        return [f"lambda_T={lam}, exact on the terminal's component gives {exact}"]
    return []


def check_solve(ref, cover_text, stdout, terminal):
    """Everything about one ``intervalpc solve`` answer."""
    lam, out = check_cover(ref, cover_text, terminal)
    if lam is None:
        return out
    if f"lambda={lam}" not in stdout.split():
        out.append(f"stdout {stdout.strip()!r} does not report lambda={lam}")
    return out + check_size(ref, lam, terminal)


# ----------------------------------------------------------------------
# bipartite answers

def parse_hp_answer(stdout):
    """(True, [labels]) for hp=yes, (False, None) for hp=no."""
    lines = stdout.split("\n")
    if lines[0] == "hp=no":
        return False, None
    if lines[0] == "hp=yes" and len(lines) > 1:
        return True, lines[1].split()
    raise ValueError(f"unexpected answer {stdout!r}")


def check_hp_walk(graph, labels, start=None):
    """Problems with a claimed Hamiltonian path of a bipartite graph."""
    k, m, edges = graph
    out = []
    want = {f"x{j}" for j in range(1, k + 1)} | {f"y{i}" for i in range(1, m + 1)}
    if len(labels) != len(want) or set(labels) != want:
        out.append("path does not visit every vertex of X and Y exactly once")
    for a, b in zip(labels, labels[1:]):
        if a[0] == b[0]:
            out.append(f"same-side pair {a},{b}")
        elif ((a, b) if a[0] == "x" else (b, a)) not in edges:
            out.append(f"{a},{b} is not an edge")
    if start is not None and (not labels or labels[0] != start):
        out.append(f"path does not start at {start}")
    return out


def hp_ends(graph):
    """Brute force: the set of vertices at which some Hamiltonian path
    of the bipartite graph ends (empty when there is none)."""
    k, m, edges = graph
    names = [f"x{j}" for j in range(1, k + 1)] + [f"y{i}" for i in range(1, m + 1)]
    idx = {name: i for i, name in enumerate(names)}
    adj = [0] * len(names)
    for x, y in edges:
        adj[idx[x]] |= 1 << idx[y]
        adj[idx[y]] |= 1 << idx[x]
    size = 1 << len(names)
    reach = [0] * size
    for v in range(len(names)):
        reach[1 << v] = 1 << v
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        r = 0
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            if reach[mask ^ b] & adj[b.bit_length() - 1]:
                r |= b
        reach[mask] = r
    full = reach[size - 1]
    return {names[v] for v in range(len(names)) if full >> v & 1}
