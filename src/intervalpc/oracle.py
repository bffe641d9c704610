"""Exact exponential oracle over vertex subsets.

The oracle answers minimum path cover questions by dynamic programming
over vertex subsets (see ``kernels``), deliberately sharing no code path
with the greedy engine.  One table pass answers the free problem and the
fixed-endpoint problem for *every* terminal at once: a vertex t admits a
cover of the free optimum size with t as an endpoint iff some subset with
a Hamiltonian path ending at t completes to the optimum.

The differential runner builds the tables once per instance: a row for
a vertex subset reads only its submasks, so the rows below ``1 << i`` are
already the tables of the prefix graph on the first i vertices, and one
table pass answers every prefix.

The structural validators live in ``validators`` (which loads no numpy)
and are re-exported here.
"""

from __future__ import annotations

import json

import numpy as np

from . import kernels
from .engine import Path, PathCover, run_engine
from .graphcore import OrderedGraph, build_ordering
from .validators import check_nesting, validate_cover

__all__ = [
    "InstanceTooLarge",
    "OracleResult",
    "validate_cover",
    "check_nesting",
    "oracle_min_cover",
    "oracle_sizes_all_terminals",
    "diff_engine_vs_oracle",
    "DiffReport",
]

ORACLE_MAX_N = 12
ORACLE_MAX_ENUM_N = 8


class InstanceTooLarge(Exception):
    """Instance exceeds the configured oracle bound."""


class OracleResult:
    def __init__(self, min_size, witness, all_optima=None):
        self.min_size = min_size
        self.witness = witness
        self.all_optima = all_optima

    def __repr__(self):
        extra = f", optima={len(self.all_optima)}" if self.all_optima is not None else ""
        return f"OracleResult(min_size={self.min_size}{extra})"


# ----------------------------------------------------------------------
# the subset DP oracle

def adjacency_masks(g: OrderedGraph) -> np.ndarray:
    """0-based neighbour bitmasks, built from explicit neighbour lists."""
    adj = np.zeros(g.n, dtype=np.int64)
    for v in range(1, g.n + 1):
        m = 0
        for u in g.neighbors(v):
            m |= 1 << (u - 1)
        adj[v - 1] = m
    return adj


def masks_from_model_bruteforce(model) -> np.ndarray:
    """Adjacency by direct pairwise closed-interval intersection: the
    naive quadratic edge oracle, ordered like build_ordering."""
    items = sorted(enumerate(model.intervals),
                   key=lambda t: (t[1][2], t[1][1], t[0]))
    n = len(items)
    adj = np.zeros(n, dtype=np.int64)
    for i in range(n):
        _, (_, lo_i, hi_i) = items[i]
        for j in range(i + 1, n):
            _, (_, lo_j, hi_j) = items[j]
            if max(lo_i, lo_j) <= min(hi_i, hi_j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


def oracle_sizes_all_terminals(adj: np.ndarray, n: int) -> np.ndarray:
    """[lam_free, lam_T(1), ..., lam_T(n)] for the graph given as masks."""
    _, g_tab = kernels.cover_tables(adj, n)
    reach = kernels.reach_table(adj, n)
    return kernels.terminal_sizes(g_tab, reach, n)


def _augment_pendant(adj: np.ndarray, n: int, t0: int) -> np.ndarray:
    adj2 = np.zeros(n + 1, dtype=np.int64)
    adj2[:n] = adj
    adj2[t0] |= np.int64(1) << n
    adj2[n] = np.int64(1) << t0
    return adj2


def _reconstruct_one(adj, n, f, g_tab, start_last):
    """Walk the DP tables back to one optimal cover (0-based lists)."""
    full = (1 << n) - 1
    paths = []
    mask = full
    cur = start_last
    path = [cur]
    while True:
        prev = mask ^ (1 << cur)
        if prev == 0:
            paths.append(path)
            break
        extended = False
        cand = int(adj[cur]) & prev
        mm = cand
        while mm:
            b = mm & (-mm)
            mm ^= b
            u = b.bit_length() - 1
            if f[prev, u] == f[mask, cur]:
                path.append(u)
                mask, cur = prev, u
                extended = True
                break
        if extended:
            continue
        # close this path, open the next at the best remaining end
        paths.append(path)
        mask = prev
        best = None
        for u in range(n):
            if (mask >> u) & 1 and (best is None or f[mask, u] < f[mask, best]):
                best = u
        cur = best
        path = [cur]
    return paths


def _enumerate_paths_through(adj_sets, remaining, s):
    """All simple paths inside ``remaining`` that contain vertex s,
    one orientation each."""
    def arms(start, avoid):
        # all simple walks from start (start excluded from output)
        yield ()
        for u in sorted(adj_sets[start] & remaining - avoid):
            for rest in arms(u, avoid | {u}):
                yield (u,) + rest

    for right in arms(s, {s}):
        right_set = set(right)
        for left in arms(s, {s} | right_set):
            l_end = left[-1] if left else s
            r_end = right[-1] if right else s
            if l_end > r_end or (left and not right):
                continue  # canonical orientation
            yield tuple(reversed(left)) + (s,) + right


def oracle_min_cover(g: OrderedGraph, terminal=None,
                     enumerate_all=False) -> OracleResult:
    """Exact minimum 1PC via subset DP; optionally every optimal cover.

    The terminal constraint rides on a pendant vertex attached to the
    terminal: covers of the augmented graph that keep the pendant
    non-trivial correspond exactly to covers with the terminal as an
    endpoint.
    """
    n = g.n
    limit = ORACLE_MAX_ENUM_N if enumerate_all else ORACLE_MAX_N
    if n > limit:
        raise InstanceTooLarge(f"n={n} exceeds oracle bound {limit}")
    if n == 0:
        empty = PathCover([], terminal, 0)
        return OracleResult(0, empty, [] if enumerate_all else None)
    adj = adjacency_masks(g)
    f, g_tab = kernels.cover_tables(adj, n)
    full = (1 << n) - 1
    if terminal is None:
        min_size = int(g_tab[full])
        best = min(range(n), key=lambda u: f[full, u])
        raw = _reconstruct_one(adj, n, f, g_tab, best)
        witness = _paths_to_cover(raw, terminal, n)
        g2 = None
    else:
        t0 = terminal - 1
        adj2 = _augment_pendant(adj, n, t0)
        f2, g2 = kernels.cover_tables(adj2, n + 1)
        min_size = int(g2[(1 << (n + 1)) - 1])
        raw = _reconstruct_one(adj2, n + 1, f2, g2, n)  # anchor at the pendant
        raw = [[v for v in p if v != n] for p in raw]
        raw = [p for p in raw if p]
        witness = _paths_to_cover(raw, terminal, n)
    optima = None
    if enumerate_all:
        optima = []
        adj_sets = [set() for _ in range(n)]
        for v in range(n):
            m = int(adj[v])
            while m:
                b = m & (-m)
                m ^= b
                adj_sets[v].add(b.bit_length() - 1)

        def bound(mask):
            if mask == 0:
                return 0
            if terminal is not None and (mask >> (terminal - 1)) & 1:
                return int(g2[mask | (1 << n)])
            return int(g_tab[mask])

        def rec(remaining, acc):
            if remaining == 0:
                optima.append([list(p) for p in acc])
                return
            s = (remaining & (-remaining)).bit_length() - 1
            rem_set = {u for u in range(n) if (remaining >> u) & 1}
            for path in _enumerate_paths_through(adj_sets, rem_set, s):
                if terminal is not None and (terminal - 1) in path[1:-1]:
                    continue
                rest = remaining
                for v in path:
                    rest ^= 1 << v
                if len(acc) + 1 + bound(rest) > min_size:
                    continue
                acc.append(path)
                rec(rest, acc)
                acc.pop()

        rec(full, [])
        optima = [_paths_to_cover(raw, terminal, n) for raw in optima]
    return OracleResult(min_size, witness, optima)


def _paths_to_cover(raw, terminal, n):
    paths = []
    for p in sorted(raw, key=min):
        verts = [v + 1 for v in p]
        if terminal is not None and terminal in (verts[0], verts[-1]):
            if verts[-1] == terminal:
                verts.reverse()
            paths.append(Path(verts, "terminal"))
        else:
            if verts[0] > verts[-1]:
                verts.reverse()
            paths.append(Path(verts, "free"))
    return PathCover(paths, terminal, n)


# ----------------------------------------------------------------------
# differential runner

class DiffReport:
    def __init__(self):
        self.instances = 0
        self.comparisons = 0
        self.mismatches = []
        self.violations = []

    @property
    def ok(self):
        return not self.mismatches and not self.violations

    def add_mismatch(self, label, terminal, where, engine_lam, oracle_lam):
        self.mismatches.append({
            "instance": label, "terminal": terminal, "where": where,
            "engine": int(engine_lam), "oracle": int(oracle_lam),
        })

    def add_violation(self, label, terminal, kind, message):
        self.violations.append({
            "instance": label, "terminal": terminal,
            "kind": kind, "message": message,
        })

    def to_text(self):
        lines = [f"instances={self.instances} comparisons={self.comparisons} "
                 f"mismatches={len(self.mismatches)} violations={len(self.violations)}"]
        for m in self.mismatches:
            lines.append(f"MISMATCH {m['instance']} terminal={m['terminal']} "
                         f"{m['where']}: engine={m['engine']} oracle={m['oracle']}")
        for v in self.violations:
            lines.append(f"VIOLATION {v['instance']} terminal={v['terminal']} "
                         f"{v['kind']}: {v['message']}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        return json.dumps({
            "instances": self.instances,
            "comparisons": self.comparisons,
            "mismatches": self.mismatches,
            "violations": self.violations,
        }, indent=2)


def diff_engine_vs_oracle(instances, prefix_mode=False, validate=True) -> DiffReport:
    """Compare engine and oracle sizes over a stream of labelled models.

    ``instances`` yields (label, IntervalModel).  Every terminal choice
    (including none) is compared; with ``prefix_mode`` the comparison also
    runs after every processed prefix.  One table pass per instance
    answers the instance and every prefix: the first i vertices in the
    right-endpoint order are the masks below ``1 << i``.
    """
    report = DiffReport()
    for label, model in instances:
        g = build_ordering(model)
        n = g.n
        if n > ORACLE_MAX_N:
            raise InstanceTooLarge(f"{label}: n={n} exceeds oracle bound")
        adj = masks_from_model_bruteforce(model)
        _, g_tab = kernels.cover_tables(adj, n)
        reach = kernels.reach_table(adj, n)
        sizes = kernels.terminal_sizes(g_tab, reach, n)
        report.instances += 1
        engines = {}
        for term in [None] + list(range(1, n + 1)):
            eng = run_engine(g, term)
            engines[term] = eng
            cover = eng.result(n)
            want = sizes[0] if term is None else sizes[term]
            report.comparisons += 1
            if cover.lam != want:
                report.add_mismatch(label, term, "final", cover.lam, want)
            if validate:
                for kind, msg in validate_cover(g, cover, term):
                    report.add_violation(label, term, kind, msg)
                for kind, msg in check_nesting(g, cover):
                    report.add_violation(label, term, kind, msg)
        if prefix_mode and n > 1:
            for i in range(1, n + 1):
                psizes = kernels.terminal_sizes(g_tab[:1 << i], reach[:1 << i], i)
                for term, eng in engines.items():
                    if term is not None and term > i:
                        continue
                    want = psizes[0] if term is None else psizes[term]
                    got = eng.lam_history[i - 1]
                    report.comparisons += 1
                    if got != want:
                        report.add_mismatch(label, term, f"prefix {i}", got, want)
    return report
