import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalpc import kernels
from intervalpc.graphcore import IntervalModel, build_ordering
from intervalpc.oracle import adjacency_masks, oracle_sizes_all_terminals

# ----------------------------------------------------------------------
# reference kernels: the per-mask loops, one mask at a time in
# increasing order, against which the layered numpy backend is checked

_INF = kernels._INF


def ref_cover_tables(adj, n):
    size = 1 << n
    f = np.full((size, n), _INF, dtype=np.int8)
    g = np.full(size, _INF, dtype=np.int8)
    g[0] = 0
    for v in range(n):
        f[1 << v, v] = 1
    for mask in range(1, size):
        best = _INF
        for last in range(n):
            if not (mask >> last) & 1:
                continue
            prev = mask ^ (1 << last)
            if prev:
                val = g[prev] + 1
                for u in range(n):
                    if (int(adj[last]) & prev) >> u & 1 and f[prev, u] < val:
                        val = f[prev, u]
                f[mask, last] = min(f[mask, last], val)
            best = min(best, f[mask, last])
        g[mask] = best
    return f, g


def ref_reach_table(adj, n):
    R = np.zeros(1 << n, dtype=np.int64)
    for v in range(n):
        R[1 << v] = 1 << v
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        r = 0
        for v in range(n):
            if (mask >> v) & 1 and int(R[mask ^ (1 << v)]) & int(adj[v]):
                r |= 1 << v
        R[mask] = r
    return R


def ref_terminal_sizes(g, R, n):
    full = (1 << n) - 1
    out = np.full(n + 1, _INF, dtype=np.int64)
    out[0] = g[full]
    for mask in range(1, full + 1):
        cand = 1 + int(g[full ^ mask])
        for t in range(n):
            if (int(R[mask]) >> t) & 1 and cand < out[t + 1]:
                out[t + 1] = cand
    return out



def random_masks(rng, n):
    m = IntervalModel([(i, lo, lo + rng.randint(0, n))
                       for i, lo in ((i, rng.randint(0, 2 * n))
                                     for i in range(1, n + 1))])
    return adjacency_masks(build_ordering(m))


@pytest.mark.skipif(not kernels.USING_NUMBA, reason="numba backend unavailable")
def test_backends_agree():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(1, 11)
        adj = random_masks(rng, n)
        f_nb, g_nb = kernels.cover_tables(adj, n, pure=False)
        f_py, g_py = kernels.cover_tables(adj, n, pure=True)
        assert (f_nb == f_py).all() and (g_nb == g_py).all()
        r_nb = kernels.reach_table(adj, n, pure=False)
        r_py = kernels.reach_table(adj, n, pure=True)
        assert (r_nb == r_py).all()
        t_nb = kernels.terminal_sizes(g_nb, r_nb, n, pure=False)
        assert (t_nb == kernels.terminal_sizes(g_py, r_py, n, pure=True)).all()


@st.composite
def any_graph(draw, max_n=10):
    """An arbitrary graph (not only an interval graph) as bitmasks."""
    n = draw(st.integers(1, max_n))
    adj = np.zeros(n, dtype=np.int64)
    for a in range(n):
        for b in range(a + 1, n):
            if draw(st.booleans()):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    return adj, n


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


@settings(max_examples=60, deadline=None)
@given(any_graph())
def test_pure_kernels_match_reference_loops(graph):
    adj, n = graph
    f, g = kernels.cover_tables(adj, n, pure=True)
    f_ref, g_ref = ref_cover_tables(adj, n)
    assert same(f, f_ref) and same(g, g_ref)
    reach = kernels.reach_table(adj, n, pure=True)
    r_ref = ref_reach_table(adj, n)
    assert same(reach, r_ref)
    for i in range(1, n + 1):
        sizes = kernels.terminal_sizes(g[:1 << i], reach[:1 << i], i, pure=True)
        assert same(sizes, ref_terminal_sizes(g_ref[:1 << i], r_ref[:1 << i], i))


@settings(max_examples=40, deadline=None)
@given(any_graph(max_n=9))
def test_prefix_sizes_from_sliced_tables(graph):
    """The rows below 1 << i are the tables of the first i vertices."""
    adj, n = graph
    _, g = kernels.cover_tables(adj, n)
    reach = kernels.reach_table(adj, n)
    for i in range(1, n + 1):
        sliced = kernels.terminal_sizes(g[:1 << i], reach[:1 << i], i)
        direct = oracle_sizes_all_terminals(adj[:i] & ((1 << i) - 1), i)
        assert same(sliced, direct)


def test_pure_tables_known_values():
    # triangle: one path suffices, every vertex can end a spanning path
    adj = np.array([0b110, 0b101, 0b011], dtype=np.int64)
    f, g = kernels.cover_tables(adj, 3, pure=True)
    assert g[0b111] == 1
    reach = kernels.reach_table(adj, 3, pure=True)
    assert int(reach[0b111]) == 0b111
    sizes = kernels.terminal_sizes(g, reach, 3, pure=True)
    assert list(sizes) == [1, 1, 1, 1]
    # independent set: three trivial paths, forcing any endpoint is free
    adj0 = np.zeros(3, dtype=np.int64)
    f0, g0 = kernels.cover_tables(adj0, 3, pure=True)
    assert g0[0b111] == 3
    sizes0 = kernels.terminal_sizes(g0, kernels.reach_table(adj0, 3, pure=True),
                                    3, pure=True)
    assert list(sizes0) == [3, 3, 3, 3]


def test_empty_graph_tables():
    f, g = kernels.cover_tables(np.zeros(0, dtype=np.int64), 0)
    assert g[0] == 0
