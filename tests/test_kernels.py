import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalpc import kernels
from intervalpc.oracle import oracle_sizes_all_terminals

# ----------------------------------------------------------------------
# reference kernels: the per-mask loops, one mask at a time in
# increasing order, against which the layered numpy kernels are checked

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
    f, g = kernels.cover_tables(adj, n)
    f_ref, g_ref = ref_cover_tables(adj, n)
    assert same(f, f_ref) and same(g, g_ref)
    reach = kernels.reach_table(adj, n)
    r_ref = ref_reach_table(adj, n)
    assert same(reach, r_ref)
    for i in range(1, n + 1):
        sizes = kernels.terminal_sizes(g[:1 << i], reach[:1 << i], i)
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
    f, g = kernels.cover_tables(adj, 3)
    assert g[0b111] == 1
    reach = kernels.reach_table(adj, 3)
    assert int(reach[0b111]) == 0b111
    sizes = kernels.terminal_sizes(g, reach, 3)
    assert list(sizes) == [1, 1, 1, 1]
    # independent set: three trivial paths, forcing any endpoint is free
    adj0 = np.zeros(3, dtype=np.int64)
    f0, g0 = kernels.cover_tables(adj0, 3)
    assert g0[0b111] == 3
    sizes0 = kernels.terminal_sizes(g0, kernels.reach_table(adj0, 3), 3)
    assert list(sizes0) == [3, 3, 3, 3]


def test_empty_graph_tables():
    empty = np.zeros(0, dtype=np.int64)
    f, g = kernels.cover_tables(empty, 0)
    assert same(f, np.zeros((1, 0), dtype=np.int8))
    assert same(g, np.zeros(1, dtype=np.int8))
    reach = kernels.reach_table(empty, 0)
    assert same(reach, np.zeros(1, dtype=np.int64))
    zero = np.zeros(1, dtype=np.int64)
    assert same(kernels.terminal_sizes(g, reach, 0), zero)
    assert same(oracle_sizes_all_terminals(empty, 0), zero)


def test_layers_are_built_once_and_read_only():
    # the index arrays are shared by every call at one n, so no caller
    # may write into them
    assert kernels._layers(6) is kernels._layers(6)
    layer, splits = kernels._layers(6)[0]
    for arr in (layer, *splits[0]):
        with pytest.raises(ValueError):
            arr[0] = 0
