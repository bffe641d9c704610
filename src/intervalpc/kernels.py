"""Bitmask dynamic-programming kernels used by the exact oracle.

These are the hot inner loops of the differential-testing campaigns.  One
table pass per instance answers the whole instance and every prefix of it
(see ``oracle.diff_engine_vs_oracle``), across tens of thousands of
instances.  They are numpy throughout and fill the tables one popcount
layer at a time, all masks of size k at once, since a row of layer k
reads only rows of layer k - 1.  Beside the tables and an n x 2^n boolean
membership array, their temporaries stay O(C(n, k) * n) small integers
per layer.  At n = 0 each returns the one row of the empty graph.
``intervalpc bench --kernels`` times them alone.

State encoding: vertices 0..n-1, subsets as int64 bitmasks, ``adj[v]`` the
neighbour bitmask of v.  A row for a mask reads only its submasks, so the
rows below ``1 << i`` are the tables of the subgraph induced by vertices
0..i-1.

* ``cover_tables``  -- f[mask, last] = minimum number of paths covering
  ``mask`` where the currently open path ends at ``last``; g[mask] is the
  row minimum, i.e. the minimum path cover size of the induced subgraph.
* ``reach_table``   -- R[mask] = bitmask of vertices v such that the
  induced subgraph on ``mask`` has a Hamiltonian path ending at v.
* ``terminal_sizes``-- minimum path cover size for every choice of one
  fixed path endpoint, from one pass over (g, R).
"""

from __future__ import annotations

import functools

import numpy as np

_INF = 127  # int8 sentinel; path counts never exceed the vertex bound


@functools.cache
def _layers(n: int):
    """For k = 2..n, the masks with k bits set (ascending) and, per vertex
    v, those of them containing v paired with the same masks without v.
    Built once per n and shared, so every array is read-only."""
    masks = np.arange(1 << n, dtype=np.int64)
    has = np.empty((n, 1 << n), dtype=bool)
    for v in range(n):
        has[v] = (masks >> v) & 1
    count = has.sum(axis=0)
    order = np.argsort(count, kind="stable")
    masks, has = masks[order], has[:, order]
    ends = np.cumsum(np.bincount(count, minlength=n + 1))
    out = []
    for k in range(2, n + 1):
        lo, hi = ends[k - 1], ends[k]
        layer = masks[lo:hi]
        splits = []
        for v in range(n):
            with_v = layer[has[v, lo:hi]]
            splits.append((with_v, with_v ^ (1 << v)))
        for arr in (layer, *(a for pair in splits for a in pair)):
            arr.flags.writeable = False
        out.append((layer, tuple(splits)))
    return tuple(out)


def cover_tables(adj: np.ndarray, n: int):
    """Minimum path cover DP tables (f, g) for the graph given as bitmasks."""
    size = 1 << n
    # filled transposed, ft[last, mask], so that the minimum over
    # neighbour columns runs along contiguous rows
    ft = np.full((n, size), _INF, dtype=np.int8)
    g = np.full(size, _INF, dtype=np.int8)
    g[0] = 0
    singles = np.int64(1) << np.arange(n, dtype=np.int64)
    ft[np.arange(n), singles] = 1
    g[singles] = 1
    nbrs = [np.flatnonzero((int(adj[v]) >> np.arange(n)) & 1)[:, None]
            for v in range(n)]
    # layer k reads only rows of layer k - 1, which are final by then
    for layer, splits in _layers(n):
        for v, (masks, prev) in enumerate(splits):
            val = g[prev] + 1
            if len(nbrs[v]):
                # ft[u, prev] is _INF for u outside prev, so every
                # neighbour row may be read
                val = np.minimum(val, ft[nbrs[v], prev].min(axis=0))
            ft[v, masks] = val
        g[layer] = ft[:, layer].min(axis=0)
    return np.ascontiguousarray(ft.T), g


def reach_table(adj: np.ndarray, n: int):
    """Hamiltonian-path endpoint reachability table R."""
    R = np.zeros(1 << n, dtype=np.int64)
    singles = np.int64(1) << np.arange(n, dtype=np.int64)
    R[singles] = singles
    for _, splits in _layers(n):
        for v, (masks, prev) in enumerate(splits):
            R[masks[(R[prev] & adj[v]) != 0]] |= np.int64(1) << v
    return R


def terminal_sizes(g: np.ndarray, R: np.ndarray, n: int):
    """Array [lam_free, lam_T(v_1), ..., lam_T(v_n)] from the DP tables."""
    full = (1 << n) - 1
    out = [int(g[full])] + [_INF] * n
    rest = g[::-1]  # rest[mask] = g[full ^ mask]
    todo = full
    # the smallest remainder cover whose complement has a Hamiltonian
    # path ending at t decides t
    for size in np.flatnonzero(np.bincount(rest)):
        ends = int(np.bitwise_or.reduce(R[rest == size])) & todo
        todo ^= ends
        while ends:
            b = ends & (-ends)
            ends ^= b
            out[b.bit_length()] = 1 + int(size)
        if not todo:
            break
    return np.array(out, dtype=np.int64)
