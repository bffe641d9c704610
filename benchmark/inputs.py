"""Seeded input generators for the benchmark workloads.

Every input is drawn from ``random.Random`` seeded by the benchmark's
``--seed``; the program under test only ever sees the files written here.
Intervals are kept as ``(label, left, right)`` integer triples so that the
checks can work from the raw intervals, independently of the program.
"""

from __future__ import annotations

import random

# Windows of ``intervalpc oracle --exhaustive n=8`` that the engine
# answers with two paths where a Hamiltonian path ends at the terminal.
# Interval j of a window is [left_j, j]; the terminal is vertex t.
KNOWN_FAULT_WINDOWS = {
    "exhaustive-n8-11213": ((1, 1, 2, 3, 4, 3, 2, 6), 3),
    "exhaustive-n8-11269": ((1, 1, 2, 3, 4, 4, 2, 6), 3),
    "exhaustive-n8-28013": ((1, 2, 2, 1, 4, 3, 2, 6), 3),
    "exhaustive-n8-28145": ((1, 2, 2, 1, 4, 5, 5, 2), 3),
    "exhaustive-n8-32044": ((1, 2, 2, 4, 1, 3, 2, 5), 3),
    "exhaustive-n8-32045": ((1, 2, 2, 4, 1, 3, 2, 6), 3),
    "exhaustive-n8-32604": ((1, 2, 2, 4, 3, 1, 2, 5), 3),
    "exhaustive-n8-25786": ((1, 2, 1, 4, 2, 5, 4, 3), 2),
    "exhaustive-n8-26626": ((1, 2, 1, 4, 5, 2, 4, 3), 2),
}
# Also wrong once the graph has more than 64 vertices (the size gate in
# the engine's restructure trials), so it rides only in ``sparse``.
GATED_WINDOWS = {
    "exhaustive-n8-26619": ((1, 2, 1, 4, 5, 2, 3, 4), 2),
}

# integer grid points per unit of length; left ends are spread one per
# unit on average, so an interval L units long meets about L left ends
SCALE = 1000


def mixed_intervals(rng, n, degree, long_share=0.03, long_factor=25):
    """n intervals with left ends uniform on [0, n*SCALE) and
    exponentially distributed lengths: mostly short, a ``long_share`` of
    them ``long_factor`` times longer on average.  The mean length is
    degree/2 units, which puts the expected degree near ``degree``."""
    mean_short = degree / 2.0 / (1 - long_share + long_share * long_factor)
    out = []
    for i in range(n):
        lo = rng.randrange(n * SCALE)
        mean = mean_short * (long_factor if rng.random() < long_share else 1)
        out.append((i + 1, lo, lo + int(rng.expovariate(1 / mean) * SCALE)))
    return out


def dense_intervals(rng, n, length):
    """n intervals with left ends uniform on [0, n*SCALE) and lengths
    uniform in [length/2, length] units.  No interval is short enough to
    hang off the rest, which at the densities used gives lambda = 1."""
    out = []
    for i in range(n):
        lo = rng.randrange(n * SCALE)
        out.append((i + 1, lo, lo + int(rng.uniform(length / 2, length) * SCALE)))
    return out


def window_intervals(lefts, offset, first_label):
    """The 8 intervals of an exhaustive window, shifted by ``offset``."""
    return [(first_label + j, offset + lo, offset + j + 1)
            for j, lo in enumerate(lefts)]


def right_order(intervals):
    """Indices of ``intervals`` in the documented vertex order: right
    end, then left end, then input position."""
    return sorted(range(len(intervals)),
                  key=lambda i: (intervals[i][2], intervals[i][1], i))


def write_ivl(path, intervals):
    with open(path, "w") as fh:
        fh.write("".join(f"{lab} {lo} {hi}\n" for lab, lo, hi in intervals))


# ----------------------------------------------------------------------
# balanced biconvex graphs, given as (k, m, edges) over x1..xk, y1..ym

def _runs_graph(k, runs):
    edges = {(f"x{j}", f"y{i}") for i, (a, b) in enumerate(runs, 1)
             for j in range(a, b + 1)}
    return (k, len(runs), edges)


def biconvex_random(rng, k):
    """|X| = |Y| = k; every y sees at least two consecutive x's and the
    runs overlap, so the graph is connected and no y has degree one."""
    runs = []
    a = b = 1
    for i in range(k):
        if i:
            a = min(b, a + rng.randint(0, 2))
        width = rng.randint(2, 4)
        b = min(k, max(b, a + width - 1))
        a = min(a, b - 1)
        runs.append((a, b))
    runs[-1] = (runs[-1][0], k)
    return _runs_graph(k, runs)


def biconvex_planted(rng, k):
    """|X| = |Y| = k with the Hamiltonian path y1 x1 y2 x2 ... yk xk:
    y_i's run covers x_{i-1} and x_i, widened at random while run starts
    and ends stay non-decreasing (which keeps both sides convex)."""
    runs = []
    prev_a = prev_b = 1
    for i in range(1, k + 1):
        a = max(prev_a, max(1, i - 1 - rng.randint(0, 2)))
        b = max(prev_b, min(k, i + rng.randint(0, 2)))
        runs.append((a, b))
        prev_a, prev_b = a, b
    return _runs_graph(k, runs)


def biconvex_two_pieces(rng, k):
    """|X| = |Y| = k made of two pieces with no edge between them."""
    k1 = rng.randint(2, k - 2)
    (_, _, e1) = biconvex_random(rng, k1)
    (_, _, e2) = biconvex_random(rng, k - k1)
    shifted = {(f"x{int(x[1:]) + k1}", f"y{int(y[1:]) + k1}") for x, y in e2}
    return (k, k, e1 | shifted)


def write_bip(path, graph):
    k, m, edges = graph
    lines = [f"X={k} Y={m} convex=bi",
             "X: " + " ".join(f"x{j}" for j in range(1, k + 1)),
             "Y: " + " ".join(f"y{i}" for i in range(1, m + 1))]
    lines += [f"{x} {y}" for x, y in sorted(edges)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def new_rng(seed, *parts):
    """An independent stream per (seed, purpose)."""
    return random.Random("/".join(str(p) for p in (seed,) + parts))
