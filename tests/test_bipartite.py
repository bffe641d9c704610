import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from intervalpc import bipartite, kernels
from intervalpc.bipartite import (BipartiteConvexGraph, ConvexityViolation,
                                  StartNotInY, UnsupportedCase, convexify,
                                  find_observation51_counterexample,
                                  hp_biconvex, hp_oracle, onehp_biconvex,
                                  hp_xconvex, onehp_xconvex,
                                  parse_bipartite_file, write_bipartite_file,
                                  _augmented_hp, _solve_hp)
from intervalpc.generators import GenSpec, gen_biconvex


def p5():
    # the path y1-x1-y2-x2-y3
    return BipartiteConvexGraph(
        ["x1", "x2"], ["y1", "y2", "y3"],
        [("x1", "y1"), ("x1", "y2"), ("x2", "y2"), ("x2", "y3")], "bi")


def _hp_starting_at(g, label):
    """Brute force: does g have a Hamiltonian path starting at label?"""
    labels = [("x", x) for x in g.X] + [("y", y) for y in g.Y]
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = np.zeros(len(labels), dtype=np.int64)
    for x, y in g.edges:
        adj[idx[("x", x)]] |= np.int64(1) << idx[("y", y)]
        adj[idx[("y", y)]] |= np.int64(1) << idx[("x", x)]
    reach = kernels.reach_table(adj, len(labels))
    return bool((int(reach[(1 << len(labels)) - 1]) >> idx[label]) & 1)


def test_convexify_p5_example():
    g = p5()
    og, model = convexify(g, "add-Y-edges")
    spans = {lab: (lo, hi) for lab, lo, hi in model}
    assert spans[("x", "x1")] == (1, 1) and spans[("x", "x2")] == (2, 2)
    assert spans[("y", "y1")] == (1, 1)
    assert spans[("y", "y2")] == (1, 2)
    assert spans[("y", "y3")] == (2, 2)
    # E_Y = {y1y2, y2y3} but not y1y3
    lab = {v: og.label_of(v) for v in range(1, 6)}
    pos = {l: v for v, l in lab.items()}
    assert og.has_edge(pos[("y", "y1")], pos[("y", "y2")])
    assert og.has_edge(pos[("y", "y2")], pos[("y", "y3")])
    assert not og.has_edge(pos[("y", "y1")], pos[("y", "y3")])


def test_convexify_single_edge_adds_nothing():
    g = BipartiteConvexGraph(["x1"], ["y1"], [("x1", "y1")], "bi")
    og, _ = convexify(g, "add-Y-edges")
    assert og.edge_count() == 1


def test_convexify_twins_become_clique():
    g = BipartiteConvexGraph(["x1", "x2"], ["y1", "y2", "y3"],
                             [(x, y) for x in ("x1", "x2")
                              for y in ("y1", "y2", "y3")], "bi")
    og, _ = convexify(g, "add-Y-edges")
    # all three y's pairwise adjacent after augmentation
    assert og.edge_count() == 6 + 3


def test_convexify_isolated_y():
    g = BipartiteConvexGraph(["x1"], ["y1", "y2"], [("x1", "y1")], "bi")
    og, _ = convexify(g, "add-Y-edges")
    assert og.edge_count() == 1


def test_convexity_validation():
    with pytest.raises(ConvexityViolation):
        BipartiteConvexGraph(["x1", "x2", "x3"], ["y1"],
                             [("x1", "y1"), ("x3", "y1")], "x")


def test_hp_biconvex_path():
    path = hp_biconvex(p5())
    assert path == [("y", "y1"), ("x", "x1"), ("y", "y2"),
                    ("x", "x2"), ("y", "y3")]


def test_hp_biconvex_size_gap():
    g = BipartiteConvexGraph(["x1", "x2", "x3"], ["y1"],
                             [(x, "y1") for x in ("x1", "x2", "x3")], "bi")
    assert hp_biconvex(g) is None


def test_onehp_biconvex_cases():
    g = p5()
    got = onehp_biconvex(g, "y1")
    assert got is not None and got[0] == ("y", "y1")
    assert onehp_biconvex(g, "y2") is None
    with pytest.raises(StartNotInY):
        onehp_biconvex(g, "x1")
    # |X| - |Y| = 1: endpoints both in X, so no 1HP from Y
    g2 = BipartiteConvexGraph(["x1", "x2"], ["y1"],
                              [("x1", "y1"), ("x2", "y1")], "bi")
    assert onehp_biconvex(g2, "y1") is None


def test_degree_one_shortcut():
    trace = []
    g = BipartiteConvexGraph(
        ["x1", "x2", "x3"], ["y1", "y2", "y3"],
        [("x1", "y1"), ("x1", "y2"), ("x2", "y2"), ("x2", "y3"),
         ("x3", "y3")], "bi")
    path = hp_biconvex(g, trace=trace)
    assert path is not None
    assert any("shortcut" in line for line in trace)
    # more than two degree-1 Y vertices cannot all be endpoints
    g2 = BipartiteConvexGraph(
        ["x1", "x2", "x3"], ["y1", "y2", "y3"],
        [("x1", "y1"), ("x2", "y2"), ("x3", "y3")], "bi")
    trace2 = []
    assert hp_biconvex(g2, trace=trace2) is None
    assert any("degree-1" in line for line in trace2)


def _runs_graph(runs, convexity):
    """|X| = |Y| = len(runs); y_i sees x_a..x_b for runs[i-1] = (a, b),
    nothing for None."""
    k = len(runs)
    edges = [(f"x{j}", f"y{i}") for i, run in enumerate(runs, 1) if run
             for j in range(run[0], run[1] + 1)]
    return BipartiteConvexGraph([f"x{j}" for j in range(1, k + 1)],
                                [f"y{i}" for i in range(1, k + 1)],
                                edges, convexity)


# two connected pieces side by side, no degree-1 y in either
PIECE6 = [(1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 6)]
TWO_PIECES = PIECE6 + [(a + 6, b + 6) for a, b in PIECE6]


@pytest.mark.parametrize("hp", [hp_biconvex, hp_xconvex])
def test_free_solve_settles_two_pieces(monkeypatch, hp):
    calls = []
    real = bipartite.solve_1pc

    def counting(graph, terminal=None, **kwargs):
        calls.append(terminal)
        return real(graph, terminal=terminal, **kwargs)

    monkeypatch.setattr(bipartite, "solve_1pc", counting)
    trace = []
    assert hp(_runs_graph(TWO_PIECES, "bi"), trace=trace) is None
    assert calls == [None]
    assert trace == ["augmented graph needs 2 paths: no HP"]


def hp_loop_reference(g):
    """The balanced HP search without the free-solve gate: the degree-1
    shortcut, else one terminal solve per y in Y order."""
    graph, _ = convexify(g, "add-Y-edges")
    vertex = {graph.label_of(v): v for v in range(1, graph.n + 1)}
    deg1 = [y for y in g.Y if g.degree_y(y) == 1]
    if len(deg1) > 2:
        return None
    if deg1:
        return _solve_hp(g, graph, vertex[("y", deg1[0])])
    for y in g.Y:
        res = _solve_hp(g, graph, vertex[("y", y)])
        if res is not None:
            return res
    return None


@st.composite
def balanced_runs(draw, max_k=10):
    """(runs, convexity) of a balanced graph with |X| = |Y| <= max_k.
    "bi": run starts and ends non-decreasing along Y, in one piece or two
    side by side; "x": any runs, some of them empty."""
    k = draw(st.integers(1, max_k))
    if not draw(st.booleans()):
        run = st.tuples(st.integers(1, k), st.integers(0, k - 1)).map(
            lambda t: (t[0], min(k, t[0] + t[1])))
        return draw(st.lists(st.none() | run, min_size=k, max_size=k)), "x"

    def piece(size, offset):
        runs, a, b = [], 1, 1
        for _ in range(size):
            a = min(size, a + draw(st.integers(0, 2)))
            b = min(size, max(b, a + draw(st.integers(0, 3))))
            runs.append((a + offset, b + offset))
        return runs

    cut = draw(st.integers(0, k - 1))   # 0: one piece
    return (piece(cut, 0) + piece(k - cut, cut) if cut else piece(k, 0)), "bi"


@settings(max_examples=300, deadline=None)
@given(balanced_runs())
def test_balanced_hp_matches_loop_reference(case):
    runs, convexity = case
    g = _runs_graph(runs, convexity)
    ref = hp_loop_reference(g)
    assert hp_xconvex(g) == ref
    if convexity == "bi":
        assert hp_biconvex(g) == ref


def test_xconvex_cases():
    g = p5()  # also X-convex; |Y| - |X| = 1
    with pytest.raises(UnsupportedCase):
        hp_xconvex(g)
    assert onehp_xconvex(g, "x1") is None  # endpoints lie in Y
    with pytest.raises(UnsupportedCase):
        onehp_xconvex(g, "y1")
    # |X| - |Y| = 1 supports both sides of the 1HP question
    g2 = BipartiteConvexGraph(["x1", "x2"], ["y1"],
                              [("x1", "y1"), ("x2", "y1")], "x")
    got = onehp_xconvex(g2, "x1")
    assert got is not None and got[0] == ("x", "x1")
    assert onehp_xconvex(g2, "y1") is None
    assert hp_xconvex(g2) is not None
    # balanced with start in X needs the open two-endpoint problem
    g3 = BipartiteConvexGraph(["x1"], ["y1"], [("x1", "y1")], "x")
    with pytest.raises(UnsupportedCase):
        onehp_xconvex(g3, "x1")
    assert onehp_xconvex(g3, "y1") is not None


def _random_biconvex(rng, total):
    k = rng.randint(1, total - 1)
    m = total - k
    a = b = 1
    edges = []
    for i in range(1, m + 1):
        a = min(k, a + rng.randint(0, 2))
        b = min(k, max(b, a + rng.randint(0, 2)))
        for j in range(a, b + 1):
            edges.append((f"x{j}", f"y{i}"))
    return BipartiteConvexGraph([f"x{j}" for j in range(1, k + 1)],
                                [f"y{i}" for i in range(1, m + 1)],
                                edges, "bi")


def test_hp_biconvex_matches_oracle_random():
    rng = random.Random(21)
    # the empty graph has no path cover of size one, so no HP
    graphs = [BipartiteConvexGraph([], [], [], "bi")]
    graphs += [_random_biconvex(rng, rng.randint(2, 10)) for _ in range(300)]
    for g in graphs:
        got = hp_biconvex(g)
        assert (got is not None) == hp_oracle(g), (g.X, g.Y, sorted(g.edges))
        if got is not None:
            # gate: path must use original edges and cover everything
            assert len(got) == len(g.X) + len(g.Y)


def test_onehp_biconvex_complete_for_y_starts():
    rng = random.Random(22)
    for _ in range(200):
        g = _random_biconvex(rng, rng.randint(2, 9))
        for y in g.Y:
            got = onehp_biconvex(g, y)
            assert (got is not None) == _hp_starting_at(g, ("y", y))
            if got is not None:
                assert got[0] == ("y", y)


def test_convexify_intersection_graph_is_exact():
    # the model's intersection graph must equal E plus the same-side
    # augmentation, edge for edge
    rng = random.Random(31)
    for _ in range(120):
        g = _random_biconvex(rng, rng.randint(2, 9))
        og, _ = convexify(g, "add-Y-edges")
        pos = {og.label_of(v): v for v in range(1, og.n + 1)}
        runs = {y: g.y_run(y) for y in g.Y}
        for x in g.X:
            for y in g.Y:
                assert og.has_edge(pos[("x", x)], pos[("y", y)]) == g.has_edge(x, y)
        ys = list(g.Y)
        for i, y1 in enumerate(ys):
            for y2 in ys[i + 1:]:
                r1, r2 = runs[y1], runs[y2]
                share = bool(r1 and r2 and r1[0] <= r2[1] and r2[0] <= r1[1])
                assert og.has_edge(pos[("y", y1)], pos[("y", y2)]) == share
        for i, x1 in enumerate(g.X):
            for x2 in g.X[i + 1:]:
                assert not og.has_edge(pos[("x", x1)], pos[("x", x2)])


def _random_xconvex(rng, k, m):
    edges = []
    for i in range(1, m + 1):
        if rng.random() < 0.15:
            continue
        a = rng.randint(1, k)
        b = rng.randint(a, k)
        for j in range(a, b + 1):
            edges.append((f"x{j}", f"y{i}"))
    return BipartiteConvexGraph([f"x{j}" for j in range(1, k + 1)],
                                [f"y{i}" for i in range(1, m + 1)],
                                edges, "x")


def test_hp_xconvex_matches_oracle_supported_sizes():
    empty = BipartiteConvexGraph([], [], [], "x")
    assert (hp_xconvex(empty) is not None) == hp_oracle(empty)
    rng = random.Random(41)
    checked = 0
    while checked < 250:
        k = rng.randint(1, 5)
        m = k - rng.choice([0, 1])
        if m < 1:
            continue
        g = _random_xconvex(rng, k, m)
        assert (hp_xconvex(g) is not None) == hp_oracle(g), sorted(g.edges)
        for y in g.Y:
            if k == m:
                got = onehp_xconvex(g, y)
                assert (got is not None) == _hp_starting_at(g, ("y", y))
        for x in g.X:
            if k - m == 1:
                got = onehp_xconvex(g, x)
                assert (got is not None) == _hp_starting_at(g, ("x", x))
        checked += 1


def test_observation_counterexample_search():
    assert find_observation51_counterexample(2) is None
    ce = find_observation51_counterexample(4)
    assert ce is not None
    assert len(ce.X) == len(ce.Y) == 4
    assert _augmented_hp(ce) and not hp_oracle(ce)


def test_bipartite_file_roundtrip():
    g = p5()
    text = write_bipartite_file(g)
    g2 = parse_bipartite_file(text)
    assert g2.X == g.X and g2.Y == g.Y and g2.edges == g.edges
    assert g2.convexity == "bi"
    with pytest.raises(ValueError):
        parse_bipartite_file("X=1 Y=1 convex=bi\n")
