import pytest
from hypothesis import example, given, settings, strategies as st

from intervalpc.graphcore import IntervalModel, build_ordering
from intervalpc.engine import Path, PathCover, solve_1pc
from intervalpc.oracle import (InstanceTooLarge, check_nesting,
                               diff_engine_vs_oracle, oracle_min_cover,
                               validate_cover)


def graph_of(*triples):
    return build_ordering(IntervalModel(triples))


def k_n(n):
    return graph_of(*[(i, 0, n) for i in range(1, n + 1)])


def test_validate_cover_accepts_valid_hp():
    g = k_n(3)
    assert validate_cover(g, PathCover([Path([1, 2, 3])], None, 3)) == []


def test_validate_cover_flags_missing_vertex():
    g = k_n(3)
    out = validate_cover(g, PathCover([Path([1, 2])], None, 3))
    assert any(kind == "CoverageViolation" for kind, _ in out)


def test_validate_cover_flags_internal_terminal():
    g = k_n(3)
    out = validate_cover(g, PathCover([Path([1, 2, 3], "terminal")], 2, 3), 2)
    assert any(kind == "TerminalViolation" for kind, _ in out)


def test_validate_cover_flags_non_edge():
    g = graph_of((1, 0, 1), (2, 1, 2), (3, 5, 6))
    out = validate_cover(g, PathCover([Path([1, 3]), Path([2])], None, 3))
    assert any(kind == "AdjacencyViolation" for kind, _ in out)


def test_validate_cover_flags_duplicate():
    g = k_n(3)
    out = validate_cover(g, PathCover([Path([1, 2]), Path([2, 3])], None, 3))
    assert any(kind == "DisjointnessViolation" for kind, _ in out)


def test_check_nesting_flags_nested_pair():
    g = k_n(4)
    nested = PathCover([Path([1, 4]), Path([2, 3])], None, 4)
    assert any(kind == "NestingViolation" for kind, _ in check_nesting(g, nested))
    ok = PathCover([Path([1, 2]), Path([3, 4])], None, 4)
    assert check_nesting(g, ok) == []


def test_nesting_allowed_for_terminal_path():
    g = k_n(4)
    c = PathCover([Path([2, 1, 4], "terminal"), Path([3])], 2, 4)
    assert check_nesting(g, c) == []  # only free pairs are constrained


def check_nesting_pairwise(cover):
    """The reference: every ordered pair of spans, every endpoint."""
    out = []
    paths = list(enumerate(cover.paths))
    if cover.terminal is not None:
        paths = [(i, p) for i, p in paths if p.kind != "terminal"]
    spans = [(i, min(p.endpoints), max(p.endpoints)) for i, p in paths]
    for ai in range(len(spans)):
        ia, lo_a, hi_a = spans[ai]
        for bi in range(len(spans)):
            if ai == bi:
                continue
            ib, lo_b, hi_b = spans[bi]
            for e in (lo_b, hi_b):
                if lo_a < e < hi_a:
                    out.append(("NestingViolation",
                                f"endpoint {e} of path {ib} lies inside the "
                                f"span ({lo_a},{hi_a}) of path {ia}"))
    return out


# paths may repeat vertices across paths (invalid covers) and may be
# single vertices; the terminal path, if any, is the first one
covers = st.tuples(
    st.lists(st.lists(st.integers(1, 12), min_size=1, max_size=4),
             min_size=0, max_size=9),
    st.booleans(),
).map(lambda t: PathCover(
    [Path(vs, "terminal" if t[1] and k == 0 else "free")
     for k, vs in enumerate(t[0])],
    t[0][0][0] if t[1] and t[0] else None, 12))


@given(covers)
@example(PathCover([Path([1, 9]), Path([3, 4]), Path([5]), Path([2, 9])],
                   None, 9))                          # nested, single, shared
@example(PathCover([Path([2, 8], "terminal"), Path([1, 7]), Path([4, 4]),
                    Path([4])], 2, 8))                # terminal, repeated end
@settings(max_examples=400, deadline=None)
def test_check_nesting_matches_pairwise_reference(cover):
    assert check_nesting(None, cover) == check_nesting_pairwise(cover)


def test_oracle_small_cases():
    for t in [None, 1, 2, 3, 4]:
        assert oracle_min_cover(k_n(4), terminal=t).min_size == 1
    star = graph_of(("c", 0, 10), ("l1", 1, 1), ("l2", 4, 4), ("l3", 7, 7))
    center = next(v for v in range(1, 5) if star.label_of(v) == "c")
    assert oracle_min_cover(star, terminal=center).min_size == 3
    edgeless = graph_of(*[(i, 10 * i, 10 * i) for i in range(1, 6)])
    assert oracle_min_cover(edgeless).min_size == 5


def test_oracle_witness_is_valid():
    import random
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 9)
        m = IntervalModel([(i, lo, lo + rng.randint(0, n))
                           for i, lo in ((i, rng.randint(0, 2 * n))
                                         for i in range(1, n + 1))])
        g = build_ordering(m)
        t = rng.choice([None] + list(range(1, n + 1)))
        res = oracle_min_cover(g, terminal=t)
        assert not validate_cover(g, res.witness, t)
        assert res.min_size == res.witness.lam


def test_oracle_bounds():
    big = graph_of(*[(i, i, i + 1) for i in range(1, 14)])
    with pytest.raises(InstanceTooLarge):
        oracle_min_cover(big)
    mid = graph_of(*[(i, i, i + 1) for i in range(1, 10)])
    with pytest.raises(InstanceTooLarge):
        oracle_min_cover(mid, enumerate_all=True)


def _count_min_covers_brute(g, terminal):
    """Dead-slow independent counter: every vertex permutation with every
    split pattern, deduplicated into canonical covers."""
    from itertools import permutations
    n = g.n
    covers = set()
    for perm in permutations(range(1, n + 1)):
        for mask in range(1 << (n - 1)):
            segs = []
            start = 0
            for i in range(n - 1):
                if (mask >> i) & 1:
                    segs.append(perm[start:i + 1])
                    start = i + 1
            segs.append(perm[start:])
            ok = True
            for seg in segs:
                if any(not g.has_edge(a, b) for a, b in zip(seg, seg[1:])):
                    ok = False
                    break
                if terminal is not None and terminal in seg[1:-1]:
                    ok = False
                    break
            if ok:
                covers.add(frozenset(
                    seg if seg[0] <= seg[-1] else tuple(reversed(seg))
                    for seg in segs))
    best = min(len(c) for c in covers)
    return sum(1 for c in covers if len(c) == best)


def test_enumerate_all_matches_brute_count():
    import random
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(1, 6)
        m = IntervalModel([(i, lo, lo + rng.randint(0, n))
                           for i, lo in ((i, rng.randint(0, 2 * n))
                                         for i in range(1, n + 1))])
        g = build_ordering(m)
        t = rng.choice([None] + list(range(1, n + 1)))
        res = oracle_min_cover(g, terminal=t, enumerate_all=True)
        assert len(res.all_optima) == _count_min_covers_brute(g, t)
        for opt in res.all_optima:
            assert not validate_cover(g, opt, t)


def test_terminal_monotonicity():
    import random
    rng = random.Random(9)
    for _ in range(30):
        n = rng.randint(1, 10)
        m = IntervalModel([(i, lo, lo + rng.randint(0, n))
                           for i, lo in ((i, rng.randint(0, 3 * n))
                                         for i in range(1, n + 1))])
        g = build_ordering(m)
        free = oracle_min_cover(g).min_size
        for t in range(1, n + 1):
            assert free <= oracle_min_cover(g, terminal=t).min_size <= free + 1


def test_relabel_invariance():
    m1 = IntervalModel([(1, 0, 3), (2, 2, 5), (3, 4, 8)])
    m2 = IntervalModel([("x", 0, 3), ("y", 2, 5), ("z", 4, 8)])
    assert (oracle_min_cover(build_ordering(m1)).min_size
            == oracle_min_cover(build_ordering(m2)).min_size)


def test_diff_runner_empty_stream():
    rep = diff_engine_vs_oracle([])
    assert rep.ok and rep.instances == 0
    assert "instances=0" in rep.to_text()


def test_diff_runner_detects_engine_claims():
    models = [("m1", IntervalModel([(1, 0, 2), (2, 1, 3), (3, 2, 4)]))]
    rep = diff_engine_vs_oracle(models, prefix_mode=True)
    assert rep.ok
    assert rep.comparisons > 4
    assert "mismatches" in rep.to_json()


def test_engine_equals_oracle_exhaustive_n5():
    from intervalpc.generators import exhaustive_interval_models
    insts = ((f"x{i}", m) for i, m in enumerate(exhaustive_interval_models(5)))
    rep = diff_engine_vs_oracle(insts, prefix_mode=True)
    assert rep.ok, rep.to_text()
