import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from intervalpc.graphcore import (IntervalModel, OrderingViolation,
                                  build_ordering, validate_ordering,
                                  parse_interval_file, parse_adjacency_file,
                                  write_interval_file)


def model(*triples):
    return IntervalModel(triples)


def test_build_ordering_basic_example():
    g = build_ordering(model(("a", 0, 5), ("b", 1, 2), ("c", 3, 4)))
    assert [g.label_of(v) for v in range(1, 4)] == ["b", "c", "a"]
    # edges b-a and c-a only
    assert g.has_edge(1, 3) and g.has_edge(2, 3)
    assert not g.has_edge(1, 2)
    assert g.edge_count() == 2


def test_build_ordering_singleton():
    g = build_ordering(model(("a", 0, 0)))
    assert g.n == 1 and g.edge_count() == 0
    assert g.label_of(1) == "a"


def test_build_ordering_disjoint_units():
    g = build_ordering(model(*[(i, 10 * i, 10 * i + 1) for i in range(6)]))
    assert g.edge_count() == 0
    assert [g.label_of(v) for v in range(1, 7)] == list(range(6))


def test_ordering_tie_break_deterministic():
    # equal right ends: ascending left end, then input order
    g = build_ordering(model(("p", 3, 5), ("q", 1, 5), ("r", 1, 5)))
    assert [g.label_of(v) for v in range(1, 4)] == ["q", "r", "p"]


def test_rational_endpoints():
    g = build_ordering(model(("a", Fraction(1, 3), Fraction(2, 3)),
                             ("b", Fraction(2, 3), 1)))
    assert g.has_edge(1, 2)  # touching endpoints intersect


interval_models = st.lists(
    st.tuples(st.integers(0, 40), st.integers(0, 12)), min_size=1, max_size=10,
).map(lambda pairs: IntervalModel(
    [(i, lo, lo + ln) for i, (lo, ln) in enumerate(pairs)]))


@given(interval_models)
@settings(max_examples=150, deadline=None)
def test_ordering_roundtrip_and_edges_match_naive(m):
    g = build_ordering(m)
    # edge set must match the quadratic pairwise intersection oracle
    by_label = {lab: (lo, hi) for lab, lo, hi in m}
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            lo_u, hi_u = by_label[g.label_of(u)]
            lo_v, hi_v = by_label[g.label_of(v)]
            assert g.has_edge(u, v) == (max(lo_u, lo_v) <= min(hi_u, hi_v))
    # and the produced ordering must satisfy the ordering property
    edges = list(g.edges())
    g2 = validate_ordering(g.n, edges, list(range(1, g.n + 1)))
    assert g2.window == g.window


def test_validate_ordering_path_ok():
    g = validate_ordering(3, [(1, 2), (2, 3)], [1, 2, 3])
    assert g.has_edge(1, 2) and not g.has_edge(1, 3)


def test_validate_ordering_gap_violation():
    with pytest.raises(OrderingViolation) as exc:
        validate_ordering(3, [(1, 3)], [1, 2, 3])
    assert exc.value.triple == (1, 2, 3)


def test_validate_ordering_unknown_vertex():
    with pytest.raises(ValueError, match="names vertex 1, which is not in pi"):
        validate_ordering(2, [(1, 2)], [5, 6])


def test_c4_has_no_valid_ordering():
    from itertools import permutations
    edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
    for pi in permutations([1, 2, 3, 4]):
        with pytest.raises(OrderingViolation):
            validate_ordering(4, edges, list(pi))


def test_interval_file_roundtrip():
    text = "# comment\na 1/3 2/3\nb 1 4  # trailing\n\nc 0 0\n"
    m = parse_interval_file(text)
    assert len(m) == 3
    labs = [lab for lab, _, _ in m]
    assert labs == ["a", "b", "c"]
    again = parse_interval_file(write_interval_file(m))
    assert [(lo, hi) for _, lo, hi in again] == [(lo, hi) for _, lo, hi in m]


def test_interval_file_errors():
    with pytest.raises(ValueError):
        parse_interval_file("a 1\n")
    with pytest.raises(ValueError):
        IntervalModel([("a", 2, 1)])
    with pytest.raises(ValueError):
        IntervalModel([("a", 0, 1), ("a", 0, 1)])


def test_adjacency_file():
    n, edges, pi = parse_adjacency_file("3 2\n1 2\n2 3\npi: 3 2 1\n")
    assert n == 3 and len(edges) == 2 and pi == [3, 2, 1]
    n, edges, pi = parse_adjacency_file("2 1\n1 2\n")
    assert pi == [1, 2]
    with pytest.raises(ValueError):
        parse_adjacency_file("3 5\n1 2\n")
    with pytest.raises(ValueError):
        parse_adjacency_file("")


@pytest.mark.parametrize("one", ["1", "+1", "2/2", "1.0", "1e0"])
def test_integral_tokens_give_int_endpoints(one):
    text = f"a 0 {one}\nb {one} 3\nc -1 {one}\n"
    m = parse_interval_file(text)
    ref = parse_interval_file("a 0 1\nb 1 3\nc -1 1\n")
    assert m == ref
    assert all(type(x) is int for _, lo, hi in m for x in (lo, hi))
    g, g_ref = build_ordering(m), build_ordering(ref)
    assert (g.n, g.window, g.labels) == (g_ref.n, g_ref.window, g_ref.labels)


def test_mixed_fraction_and_int_endpoints_touch():
    m = parse_interval_file("a 1/3 2/3\nb 2/3 1\n")
    assert [type(hi) for _, _, hi in m] == [Fraction, int]
    assert build_ordering(m).has_edge(1, 2)


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_interval_file("a 1/0 2\n")
