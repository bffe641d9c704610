"""Acceptance gate: every release-blocking property at its stated scale.

Each test prints one pass line so the suite doubles as a report:

    pytest tests/test_acceptance.py -s
"""

import math
import random
import time
from itertools import combinations_with_replacement

import numpy as np

from intervalpc import kernels
from intervalpc.bipartite import (BipartiteConvexGraph, hp_biconvex,
                                  onehp_biconvex, hp_oracle,
                                  find_observation51_counterexample,
                                  _augmented_hp, _biconvex_y_order)
from intervalpc.engine import epsilon_vector, serialize_cover, solve_1pc
from intervalpc.generators import (GenSpec, exhaustive_interval_models,
                                   gen_biconvex, gen_interval)
from intervalpc.graphcore import IntervalModel, build_ordering
from intervalpc.oracle import (check_nesting, diff_engine_vs_oracle,
                               oracle_min_cover, validate_cover)


def test_criterion_1_exhaustive_oracle_equivalence():
    t0 = time.time()
    mismatches = 0
    comparisons = 0
    for n in range(1, 8):
        insts = ((f"n{n}-{i}", m)
                 for i, m in enumerate(exhaustive_interval_models(n)))
        rep = diff_engine_vs_oracle(insts, prefix_mode=False, validate=False)
        mismatches += len(rep.mismatches)
        comparisons += rep.comparisons
    assert mismatches == 0
    print(f"criterion 1 PASS: exhaustive n<=7, every terminal, "
          f"{comparisons} comparisons, 0 mismatches ({time.time()-t0:.0f}s)")


def _random_stream(count_per, prefix_block):
    idx = 0
    for n in range(2, 13):
        for dens in (0.1, 0.25, 0.4, 0.55, 0.7, 0.85, 1.0):
            spec = GenSpec(kind="interval", n=n, density=dens,
                           seed=n * 100 + int(dens * 100), count=count_per)
            for m in gen_interval(spec):
                yield (f"c2-n{n}-d{dens}-{idx}", m)
                idx += 1


def test_criterion_2_randomized_oracle_equivalence():
    t0 = time.time()
    rep_prefix = diff_engine_vs_oracle(_random_stream(13, True),
                                       prefix_mode=True, validate=False)
    rep_final = diff_engine_vs_oracle(_random_stream(118, False),
                                      prefix_mode=False, validate=False)
    total = rep_prefix.instances + rep_final.instances
    assert total >= 10000 and rep_prefix.instances >= 1000
    assert not rep_prefix.mismatches and not rep_final.mismatches
    print(f"criterion 2 PASS: {total} random instances n<=12, every terminal "
          f"({rep_prefix.instances} in prefix mode), 0 mismatches "
          f"({time.time()-t0:.0f}s)")


def test_criterion_3_epsilon_dominance():
    t0 = time.time()
    rng = random.Random(303)
    instances = 0
    while instances < 520:
        n = rng.randint(3, 8)
        m = IntervalModel([(i, lo, lo + rng.randint(0, n))
                           for i, lo in ((i, rng.randint(0, 2 * n))
                                         for i in range(1, n + 1))])
        g = build_ordering(m)
        terminal = (instances % n) + 1
        cover = solve_1pc(g, terminal=terminal)
        eps = epsilon_vector(cover)
        rho = max(max(p.endpoints) for p in cover.paths)
        res = oracle_min_cover(g, terminal=terminal, enumerate_all=True)
        assert cover.lam == res.min_size
        for opt in res.all_optima:
            eps_other = epsilon_vector(opt)
            for i in range(1, rho):
                assert eps_other[i] <= eps[i], (m.intervals, terminal, i)
        instances += 1
    print(f"criterion 3 PASS: epsilon-dominance vs all optima on "
          f"{instances} instances n<=8, 0 violations ({time.time()-t0:.0f}s)")


def test_criterion_4_structural_invariants_large():
    t0 = time.time()
    rng = random.Random(404)
    checked = 0
    while checked < 10000:
        n = rng.randint(2, 200)
        dens = rng.choice([0.02, 0.1, 0.3, 0.6, 0.9])
        spec = GenSpec(kind="interval", n=n, density=dens,
                       seed=rng.randrange(2 ** 32), count=1)
        g = build_ordering(gen_interval(spec)[0])
        terminal = rng.randint(1, n)
        cover = solve_1pc(g, terminal=terminal)
        free = solve_1pc(g)
        assert not validate_cover(g, cover, terminal)
        assert not check_nesting(g, cover)
        assert not validate_cover(g, free, None)
        assert not check_nesting(g, free)
        dsum = sum(2 * (len(p) - 1) for p in cover.paths)
        assert dsum == 2 * (n - cover.lam)
        assert cover.lam >= free.lam
        assert cover.lam <= free.lam + 1
        checked += 1
    print(f"criterion 4 PASS: {checked} instances up to n=200, all "
          f"structural invariants hold ({time.time()-t0:.0f}s)")


def test_criterion_5_quadratic_scaling():
    t0 = time.time()
    sizes = (1000, 2000, 4000)
    medians = []
    for n in sizes:
        times = []
        for rep in range(5):
            spec = GenSpec(kind="interval", n=n, density=0.9,
                           seed=500 + rep, count=1)
            g = build_ordering(gen_interval(spec)[0])
            start = time.perf_counter()
            solve_1pc(g, terminal=n // 2)
            times.append(time.perf_counter() - start)
        times.sort()
        medians.append(times[len(times) // 2])
    assert medians[-1] < 10.0
    xs = [math.log(n) for n in sizes]
    ys = [math.log(max(t, 1e-9)) for t in medians]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
             / sum((x - mx) ** 2 for x in xs))
    assert slope <= 2.4
    detail = ", ".join(f"n={n}: {t * 1000:.1f}ms" for n, t in zip(sizes, medians))
    print(f"criterion 5 PASS: dense medians [{detail}], exponent "
          f"{slope:.2f} <= 2.4 ({time.time()-t0:.0f}s)")


def _all_biconvex(k, m):
    """Every biconvex graph with the given side sizes: X-side runs chosen
    as a multiset (empty allowed), kept when some Y ordering certifies
    Y-side convexity."""
    runs = [None] + [(a, b) for a in range(1, k + 1) for b in range(a, k + 1)]
    for multi in combinations_with_replacement(runs, m):
        run_list = [r if r is not None else (0, -1) for r in multi]
        order = _biconvex_y_order(k, run_list)
        if order is None:
            continue
        names = [f"y{i}" for i in range(1, m + 1)]
        edges = []
        for i, r in enumerate(multi):
            if r is not None:
                for j in range(r[0], r[1] + 1):
                    edges.append((f"x{j}", names[i]))
        yield BipartiteConvexGraph([f"x{j}" for j in range(1, k + 1)],
                                   [names[i] for i in order], edges, "bi")


def _start_oracle_bits(g):
    labels = [("x", x) for x in g.X] + [("y", y) for y in g.Y]
    idx = {lab: i for i, lab in enumerate(labels)}
    adj = np.zeros(len(labels), dtype=np.int64)
    for x, y in g.edges:
        adj[idx[("x", x)]] |= np.int64(1) << idx[("y", y)]
        adj[idx[("y", y)]] |= np.int64(1) << idx[("x", x)]
    reach = int(kernels.reach_table(adj, len(labels))[(1 << len(labels)) - 1])
    return idx, reach


def _check_hp_answers(g):
    idx, reach = _start_oracle_bits(g)
    has_hp = reach != 0
    got = hp_biconvex(g)
    assert (got is not None) == has_hp, (g.X, g.Y, sorted(g.edges))
    for y in g.Y:
        starts = (reach >> idx[("y", y)]) & 1
        got1 = onehp_biconvex(g, y)
        assert (got1 is not None) == bool(starts), (g.X, g.Y, sorted(g.edges), y)


def test_criterion_6_biconvex_hp_agreement():
    t0 = time.time()
    exhaustive = 0
    for k in range(1, 9):
        for m in range(1, 10 - k):
            for g in _all_biconvex(k, m):
                _check_hp_answers(g)
                exhaustive += 1
    rng = random.Random(606)
    randoms = 0
    while randoms < 5000:
        total = rng.randint(2, 12)
        k = rng.randint(1, total - 1)
        spec = GenSpec(kind="biconvex", nx=k, ny=total - k,
                       density=rng.choice([0.2, 0.4, 0.6, 0.8, 1.0]),
                       seed=rng.randrange(2 ** 32), count=1)
        g = gen_biconvex(spec)[0]
        _check_hp_answers(g)
        randoms += 1
    print(f"criterion 6 PASS: HP/1HP vs brute force on {exhaustive} "
          f"exhaustive (|X|+|Y|<=9) and {randoms} random biconvex "
          f"instances, 0 mismatches ({time.time()-t0:.0f}s)")


def test_criterion_7_observation_counterexample():
    t0 = time.time()
    ce = find_observation51_counterexample(4)
    assert ce is not None
    assert len(ce.X) == 4 and len(ce.Y) == 4
    assert _augmented_hp(ce) and not hp_oracle(ce)
    print(f"criterion 7 PASS: |X|=|Y|=4 biconvex instance where the "
          f"augmented interval graph is Hamiltonian but the bipartite "
          f"graph is not ({time.time()-t0:.0f}s)")


def test_criterion_8_determinism():
    t0 = time.time()

    def job():
        chunks = []
        for seed in (1, 2, 3):
            spec = GenSpec(kind="interval", n=40, density=0.35,
                           seed=seed, count=2)
            for m in gen_interval(spec):
                g = build_ordering(m)
                for term in (None, 7, 40):
                    chunks.append(serialize_cover(solve_1pc(g, terminal=term)))
        insts = [(f"d{i}", m) for i, m in enumerate(
            gen_interval(GenSpec(n=8, density=0.5, seed=77, count=30)))]
        chunks.append(diff_engine_vs_oracle(insts, prefix_mode=True).to_text())
        bip = gen_biconvex(GenSpec(kind="biconvex", nx=5, ny=5,
                                   density=0.5, seed=99, count=3))
        chunks.append(repr([sorted(g.edges) for g in bip]))
        return "".join(chunks)

    assert job() == job()
    print(f"criterion 8 PASS: byte-identical reruns with fixed seeds "
          f"({time.time()-t0:.0f}s)")
