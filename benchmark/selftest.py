"""Self-test of the benchmark: every checker must reject a corrupted
answer, and every workload must pass a quick small-size run, traced and
untraced, reporting exactly the metrics that BENCHMARK.json names.

    python3 benchmark/selftest.py

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402

FAILURES = []


def expect(name, problems, rejected):
    ok = bool(problems) == rejected
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems[:1] if problems else 'accepted'}")
    if not ok:
        FAILURES.append(name)


def cover_text(lam, terminal, n, paths):
    term = "none" if terminal is None else terminal
    lines = [f"lambda={lam} terminal={term} n={n}"]
    lines += [f"P{k} F: " + " ".join(map(str, p)) for k, p in enumerate(paths, 1)]
    return "\n".join(lines) + "\n"


def interval_checks(work):
    ivs = inputs.mixed_intervals(inputs.new_rng(7, "selftest"), 60, 3)
    ivl = os.path.join(work, "g.ivl")
    inputs.write_ivl(ivl, ivs)
    ref = checks.IntervalReference(ivs)
    n = len(ivs)

    def solve(terminal):
        cov = os.path.join(work, "g.cov")
        argv = ["solve", ivl, "--out", cov]
        if terminal is not None:
            argv += ["--terminal", str(terminal)]
        rc, stdout = run.cli_call(argv)
        with open(cov) as fh:
            return stdout, fh.read()

    stdout, text = solve(None)
    expect("genuine free cover", checks.check_solve(ref, text, stdout, None), False)
    _, paths = checks.parse_cover_text(text)
    paths = [p for _, p in paths]
    long_path = max(range(len(paths)), key=lambda i: len(paths[i]))
    lp = paths[long_path]
    if len(lp) < 3:
        raise SystemExit("self-test graph has no path of three vertices")

    dropped = [p[:] for p in paths]
    dropped[long_path] = lp[:-1]
    expect("dropped vertex",
           checks.check_cover(ref, cover_text(len(paths), None, n, dropped), None)[1], True)

    # a pair of consecutive vertices whose intervals do not meet
    far = next(p for p in paths if p is not lp and not _meet(ref, p[-1], lp[0]))
    joined = [p for p in paths if p is not far and p is not lp] + [far + lp]
    expect("non-intersecting consecutive pair",
           checks.check_cover(ref, cover_text(len(joined), None, n, joined), None)[1], True)

    expect("interior terminal",
           checks.check_cover(ref, cover_text(len(paths), lp[1], n, paths), lp[1])[1], True)

    expect("lambda off by one",
           checks.check_cover(ref, cover_text(len(paths) + 1, None, n, paths), None)[1], True)

    split = [p for p in paths if p is not lp] + [lp[:1], lp[1:]]
    lam, probs = checks.check_cover(ref, cover_text(len(split), None, n, split), None)
    expect("split cover is still a valid cover", probs, False)
    expect("free lambda above the greedy's", checks.check_size(ref, lam, None), True)
    expect("stdout lambda disagrees with the cover",
           checks.check_solve(ref, text, f"lambda={len(paths) + 1}\n", None), True)

    t = lp[0]
    stdout, text = solve(t)
    expect("genuine terminal cover", checks.check_solve(ref, text, stdout, t), False)
    expect("terminal lambda two above the greedy's", checks.check_size(ref, ref.lam + 2, t), True)
    small = next(v for v in range(1, n + 1) if ref.exact_terminal(v) is not None)
    expect("terminal lambda off the exact answer on a small component",
           checks.check_size(ref, ref.exact_terminal(small) + 1, small), True)

    greedy = checks.greedy_paths(ivs)
    expect("greedy paths form a valid cover",
           checks.check_cover(ref, cover_text(len(greedy), None, n, greedy), None)[1], False)


def _meet(ref, a, b):
    ia = ref.intervals[ref.order[a - 1]]
    ib = ref.intervals[ref.order[b - 1]]
    return max(ia[1], ib[1]) <= min(ia[2], ib[2])


def hp_checks(work):
    graph = inputs.biconvex_planted(inputs.new_rng(7, "selftest-bip"), 6)
    bip = os.path.join(work, "g.bip")
    inputs.write_bip(bip, graph)
    rc, stdout = run.cli_call(["solve", bip, "--format", "bipartite", "--terminal", "1"])
    yes, labels = checks.parse_hp_answer(stdout)
    expect("planted 1HP answers yes", [] if yes else ["no"], False)
    expect("genuine 1HP path", checks.check_hp_walk(graph, labels, "y1"), False)
    xs = [lab for lab in labels if lab[0] == "x"]
    ys = [lab for lab in labels if lab[0] == "y"]
    expect("hp=yes path with a same-side pair",
           checks.check_hp_walk(graph, xs + ys, None), True)
    expect("hp=yes path missing a vertex", checks.check_hp_walk(graph, labels[:-1], None), True)
    expect("1HP path from the wrong start",
           checks.check_hp_walk(graph, labels[::-1], "y1"), True)
    expect("brute force finds the planted path",
           [] if "y1" in checks.hp_ends(graph) else ["y1 not an HP end"], False)
    two = inputs.biconvex_two_pieces(inputs.new_rng(7, "selftest-two"), 6)
    expect("brute force finds no HP in two pieces",
           sorted(checks.hp_ends(two)), False)
    req = run.hp_request(run.References(), "two", two, "two", bip, None)
    expect("hp=yes on two pieces", req.check((0, "hp=yes\n" + " ".join(labels))), True)


def diff_checks():
    refs = run.DiffReferences()
    ivs = inputs.window_intervals((1, 1, 2, 3, 4, 3, 2, 6), 0, 1)
    req = run.diff_request(refs, "w", ivs, prefix=False)
    good = json.dumps({"comparisons": 9, "mismatches": [], "violations": []})
    expect("clean diff report", req.check(good), False)
    short = json.dumps({"comparisons": 8, "mismatches": [], "violations": []})
    expect("diff report with a missing comparison", req.check(short), True)
    def mismatch(engine):
        return json.dumps({"comparisons": 9, "violations": [], "mismatches": [
            {"instance": "w", "terminal": 3, "where": "final", "engine": engine,
             "oracle": 1}]})
    expect("diff report with an engine answer above lambda + 1", req.check(mismatch(3)), True)
    expect("lambda_T mismatch on a random instance is a finding",
           req.findings(mismatch(2)), True)
    known = run.diff_request(refs, "w", ivs, prefix=False, known_fault=True)
    expect("lambda_T mismatch on a known-fault window", known.check(mismatch(2)), True)
    free = json.dumps({"comparisons": 9, "violations": [], "mismatches": [
        {"instance": "w", "terminal": None, "where": "final", "engine": 2, "oracle": 1}]})
    expect("diff report with a free mismatch", req.check(free), True)
    verify = run.verify_request("g", "g.ivl", "g.cov")
    expect("verify that does not answer ok", verify.check((1, "AdjacencyViolation: x\n")), True)


def quick_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run.run(workload["name"], 1, 0.1, trace, quick=True, log=io.StringIO())
            names = sorted(m["name"] for m in spec[key])
            probs = []
            if not res["correct"] or res["attempted"] < 1:
                probs.append(f"correct={res['correct']} attempted={res['attempted']}")
            if sorted(res["metrics"]) != names:
                probs.append(f"metrics {sorted(res['metrics'])} != {names}")
            expect(f"quick run {workload['name']} trace={trace}", probs, False)


def main():
    work = os.path.join(HERE, "work", f"selftest-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        interval_checks(work)
        hp_checks(work)
        diff_checks()
        quick_runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} self-test failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
