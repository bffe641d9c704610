"""End-to-end benchmark of intervalpc: solve, verify, oracle and
biconvex Hamiltonian-path requests in four workloads.

    python3 benchmark/run.py --workload dense --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Every workload builds its inputs from ``--seed``, sends whole rounds of
requests (each round three times) in this one process until
``--seconds`` have passed, then checks every answer (``checks.py``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics of
``layers.py`` with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
from inputs import KNOWN_FAULT_WINDOWS, GATED_WINDOWS, new_rng

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_REPEATS = 5
# Every round is sent SENDS times in a row and a request's latency is the
# fastest of its sends: on a shared host one send in several is slowed by
# a third or more, and without this op_p90_ms reads that, not the program.
SENDS = 3
MIN_REQUESTS = 100   # latency samples: ten beyond the 90th percentile


class Request:
    """One timed request.  ``call(tag)`` does the work and returns its
    raw answer (``tag`` names the round execution, for files that must be
    new); ``collect`` turns that into a hashable output (outside the
    latency, e.g. by reading the cover file written); ``check`` lists
    the problems of an output, and ``findings`` what an output shows
    about the program without failing the request."""

    def __init__(self, label, call, check, collect=lambda raw: raw,
                 known_fault=False):
        self.label = label
        self.call = call
        self.check = check
        self.collect = collect
        self.known_fault = known_fault
        self.findings = lambda out: []


def cli_call(argv):
    """``intervalpc`` run in process; returns (exit code, stdout)."""
    import intervalpc.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = intervalpc.cli.main(argv)
    return rc, buf.getvalue()


class References:
    """Reference answers, built on first use after the timed part."""

    def __init__(self):
        self._refs = {}

    def interval(self, key, intervals):
        if key not in self._refs:
            self._refs[key] = checks.IntervalReference(intervals)
        return self._refs[key]

    def hp_ends(self, key, graph):
        if key not in self._refs:
            self._refs[key] = checks.hp_ends(graph)
        return self._refs[key]


# ----------------------------------------------------------------------
# interval workloads: solve and verify through the CLI

def solve_request(refs, key, intervals, ivl, cov, terminal, known_fault=False,
                  label=None):
    """``intervalpc solve`` writing its cover to ``<cov>-<tag>.cov``: a
    new file for every execution, since overwriting a file can make the
    file system flush it, which would time the disk instead."""
    def call(tag):
        out = f"{cov}-{tag}.cov"
        argv = ["solve", ivl, "--out", out]
        if terminal is not None:
            argv += ["--terminal", str(terminal)]
        return cli_call(argv) + (out,)

    def collect(raw):
        rc, stdout, out = raw
        if rc != 0:
            return rc, stdout, ""
        with open(out) as fh:
            return rc, stdout, fh.read()

    def check(out):
        rc, stdout, text = out
        if rc != 0:
            return [f"exit code {rc}"]
        return checks.check_solve(refs.interval(key, intervals), text, stdout, terminal)

    return Request(label or f"{key} solve terminal={terminal}", call, check,
                   collect, known_fault)


def verify_request(key, ivl, cov):
    """``intervalpc verify`` on the cover a solve request of the same
    round execution wrote to ``<cov>-<tag>.cov``."""
    def check(out):
        rc, stdout = out
        if rc != 0 or stdout.strip() != "ok":
            return [f"verify answered {stdout.strip()!r} (exit {rc})"]
        return []
    return Request(f"{key} verify {os.path.basename(cov)}",
                   lambda tag: cli_call(["verify", ivl, f"{cov}-{tag}.cov"]), check)


def setup_dense(seed, work, quick):
    """n = 4000 intervals of lengths n/8 to n/4 units (expected degree
    about 3n/8, lambda = 1).  One round per graph: a free solve and two
    solves at random terminals."""
    n = 300 if quick else 4000
    refs = References()
    rounds = []
    for gi in range(2 if quick else 8):
        rng = new_rng(seed, "dense", gi)
        ivs = inputs.dense_intervals(rng, n, n / 4)
        ivl = os.path.join(work, f"dense-{gi}.ivl")
        inputs.write_ivl(ivl, ivs)
        key = f"dense-{gi}"
        terms = [None] + rng.sample(range(1, n + 1), 2)
        rounds.append([solve_request(refs, key, ivs, ivl,
                                     os.path.join(work, f"{key}-{j}"), t)
                       for j, t in enumerate(terms)])
    return rounds


SPARSE_RANDOM = 1920


def setup_sparse(seed, work, quick):
    """Mixed-length intervals at expected degree 6, then the ten
    exhaustive-n8 windows as separate 8-vertex components to their
    right (n = 2000).  One round per graph: a free solve, a solve at
    every window's terminal, and verify requests on the free cover and
    the two window covers answered exactly.

    No solve is made at random terminals: the engine answers lambda + 2
    at some of them and misses lambda_T = lambda on some small
    components, on some seeds only (see CHANGES.md), and a failure that
    comes and goes with the seed cannot keep a fixed share of requests."""
    n_random = 300 if quick else SPARSE_RANDOM
    refs = References()
    rounds = []
    windows = list(KNOWN_FAULT_WINDOWS.items()) + list(GATED_WINDOWS.items())
    for gi in range(1 if quick else 24):
        rng = new_rng(seed, "sparse", gi)
        ivs = inputs.mixed_intervals(rng, n_random, 6)
        offset = max(hi for _, _, hi in ivs) + 10
        for w, (_, (lefts, _)) in enumerate(windows):
            ivs += inputs.window_intervals(lefts, offset + 20 * w, len(ivs) + 1)
        ivl = os.path.join(work, f"sparse-{gi}.ivl")
        inputs.write_ivl(ivl, ivs)
        key = f"sparse-{gi}"

        def cov(name):
            return os.path.join(work, f"{key}-{name}")

        batch = [solve_request(refs, key, ivs, ivl, cov("free"), None)]
        # window w occupies vertices n_random + 8w + 1 .. n_random + 8w + 8;
        # above 64 vertices the engine is wrong at the terminal of every
        # window but 25786 and 26626
        for w, (name, (_, t)) in enumerate(windows):
            v = n_random + 8 * w + t
            batch.append(solve_request(refs, key, ivs, ivl, cov(name), v,
                                       known_fault=True,
                                       label=f"{key} solve {name} t={t} (vertex {v})"))
        batch += [verify_request(key, ivl, cov(name)) for name in
                  ("free", "exhaustive-n8-25786", "exhaustive-n8-26626")]
        rounds.append(batch)
    return rounds


# ----------------------------------------------------------------------
# oracle-diff: the differential runner in process

def prefix_comparisons(n):
    """Comparisons the runner makes on one n-vertex instance: every
    terminal choice (and none) at the end, and after every prefix i the
    choices among the first i vertices."""
    final = n + 1
    return final + (sum(1 + i for i in range(1, n + 1)) if n > 1 else 0)


def diff_request(refs, label, intervals, prefix, known_fault=False):
    """One diff_engine_vs_oracle call on one instance.  The report must
    be right: the comparison count the stream implies, no violations,
    oracle answers that agree with the greedy and the lambda_T bound,
    and engine answers within that bound.  A reported lambda_T mismatch
    fails the request on a known-fault window; elsewhere it is a finding
    of the runner, printed but not failed, since which random instances
    trip the engine depends on the seed."""
    def call(tag):
        from intervalpc import IntervalModel
        from intervalpc.oracle import diff_engine_vs_oracle
        return diff_engine_vs_oracle([(label, IntervalModel(intervals))],
                                     prefix_mode=prefix)

    def collect(report):
        return report.to_json()

    def split(out):
        report = json.loads(out)
        n = len(intervals)
        lams, probs = refs.oracle_reference(label, intervals, prefix)
        probs = list(probs)
        want = prefix_comparisons(n) if prefix else n + 1
        if report["comparisons"] != want:
            probs.append(f"{report['comparisons']} comparisons, stream implies {want}")
        probs += [f"violation {v}" for v in report["violations"]]
        findings = []
        for m in report["mismatches"]:
            i = n if m["where"] == "final" else int(m["where"].split()[1])
            if m["terminal"] is None or not lams[i] <= m["engine"] <= lams[i] + 1:
                probs.append(f"engine answer outside [{lams[i]}, {lams[i] + 1}]: {m}")
            else:
                (probs if known_fault else findings).append(f"mismatch {m}")
        return probs, findings

    req = Request(f"{label} prefix={prefix}", call, lambda out: split(out)[0],
                  collect, known_fault)
    req.findings = lambda out: split(out)[1]
    return req


class DiffReferences(References):
    def oracle_reference(self, label, intervals, prefix):
        """The greedy's lambda after each prefix compared (the whole
        instance only, without prefix mode), and the problems of the
        oracle's own answers there: a free answer other than the
        greedy's, or a terminal answer outside [lambda, lambda + 1]."""
        key = (label, prefix)
        if key not in self._refs:
            order = inputs.right_order(intervals)
            ends = range(1, len(intervals) + 1) if prefix else [len(intervals)]
            lams, probs = {}, []
            for i in ends:
                sub = [intervals[j] for j in sorted(order[:i])]
                sizes = checks.exact_sizes(sub)
                lam = lams[i] = len(checks.greedy_paths(sub))
                if sizes[0] != lam:
                    probs.append(f"oracle lambda={sizes[0]} on prefix {i}, greedy {lam}")
                if any(not lam <= s <= lam + 1 for s in sizes[1:]):
                    probs.append(f"oracle lambda_T outside [{lam}, {lam + 1}] on prefix {i}")
            self._refs[key] = (lams, probs)
        return self._refs[key]


# (n, prefix mode) of the random instances of every round: the same
# make-up in every round, half of them in prefix mode
DIFF_MIX = [(9, False), (11, False), (11, False), (12, False),
            (10, True), (10, True), (12, True), (12, True)]


def setup_oracle_diff(seed, work, quick):
    """Per round: the eight mixed-length models of DIFF_MIX (n = 9..12,
    expected degree 3.5) and one of the nine known-fault exhaustive-n8
    windows, in turn."""
    refs = DiffReferences()
    rounds = []
    windows = list(KNOWN_FAULT_WINDOWS.items())
    for r in range(2 if quick else 6 * len(windows)):
        rng = new_rng(seed, "oracle-diff", r)
        batch = []
        for j, (n, prefix) in enumerate(DIFF_MIX):
            ivs = inputs.mixed_intervals(rng, n, 3.5, long_share=0.2, long_factor=5)
            batch.append(diff_request(refs, f"mixed-{seed}-{r}-{j}", ivs, prefix))
        name, (lefts, _) = windows[r % len(windows)]
        batch.append(diff_request(refs, name, inputs.window_intervals(lefts, 0, 1),
                                  prefix=False, known_fault=True))
        rounds.append(batch)
    return rounds


# ----------------------------------------------------------------------
# biconvex-hp: HP and 1HP questions through the CLI

# (k, kind) of the graphs of every round.  The planted graphs answer in a
# few milliseconds each and put the median request among them rather
# than in the gap between the cheap questions and the |Y|-solve loops.
# The second two-piece graph puts the 90th percentile among the two-piece
# HP questions, which try every y and fail, so each costs about k solves;
# without it that percentile sat at the edge of the random graphs' HP
# questions, whose cost depends on how soon a y succeeds.
BICONVEX_ROUND = [(6, "random"), (7, "planted"), (7, "two"), (12, "random"),
                  (16, "planted"), (20, "planted"), (24, "planted"),
                  (28, "random"), (36, "two"), (40, "planted"), (44, "random"),
                  (46, "planted"), (50, "planted"), (36, "two")]
BRUTE_MAX = 14


def hp_request(refs, key, graph, kind, bip, start):
    argv = ["solve", bip, "--format", "bipartite"]
    if start is not None:
        argv += ["--terminal", start[1:]]   # y<i> is Y position i

    def check(out):
        rc, stdout = out
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            yes, labels = checks.parse_hp_answer(stdout)
        except ValueError as exc:
            return [str(exc)]
        probs = checks.check_hp_walk(graph, labels, start) if yes else []
        k, m, _ = graph
        if k + m <= BRUTE_MAX:
            ends = refs.hp_ends(key, graph)
            truth = start in ends if start is not None else bool(ends)
            if yes != truth:
                probs.append(f"answered {'yes' if yes else 'no'}, brute force says "
                             f"{'yes' if truth else 'no'}")
        if kind == "planted" and not yes:
            probs.append("no HP reported on a graph with a planted one")
        if kind == "two" and yes:
            probs.append("HP reported on a graph in two pieces")
        return probs

    q = "hp" if start is None else f"1hp from {start}"
    return Request(f"{key} {kind} {q}", lambda tag: cli_call(argv), check)


def setup_biconvex(seed, work, quick):
    """Balanced biconvex graphs, |X| = |Y| = 6 .. 50: random (mostly no
    HP), planted HP, and two pieces.  Each graph gets the HP question
    and the 1HP question from one y (y1, the planted start, when
    planted)."""
    makers = {"random": inputs.biconvex_random, "planted": inputs.biconvex_planted,
              "two": inputs.biconvex_two_pieces}
    refs = References()
    rounds = []
    for r in range(1 if quick else 24):
        batch = []
        for j, (k, kind) in enumerate(BICONVEX_ROUND[:4] if quick else BICONVEX_ROUND):
            rng = new_rng(seed, "biconvex-hp", r, j)
            graph = makers[kind](rng, k)
            key = f"bip-{r}-{j}"
            bip = os.path.join(work, f"{key}.bip")
            inputs.write_bip(bip, graph)
            start = "y1" if kind == "planted" else f"y{rng.randint(1, k)}"
            batch.append(hp_request(refs, key, graph, kind, bip, None))
            batch.append(hp_request(refs, key, graph, kind, bip, start))
        rounds.append(batch)
    return rounds


WORKLOADS = {
    "dense": setup_dense,
    "sparse": setup_sparse,
    "oracle-diff": setup_oracle_diff,
    "biconvex-hp": setup_biconvex,
}


# ----------------------------------------------------------------------
# the run

def run(workload, seed, seconds, trace, quick=False, log=sys.stderr):
    """One benchmark run; returns the result object."""
    work = os.path.join(HERE, "work", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, quick, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t0 = time.perf_counter(); import intervalpc.cli; "
                "print(time.perf_counter() - t0)")


def import_seconds():
    """Time to import ``intervalpc.cli`` (numpy with it) in a fresh
    interpreter: a module is imported once per process, so timing it in
    this one would give a single sample."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def _run(workload, seed, seconds, trace, quick, work, log):
    import_times, gen_times = [], []
    for rep in range(SETUP_REPEATS):
        import_times.append(import_seconds())
        if rep:   # the same files on disk at every generation: writes slow
            shutil.rmtree(inputs_dir)   # down as earlier ones pile up
        rounds = None
        gc.collect()   # every generation starts from the same heap
        inputs_dir = os.path.join(work, f"setup{rep}")  # new files every time
        t0 = time.perf_counter()
        os.mkdir(inputs_dir)
        rounds = WORKLOADS[workload](seed, inputs_dir, quick)
        gen_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_times) + statistics.median(gen_times)
    import intervalpc.cli  # noqa: F401  (timed above, in fresh interpreters)

    for req in rounds[0]:   # untimed
        req.call("warm-up")
    gc.collect()
    gc.freeze()   # the inputs built above stay out of the program's collections
    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
        tracer.install()
    latencies, executed = [], []
    done = 0
    start = time.perf_counter()
    try:
        while True:
            batch = rounds[done % len(rounds)]
            best = [float("inf")] * len(batch)
            for send in range(SENDS):
                for i, req in enumerate(batch):
                    t0 = time.perf_counter()
                    try:
                        raw = req.call(f"{done}-{send}")
                    except Exception as exc:   # an abort counts as a failed request
                        raw = exc
                    best[i] = min(best[i], time.perf_counter() - t0)
                    if not isinstance(raw, Exception):
                        try:
                            raw = req.collect(raw)
                        except OSError as exc:   # e.g. no cover file written
                            raw = exc
                    executed.append((req, raw))
            latencies += best
            done += 1
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (quick or len(latencies) >= MIN_REQUESTS):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.unfreeze()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts = {}
    failed = 0
    correct = True
    for req, out in executed:
        key = (id(req), out if not isinstance(out, Exception) else repr(out))
        if key not in verdicts:
            if isinstance(out, Exception):
                verdicts[key] = [f"raised {out!r}"]
            else:
                verdicts[key] = req.check(out)
                for f in req.findings(out):
                    print(f"finding: {req.label}: {f}", file=log)
            for p in verdicts[key]:
                tag = "known fault" if req.known_fault else "FAILED"
                print(f"{tag}: {req.label}: {p}", file=log)
        if verdicts[key]:
            failed += 1
            correct = correct and req.known_fault

    ms = sorted(x * 1000 for x in latencies)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(executed) / elapsed, "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "op_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    if trace:
        # the traced run's own end-to-end figures go to the trace file,
        # for the tracing overhead; the result reports the layers
        with open(os.path.join(HERE, "work", f"trace-{workload}-seed{seed}.json"), "w") as fh:
            json.dump({"rounds": done, "sends": SENDS, "sums": dict(tracer.sums),
                       "end_to_end": metrics}, fh, indent=1)
        metrics = tracer.metrics(done * SENDS)
    return {"correct": correct, "attempted": len(executed), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "intervalpc", "__init__.py")):
        print(f"error: no intervalpc sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
