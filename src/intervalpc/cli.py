"""Command line front end.

Subcommands: solve (path covers / HP questions), verify (check a cover
file against a graph file), oracle (differential engine-vs-oracle runs),
bench (terminal-solve scaling and its ratio to a free solve, and the
oracle kernels timed alone), gen (random instance files).

Exit codes: 0 success, 1 failed verification or oracle mismatch, 2 parse
error or invalid argument, 3 invalid claimed ordering, 4 instance too
large for the oracle.
Modules that load numpy are imported only by the subcommands using them.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from .engine import parse_cover, serialize_cover, solve_1pc
from .graphcore import (OrderingViolation, build_ordering, parse_adjacency_file,
                        parse_interval_file, validate_ordering,
                        write_interval_file)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_ORDERING = 3
EXIT_TOO_LARGE = 4


def _error(message, code):
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_graph(path, fmt):
    text = open(path).read()
    if fmt == "interval":
        return build_ordering(parse_interval_file(text))
    if fmt == "adj":
        n, edges, pi = parse_adjacency_file(text)
        return validate_ordering(n, edges, pi)
    raise ValueError(f"unsupported graph format {fmt!r}")


def _guess_format(path):
    if path.endswith(".adj"):
        return "adj"
    if path.endswith(".bip"):
        return "bipartite"
    return "interval"


def cmd_solve(args):
    fmt = args.format or _guess_format(args.input)
    try:
        if fmt == "bipartite":
            return _solve_bipartite(args)
        g = _load_graph(args.input, fmt)
    except OrderingViolation as exc:
        return _error(exc, EXIT_ORDERING)
    except (OSError, ValueError) as exc:
        return _error(exc, EXIT_PARSE)
    if args.terminal is not None and not 1 <= args.terminal <= g.n:
        return _error(f"terminal {args.terminal} out of range 1..{g.n}", EXIT_PARSE)
    trace = [] if args.trace else None
    cover = solve_1pc(g, terminal=args.terminal, trace=trace)
    if trace:
        for i, op, detail in trace:
            print(f"# step {i}: {op} ({detail})", file=sys.stderr)
    text = serialize_cover(cover)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"lambda={cover.lam}")
    if args.hp:
        print("hp=yes" if cover.lam == 1 else "hp=no")
    return EXIT_OK


def _solve_bipartite(args):
    from .bipartite import (ConvexityViolation, StartNotInY, UnsupportedCase,
                            _onehp_xconvex, hp_biconvex, hp_xconvex,
                            onehp_biconvex, parse_bipartite_file)
    try:
        g = parse_bipartite_file(open(args.input).read())
    except (OSError, ValueError, ConvexityViolation) as exc:
        return _error(exc, EXIT_PARSE)
    if args.terminal is not None and not 1 <= args.terminal <= len(g.Y):
        return _error(f"terminal {args.terminal} out of range 1..{len(g.Y)}", EXIT_PARSE)
    trace = [] if args.trace else None
    try:
        if args.terminal is not None:
            # --terminal names a Y vertex, even where X has its label
            start = g.Y[args.terminal - 1]
            path = (onehp_biconvex(g, start) if g.convexity == "bi"
                    else _onehp_xconvex(g, "y", start))
        else:
            hp = hp_biconvex if g.convexity == "bi" else hp_xconvex
            path = hp(g, trace=trace)
    except (UnsupportedCase, StartNotInY, IndexError) as exc:
        return _error(exc, EXIT_FAIL)
    for reason in trace or ():
        print(f"# {reason}", file=sys.stderr)
    if path is None:
        print("hp=no")
    else:
        print("hp=yes")
        print(" ".join(str(lab) for _, lab in path))
    return EXIT_OK


def cmd_verify(args):
    from .validators import check_nesting, validate_cover
    try:
        fmt = args.format or _guess_format(args.graph)
        g = _load_graph(args.graph, fmt)
        cover = parse_cover(open(args.cover).read())
    except OrderingViolation as exc:
        return _error(exc, EXIT_ORDERING)
    except (OSError, ValueError, KeyError) as exc:
        return _error(exc, EXIT_PARSE)
    violations = validate_cover(g, cover, cover.terminal)
    violations += check_nesting(g, cover)
    if violations:
        for kind, msg in violations:
            print(f"{kind}: {msg}")
        return EXIT_FAIL
    print("ok")
    return EXIT_OK


def cmd_oracle(args):
    from .generators import GenSpec, exhaustive_interval_models, gen_interval
    from .oracle import ORACLE_MAX_N, InstanceTooLarge, diff_engine_vs_oracle
    if args.exhaustive is not None:
        n = args.exhaustive
        if n < 0:
            return _error(f"n={n} must be non-negative", EXIT_PARSE)
        if n > ORACLE_MAX_N:   # before listing all n! models
            return _error(f"n={n} exceeds oracle bound {ORACLE_MAX_N}",
                          EXIT_TOO_LARGE)
        stem, listing = f"exhaustive-n{n}", lambda: exhaustive_interval_models(n)
        repro = f"intervalpc oracle --exhaustive n={n}"
    else:
        try:
            spec = GenSpec(kind="interval", n=args.n, density=args.density,
                           seed=args.seed, count=args.random)
        except ValueError as exc:
            return _error(exc, EXIT_PARSE)
        stem, listing = f"random-seed{args.seed}", lambda: gen_interval(spec)
        repro = (f"intervalpc oracle --random count={args.random} "
                 f"--n {args.n} --density {args.density} --seed {args.seed}")

    def models():
        # a stream: n! exhaustive models need not fit in memory at once
        return ((f"{stem}-{idx}", model)
                for idx, model in enumerate(listing()))

    try:
        report = diff_engine_vs_oracle(models(), prefix_mode=args.prefix)
    except InstanceTooLarge as exc:
        return _error(exc, EXIT_TOO_LARGE)
    if args.json:
        print(report.to_json())
    else:
        print(f"# repro: {repro}")
        sys.stdout.write(report.to_text())
    if not report.ok and args.corpus:
        # append failing instances so the regression suite replays them
        failing = {m["instance"] for m in report.mismatches}
        failing |= {v["instance"] for v in report.violations}
        by_label = {label: model for label, model in models()
                    if label in failing}
        with open(args.corpus, "a") as fh:
            for label in sorted(failing):
                fh.write(json.dumps({
                    "label": label,
                    "repro": repro,
                    "intervals": [[lab, str(lo), str(hi)]
                                  for lab, lo, hi in by_label[label]],
                }) + "\n")
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_bench(args):
    from .generators import GenSpec, gen_interval
    try:
        sizes = [int(s) for s in args.sizes.split(",")]
        if min(sizes) < 1 or args.reps < 1:
            raise ValueError("--sizes and --reps must be positive")
        specs = [GenSpec(kind="interval", n=n, density=args.density,
                         seed=args.seed, count=args.reps) for n in sizes]
    except ValueError as exc:
        return _error(exc, EXIT_PARSE)
    rows = []
    for spec in specs:
        n = spec.n
        times, ratios = [], []
        lam = None
        for model in gen_interval(spec):
            g = build_ordering(model)
            t0 = time.perf_counter()
            solve_1pc(g)
            t1 = time.perf_counter()
            cover = solve_1pc(g, terminal=(n // 2 or None))
            t2 = time.perf_counter()
            times.append(t2 - t1)
            ratios.append((t2 - t1) / max(t1 - t0, 1e-9))
            lam = cover.lam
        times.sort()
        ratios.sort()
        med = times[len(times) // 2]
        ratio = ratios[len(ratios) // 2]
        rows.append((n, med))
        print(f"n={n:>7d}  median={med * 1000:10.2f} ms  "
              f"terminal/free={ratio:6.2f}  lambda={lam}")
    if len({n for n, _ in rows}) >= 2:  # a fit needs two distinct sizes
        xs = [math.log(n) for n, _ in rows]
        ys = [math.log(max(t, 1e-9)) for _, t in rows]
        mean_x = sum(xs) / len(xs)
        mean_y = sum(ys) / len(ys)
        slope = (sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
                 / sum((x - mean_x) ** 2 for x in xs))
        print(f"log-log scaling exponent: {slope:.2f}")
    if args.kernels:
        _bench_kernels(args)
    return EXIT_OK


def _bench_kernels(args):
    """Time the three oracle kernels alone, per size."""
    from . import kernels
    from .generators import GenSpec, gen_interval
    from .oracle import adjacency_masks
    for n in (8, 10, 12):
        spec = GenSpec(kind="interval", n=n, density=0.5, seed=args.seed, count=20)
        adjs = [adjacency_masks(build_ordering(m)) for m in gen_interval(spec)]
        t0 = time.perf_counter()
        for adj in adjs:
            _, g_tab = kernels.cover_tables(adj, n)
            reach = kernels.reach_table(adj, n)
            kernels.terminal_sizes(g_tab, reach, n)
        dt = time.perf_counter() - t0
        print(f"oracle kernels n={n:>2d}: {dt * 1000 / len(adjs):8.2f} ms/instance")


def cmd_gen(args):
    from .bipartite import write_bipartite_file
    from .generators import GenSpec, gen_biconvex, gen_interval
    try:
        spec = GenSpec(kind=args.kind, n=args.n, nx=args.nx, ny=args.ny,
                       density=args.density, seed=args.seed, count=args.count)
    except ValueError as exc:
        return _error(exc, EXIT_PARSE)
    if args.kind == "interval":
        ext, items, write = "ivl", gen_interval(spec), write_interval_file
    else:
        ext, items, write = "bip", gen_biconvex(spec), write_bipartite_file
    for idx, item in enumerate(items):
        path = f"{args.out}-{idx}.{ext}" if spec.count > 1 else f"{args.out}.{ext}"
        with open(path, "w") as fh:
            fh.write(write(item))
        print(path)
    return EXIT_OK


def _parse_kv_int(value):
    # accepts "n=6" style values used by --exhaustive / --random
    if "=" in value:
        value = value.split("=", 1)[1]
    return int(value)


@functools.cache   # filled on the first call, never at import
def build_parser():
    ap = argparse.ArgumentParser(prog="intervalpc")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="minimum path cover / 1PC / HP questions")
    p.add_argument("input")
    p.add_argument("--terminal", type=int, default=None,
                   help="fixed endpoint (vertex index; Y index for bipartite)")
    p.add_argument("--hp", action="store_true", help="report lambda == 1")
    p.add_argument("--format", choices=["interval", "adj", "bipartite"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="validate a cover file against a graph")
    p.add_argument("graph")
    p.add_argument("cover")
    p.add_argument("--format", choices=["interval", "adj"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="differential engine-vs-oracle runs")
    p.add_argument("--exhaustive", type=_parse_kv_int, metavar="n=K")
    p.add_argument("--random", type=_parse_kv_int, metavar="count=C", default=100)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--corpus", help="append failing instances to this file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="terminal-solve timing table, its ratio "
                       "to a free solve, and scaling fit")
    p.add_argument("--sizes", default="1000,2000,4000")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--density", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--kernels", action="store_true",
                   help="also time the oracle kernels alone at n = 8, 10 "
                        "and 12")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="write random instance files")
    p.add_argument("--kind", choices=["interval", "biconvex"], default="interval")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--nx", type=int, default=4)
    p.add_argument("--ny", type=int, default=4)
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--out", default="instance")
    p.set_defaults(func=cmd_gen)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
