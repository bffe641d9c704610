import json
import os
import subprocess
import sys

import pytest

import intervalpc
from intervalpc.cli import build_parser, main


def write(path, text):
    path.write_text(text)
    return str(path)


K4 = "".join(f"{i} 0 4\n" for i in range(1, 5))
P4 = "1 0 1\n2 1 2\n3 2 3\n4 3 4\n"
EDGELESS5 = "".join(f"{i} {10 * i} {10 * i}\n" for i in range(1, 6))


def test_solve_k4_terminal(tmp_path, capsys):
    f = write(tmp_path / "k4.ivl", K4)
    out = str(tmp_path / "cover.txt")
    assert main(["solve", f, "--terminal", "2", "--hp", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "lambda=1" in captured and "hp=yes" in captured
    assert "terminal=2" in open(out).read()


def test_solve_edgeless(tmp_path, capsys):
    f = write(tmp_path / "e5.ivl", EDGELESS5)
    assert main(["solve", f]) == 0
    assert "lambda=5" in capsys.readouterr().out


def test_solve_p4_terminal(tmp_path, capsys):
    f = write(tmp_path / "p4.ivl", P4)
    assert main(["solve", f, "--terminal", "2"]) == 0
    assert "lambda=2" in capsys.readouterr().out


def test_solve_parse_error(tmp_path, capsys):
    f = write(tmp_path / "bad.ivl", "1 2\n")
    assert main(["solve", f]) == 2


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_zero_denominator_is_a_parse_error(tmp_path, capsys, command):
    f = write(tmp_path / "zero.ivl", "a 1/0 2\nb 0 1\n")
    cov = write(tmp_path / "cover.txt", "lambda=1 terminal=none n=2\nP1 F: 1 2\n")
    argv = ["solve", f] if command == "solve" else ["verify", f, cov]
    assert main(argv) == 2
    assert "error: endpoint '1/0' has a zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize("terminal", ["0", "5", "-1"])
def test_solve_terminal_out_of_range(tmp_path, capsys, terminal):
    f = write(tmp_path / "k4.ivl", K4)
    assert main(["solve", f, "--terminal", terminal]) == 2
    captured = capsys.readouterr()
    assert f"error: terminal {terminal} out of range 1..4" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def run_fresh(argv, at_import=None):
    """Exit code of cli.main(argv) in a fresh interpreter, on the same
    intervalpc as this one, and whether numpy was loaded by then; with
    ``at_import``, also that expression's value just after the import."""
    src = os.path.dirname(os.path.dirname(intervalpc.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "from intervalpc.cli import build_parser, main; "
            f"seen = [{at_import or ''}]; "
            f"rc = main({argv!r}); "
            "print(rc, 'numpy' in sys.modules, *seen)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.splitlines()[-1]


def test_solve_interval_does_not_import_numpy(tmp_path):
    f = write(tmp_path / "k4.ivl", K4)
    assert run_fresh(["solve", f, "--terminal", "2"]) == "0 False"


def test_verify_does_not_import_numpy(tmp_path):
    f = write(tmp_path / "k4.ivl", K4)
    cov = write(tmp_path / "cover.txt",
                "lambda=1 terminal=2 n=4\nP1 T: 2 1 3 4\n")
    assert run_fresh(["verify", f, cov]) == "0 False"


def test_solve_ordering_violation(tmp_path):
    f = write(tmp_path / "bad.adj", "3 1\n1 3\n")
    assert main(["solve", f, "--format", "adj"]) == 3


def test_solve_adjacency_pi_outside_the_vertices(tmp_path, capsys):
    f = write(tmp_path / "a.adj", "2 1\n1 2\npi: 5 6\n")
    assert main(["solve", f]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: pi is not a permutation of 1..n\n"
    assert captured.out == ""


def test_solve_valid_adjacency(tmp_path, capsys):
    f = write(tmp_path / "p3.adj", "3 2\n1 2\n2 3\n")
    assert main(["solve", f, "--format", "adj", "--hp"]) == 0
    assert "hp=yes" in capsys.readouterr().out


def test_verify_roundtrip(tmp_path, capsys):
    f = write(tmp_path / "k4.ivl", K4)
    out = str(tmp_path / "cover.txt")
    main(["solve", f, "--terminal", "2", "--out", out])
    assert main(["verify", f, out]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_tampered_cover(tmp_path, capsys):
    f = write(tmp_path / "p4.ivl", P4)
    out = tmp_path / "cover.txt"
    main(["solve", f, "--out", str(out)])
    tampered = out.read_text().replace("1 2 3 4", "1 3 2 4")
    out.write_text(tampered)
    assert main(["verify", f, str(out)]) == 1
    assert "AdjacencyViolation" in capsys.readouterr().out


def test_verify_internal_terminal(tmp_path, capsys):
    f = write(tmp_path / "k4.ivl", K4)
    cov = write(tmp_path / "cover.txt",
                "lambda=1 terminal=2 n=4\nP1 T: 1 2 3 4\n")
    assert main(["verify", f, cov]) == 1
    assert "TerminalViolation" in capsys.readouterr().out


def test_verify_parse_error(tmp_path):
    f = write(tmp_path / "k4.ivl", K4)
    cov = write(tmp_path / "cover.txt", "garbage\n")
    assert main(["verify", f, cov]) == 2


def test_oracle_exhaustive_small(capsys):
    assert main(["oracle", "--exhaustive", "n=4"]) == 0
    out = capsys.readouterr().out
    assert "mismatches=0" in out


def test_oracle_random(capsys):
    assert main(["oracle", "--random", "count=40", "--n", "7",
                 "--seed", "42", "--prefix"]) == 0
    assert "mismatches=0" in capsys.readouterr().out


def test_oracle_too_large(capsys):
    assert main(["oracle", "--random", "count=1", "--n", "14"]) == 4


def test_oracle_exhaustive_too_large_exits_before_listing_models(capsys):
    # 13! models would not fit in memory: the bound is checked first
    assert main(["oracle", "--exhaustive", "n=13"]) == 4
    assert capsys.readouterr().err == "error: n=13 exceeds oracle bound 12\n"


def test_oracle_exhaustive_streams_the_models(monkeypatch, capsys):
    # 12! models would not fit in memory: the diff reads them one by one,
    # and listing a model the diff never read fails
    from intervalpc import generators, oracle
    real = generators.exhaustive_interval_models
    listed, read = [], []

    def counted(n):
        for model in real(n):
            listed.append(model)
            assert len(listed) <= 2, "listed a model the diff never read"
            yield model

    def diff_two(instances, prefix_mode=False):
        read.extend(next(instances) for _ in range(2))
        return oracle.DiffReport()

    monkeypatch.setattr(generators, "exhaustive_interval_models", counted)
    monkeypatch.setattr(oracle, "diff_engine_vs_oracle", diff_two)
    assert main(["oracle", "--exhaustive", "n=12"]) == 0
    assert [label for label, _ in read] == ["exhaustive-n12-0",
                                            "exhaustive-n12-1"]
    assert len(listed) == 2


def test_oracle_corpus_lists_the_models_again(monkeypatch, tmp_path, capsys):
    from intervalpc import oracle

    def diff_flagging(instances, prefix_mode=False):
        report = oracle.DiffReport()
        for label, _ in instances:
            report.instances += 1
            if label in ("exhaustive-n4-3", "exhaustive-n4-10"):
                report.add_mismatch(label, 1, "final", 2, 1)
        return report

    monkeypatch.setattr(oracle, "diff_engine_vs_oracle", diff_flagging)
    corpus = tmp_path / "corpus.jsonl"
    assert main(["oracle", "--exhaustive", "n=4",
                 "--corpus", str(corpus)]) == 1
    from intervalpc.generators import exhaustive_interval_models
    models = list(exhaustive_interval_models(4))
    lines = [json.loads(line) for line in corpus.read_text().splitlines()]
    assert [rec["label"] for rec in lines] == ["exhaustive-n4-10",
                                               "exhaustive-n4-3"]
    assert lines[1]["intervals"] == [[lab, str(lo), str(hi)]
                                     for lab, lo, hi in models[3]]


@pytest.mark.parametrize("argv", [
    ["oracle", "--random", "count=3", "--density", "2"],
    ["oracle", "--random", "count=-1"],
    ["oracle", "--exhaustive", "n=-1"],
])
def test_oracle_bad_generator_arguments(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_json(capsys):
    assert main(["oracle", "--random", "count=5", "--n", "5", "--json"]) == 0
    assert '"mismatches": []' in capsys.readouterr().out


def test_gen_deterministic(tmp_path):
    out1 = str(tmp_path / "a")
    out2 = str(tmp_path / "b")
    main(["gen", "--n", "9", "--seed", "31", "--out", out1])
    main(["gen", "--n", "9", "--seed", "31", "--out", out2])
    assert open(out1 + ".ivl").read() == open(out2 + ".ivl").read()


@pytest.mark.parametrize("argv", [
    ["gen", "--density", "2"],
    ["gen", "--n", "-1"],
])
def test_gen_bad_arguments(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path / "g")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.iterdir())


def test_gen_biconvex_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "g")
    assert main(["gen", "--kind", "biconvex", "--nx", "4", "--ny", "4",
                 "--seed", "3", "--out", out]) == 0
    from intervalpc.bipartite import parse_bipartite_file
    g = parse_bipartite_file(open(out + ".bip").read())
    assert len(g.X) == 4 and len(g.Y) == 4


def bip_text(runs):
    """Balanced .bip text in which y_i sees x_a..x_b for runs[i-1] = (a, b)."""
    k = len(runs)
    lines = [f"X={k} Y={k} convex=bi",
             "X: " + " ".join(f"x{j}" for j in range(1, k + 1)),
             "Y: " + " ".join(f"y{i}" for i in range(1, k + 1))]
    lines += [f"x{j} y{i}" for i, (a, b) in enumerate(runs, 1)
              for j in range(a, b + 1)]
    return "\n".join(lines) + "\n"


# balanced and Hamiltonian (y1 x1 y2 x2 y3 x3), no degree-1 y
PIECE3 = [(1, 2), (1, 3), (2, 3)]
BALANCED3 = bip_text(PIECE3)
TWO_PIECES = bip_text(PIECE3 + [(a + 3, b + 3) for a, b in PIECE3])


def test_solve_bipartite(tmp_path, capsys):
    f = write(tmp_path / "p5.bip",
              "X=2 Y=3 convex=bi\nX: x1 x2\nY: y1 y2 y3\n"
              "x1 y1\nx1 y2\nx2 y2\nx2 y3\n")
    assert main(["solve", f, "--format", "bipartite"]) == 0
    out = capsys.readouterr().out
    assert "hp=yes" in out and "y1 x1 y2 x2 y3" in out
    assert main(["solve", f, "--format", "bipartite", "--terminal", "2"]) == 0
    assert "hp=no" in capsys.readouterr().out
    for terminal in ("0", "-1", "4"):   # Y indices are 1..3
        assert main(["solve", f, "--format", "bipartite",
                     "--terminal", terminal]) == 2
        captured = capsys.readouterr()
        assert f"terminal {terminal} out of range 1..3" in captured.err
        assert captured.out == ""


# one x-convex graph twice: X and Y share the labels a and b, then Y is
# relabelled c, d; --terminal names a Y vertex in both
SHARED_LABELS = "X=2 Y=2 convex=x\nX: a b\nY: b a\na b\nb b\nb a\n"
DISTINCT_LABELS = "X=2 Y=2 convex=x\nX: a b\nY: c d\na c\nb c\nb d\n"


@pytest.mark.parametrize("terminal, want", [("1", ["hp=no"]),
                                            ("2", ["hp=yes", "{d} b {c} a"])])
@pytest.mark.parametrize("text, d, c", [(SHARED_LABELS, "a", "b"),
                                        (DISTINCT_LABELS, "d", "c")],
                         ids=["shared", "distinct"])
def test_solve_xconvex_terminal_is_a_y_vertex(tmp_path, capsys, text, d, c,
                                              terminal, want):
    f = write(tmp_path / "x.bip", text)
    assert main(["solve", f, "--terminal", terminal]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [w.format(d=d, c=c) for w in want]
    assert captured.err == ""


@pytest.mark.parametrize("extra", [[], ["--terminal", "2"]])
def test_solve_bipartite_does_not_import_numpy(tmp_path, extra):
    f = write(tmp_path / "b3.bip", BALANCED3)
    assert run_fresh(["solve", f, "--format", "bipartite"] + extra) == "0 False"


@pytest.mark.parametrize("header, field", [("Y=2 convex=bi", "X="),
                                           ("X=2 convex=bi", "Y="),
                                           ("X=2 Y=2", "convex="),
                                           ("X: x1 x2", "X= Y= convex=")])
def test_solve_bipartite_missing_header_field(tmp_path, capsys, header, field):
    f = write(tmp_path / "bad.bip", header + "\nX: x1 x2\nY: y1 y2\nx1 y1\n")
    assert main(["solve", f, "--format", "bipartite"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: line 1: header needs {field}\n"
    assert captured.out == ""


def test_solve_bipartite_trace(tmp_path, capsys):
    f = write(tmp_path / "two.bip", TWO_PIECES)
    assert main(["solve", f, "--format", "bipartite"]) == 0
    plain = capsys.readouterr()
    assert plain.out == "hp=no\n" and plain.err == ""
    assert main(["solve", f, "--format", "bipartite", "--trace"]) == 0
    traced = capsys.readouterr()
    assert traced.out == plain.out
    assert traced.err == "# augmented graph needs 2 paths: no HP\n"
    f = write(tmp_path / "b3.bip", BALANCED3)
    assert main(["solve", f, "--format", "bipartite", "--trace"]) == 0
    assert capsys.readouterr() == ("hp=yes\ny1 x1 y2 x2 y3 x3\n", "")


def test_bench_tiny(capsys):
    assert main(["bench", "--sizes", "60,120", "--reps", "2",
                 "--kernels"]) == 0
    out = capsys.readouterr().out
    assert "scaling exponent" in out and "backend" not in out
    size_lines = [line for line in out.splitlines() if line.startswith("n=")]
    assert len(size_lines) == 2
    for line in size_lines:
        ratio = float(line.split("terminal/free=")[1].split()[0])
        assert ratio > 0
    kernel_lines = [line for line in out.splitlines()
                    if line.startswith("oracle kernels n=")]
    assert [line.split(":")[0] for line in kernel_lines] == [
        "oracle kernels n= 8", "oracle kernels n=10", "oracle kernels n=12"]


def test_bench_one_repeated_size_has_no_fit(capsys):
    assert main(["bench", "--sizes", "20,20", "--reps", "1"]) == 0
    assert "scaling exponent" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["bench", "--sizes", "abc"],
    ["bench", "--density", "7"],
    ["bench", "--sizes", "0"],
    ["bench", "--reps", "0"],
])
def test_bench_bad_arguments(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_solve_cover_roundtrips_for_random_instances(tmp_path):
    from intervalpc.generators import GenSpec, gen_interval
    from intervalpc.graphcore import write_interval_file
    for seed in (1, 2, 3):
        spec = GenSpec(n=30, density=0.4, seed=seed, count=1)
        f = write(tmp_path / f"m{seed}.ivl",
                  write_interval_file(gen_interval(spec)[0]))
        out = str(tmp_path / f"c{seed}.txt")
        assert main(["solve", f, "--terminal", "7", "--out", out]) == 0
        assert main(["verify", f, out]) == 0


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_keeps_no_option_between_calls(tmp_path, capsys):
    f = write(tmp_path / "p4.ivl", P4)
    assert main(["solve", f, "--terminal", "2"]) == 0
    assert "lambda=2" in capsys.readouterr().out
    assert main(["solve", f]) == 0
    out = capsys.readouterr().out
    assert "terminal=none" in out and "lambda=1" in out


def test_parser_is_not_built_at_import(tmp_path):
    f = write(tmp_path / "k4.ivl", K4)
    assert run_fresh(["solve", f, "--terminal", "2"],
                     at_import="build_parser.cache_info().currsize") == "0 False 0"
