import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import surpkit
from surpkit.cli import main
from surpkit.graph import MAX_NODES, save_edge_list
from surpkit.partition import load_partition, save_partition

from testdata import toy_graph


@pytest.fixture()
def toy_edges(tmp_path, toy):
    path = tmp_path / "toy.edges"
    save_edge_list(toy, path)
    return path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def refusal(capsys, *argv):
    """Exit status and stderr of a run that must print nothing on stdout."""
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert out == ""
    return code, err


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


class TestDetect:
    def test_toy(self, capsys, tmp_path, toy_edges, toy_surprise_oracle):
        best, _ = toy_surprise_oracle
        out_path = tmp_path / "part.txt"
        code, out = run(capsys, "detect", "--graph", toy_edges, "--out", out_path)
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["K"] == "11" and fields["Nc"] == "4"
        assert float(fields["S"]) == pytest.approx(best, abs=1e-8)
        assert load_partition(out_path).Nc == 4

    def test_empty_graph_all_singletons(self, capsys, tmp_path):
        path = tmp_path / "iso.edges"
        path.write_text("# no edges, but 3 isolated nodes after this one pair\n0 3\n")
        code, out = run(capsys, "detect", "--graph", path)
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["S"]) >= 0.0

    def test_missing_file_fails(self, capsys, tmp_path):
        path = tmp_path / "nope.edges"
        code, err = refusal(capsys, "detect", "--graph", path)
        assert code == 1 and err == f"error: {path}: No such file or directory\n"

    def test_directory_refused(self, capsys, tmp_path):
        # used to print error: [Errno 21] Is a directory: '<path>'
        code, err = refusal(capsys, "detect", "--graph", tmp_path)
        assert code == 1 and err == f"error: {tmp_path}: Is a directory\n"

    @pytest.mark.parametrize("text", ["", " \n\n"], ids=["empty", "whitespace"])
    def test_empty_edge_list_refused(self, capsys, tmp_path, text):
        # used to print K=1 n=0 Nc=1 M=0 ell=0 S=0.000000000 and exit 0
        path = tmp_path / "empty.txt"
        path.write_text(text)
        out_path = tmp_path / "found.txt"
        code, err = refusal(capsys, "detect", "--graph", path, "--out", out_path)
        assert code == 1 and err == f"error: {path}: no edges and no '# nodes K' line\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["detect", "oracle"])
    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            (f"0 1\n0 {MAX_NODES}\n", 2, f"node id {MAX_NODES} needs more than {MAX_NODES} nodes"),
            (f"# nodes {MAX_NODES + 1}\n0 1\n", 1, f"declared node count {MAX_NODES + 1} is above {MAX_NODES}"),
        ],
        ids=["id", "declared"],
    )
    def test_node_count_ceiling(self, capsys, tmp_path, command, text, lineno, message):
        # a huge id used to allocate one adjacency set per id until the
        # process was killed, with no error line
        path = tmp_path / "huge.txt"
        path.write_text(text)
        out_path = tmp_path / "found.txt"
        argv = [command, "--graph", path] + (["--out", out_path] if command == "detect" else [])
        code, err = refusal(capsys, *argv)
        assert code == 1 and err == f"error: {path}:{lineno}: {message}\n"
        assert not out_path.exists()

    def test_anneal_polish_keeps_optimum(self, capsys, toy_edges, toy_surprise_oracle):
        best, _ = toy_surprise_oracle
        code, out = run(
            capsys, "detect", "--graph", toy_edges,
            "--anneal-steps", 5, "--anneal-T", 0.01, "--seed", 3,
        )
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["S"]) == pytest.approx(best, abs=1e-8)


    def test_anneal_never_ends_below_greedy(self, capsys, tmp_path):
        # at this temperature the annealed walk's own optimum is lower than
        # the greedy one, which detect must then keep
        edges, truth = tmp_path / "e.txt", tmp_path / "t.txt"
        code, _ = run(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.9, "--nodes", 40,
            "--r", 0.1, "--p", 0.6, "--q", 0.1, "--seed", 0,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0
        code, out = run(capsys, "detect", "--graph", edges, "--seed", 0)
        greedy = float(dict(kv.split("=") for kv in out.split())["S"])
        code, out = run(
            capsys, "detect", "--graph", edges, "--seed", 0,
            "--anneal-steps", 2, "--anneal-T", 5.0,
        )
        assert code == 0
        assert float(dict(kv.split("=") for kv in out.split())["S"]) >= greedy

    def test_anneal_polish_wins(self, capsys, tmp_path):
        # an instance where the annealed copy, polished by stepper(), ends
        # above the greedy optimum, so detect reports and writes the copy
        edges, truth, found = tmp_path / "e.txt", tmp_path / "t.txt", tmp_path / "found.txt"
        code, _ = run(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.85, "--nodes", 60,
            "--r", 0.05, "--p", 0.4, "--q", 0.05, "--seed", 68,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0
        code, out = run(capsys, "detect", "--graph", edges, "--seed", 68)
        greedy = float(dict(kv.split("=") for kv in out.split())["S"])
        code, out = run(
            capsys, "detect", "--graph", edges, "--seed", 68,
            "--anneal-steps", 3, "--anneal-T", 0.05, "--out", found,
        )
        assert code == 0
        polished = float(dict(kv.split("=") for kv in out.split())["S"])
        assert polished > greedy + 1.0
        # the file, community ids included, is the one detect has always
        # written: the annealed copy takes its ids by first appearance
        assert hashlib.sha256(found.read_bytes()).hexdigest() == (
            "287f21d557e393deda66de5ce9f4edc45c924fbee40c03c70d36786c606b08e4"
        )
        code, out = run(capsys, "eval", "surprise", "--graph", edges, "--partition", found)
        assert code == 0 and float(out) == pytest.approx(polished, abs=1e-8)

    @pytest.mark.parametrize(
        "flags",
        [("--anneal-steps", -5), ("--anneal-T", 0), ("--anneal-T", -0.5), ("--anneal-T", "nan")],
    )
    def test_bad_anneal_flags_fail(self, capsys, toy_edges, flags):
        # rejected even with --anneal-steps 0, where the temperature is never used
        code = main(["detect", "--graph", str(toy_edges), *map(str, flags)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestBench:
    def test_our_round_trip(self, capsys, tmp_path):
        edges = tmp_path / "bench.edges"
        truth = tmp_path / "bench.truth"
        code, out = run(
            capsys, "bench", "our", "--ncliques", 5, "--pielou", 0.9,
            "--nodes", 100, "--r", 0.0, "--seed", 1,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0
        assert load_partition(truth).Nc == 5
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["K"] == "100"

    def test_rc(self, capsys, tmp_path, toy_edges):
        out_path = tmp_path / "rc.edges"
        code, out = run(capsys, "bench", "rc", "--graph", toy_edges, "--R", 50, "--seed", 2, "--out", out_path)
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert fields["n_before"] == "16" and fields["n_after"] == "8"

    def test_rc_keeps_isolated_nodes(self, capsys, tmp_path):
        # rewiring strands trailing nodes; the graph must keep all of them
        edges, truth, rc = tmp_path / "e.txt", tmp_path / "t.txt", tmp_path / "rc.txt"
        code, _ = run(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 1.0, "--nodes", 40,
            "--r", 0.1, "--p", 0.9, "--seed", 3,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0
        code, out = run(capsys, "bench", "rc", "--graph", edges, "--R", 90, "--out", rc)
        assert code == 0
        assert dict(kv.split("=") for kv in out.split())["K"] == "40"
        code, out = run(capsys, "eval", "surprise", "--graph", rc, "--partition", truth)
        assert code == 0 and float(out) >= 0.0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p", "nan", "--q", "nan"], "--p must be in [0, 1], got nan"),
            (["--p", "-0.5"], "--p must be in [0, 1], got -0.5"),
            (["--q", "nan"], "--q must be in [0, 1], got nan"),
            (["--q", "1.5"], "--q must be in [0, 1], got 1.5"),
        ],
    )
    def test_probability_outside_unit_interval_refused(self, capsys, tmp_path, flags, message):
        # NaN and negative values used to skip degradation and exit 0
        edges, truth = tmp_path / "e.txt", tmp_path / "t.txt"
        code, err = refusal(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.9, "--nodes", 40, *flags,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 1 and err == f"error: {message}\n"
        assert not edges.exists() and not truth.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--r", "1.5"], "--r must be in [0, 1), got 1.5"),
            (["--r", "1"], "--r must be in [0, 1), got 1.0"),
            (["--r", "nan"], "--r must be in [0, 1), got nan"),
            (["--r", "-0.1"], "--r must be in [0, 1), got -0.1"),
            (["--nodes", "0"], "--nodes 0 leaves 0 clique nodes at --r 0.0, fewer than the 8 that --ncliques 4 needs"),
            (["--nodes", "7"], "--nodes 7 leaves 7 clique nodes at --r 0.0, fewer than the 8 that --ncliques 4 needs"),
            (["--r", "0.9"], "--nodes 40 leaves 4 clique nodes at --r 0.9, fewer than the 8 that --ncliques 4 needs"),
            (["--ncliques", "1"], "--ncliques must be at least 2, got 1"),
            (["--pielou", "0"], "--pielou must be in (0, 1], got 0.0"),
            (["--pielou", "nan"], "--pielou must be in (0, 1], got nan"),
            (["--nodes", "11", "--r", "0.5"], "no number of clique nodes gives --nodes 11 at --r 0.5"),
            # used to write a graph file of more nodes than any reader takes;
            # cliques of two nodes keep the file small where it is still made
            (
                ["--ncliques", "500000", "--pielou", "1.0", "--nodes", str(MAX_NODES + 1)],
                f"--nodes {MAX_NODES + 1} is above {MAX_NODES}, the most a graph file may hold",
            ),
        ],
    )
    def test_size_setting_refused(self, capsys, tmp_path, flags, message):
        # --r 1.5 used to fail inside the size generator with a message that
        # named no flag, and --r nan with a float-to-int conversion error
        edges, truth = tmp_path / "e.txt", tmp_path / "t.txt"
        code, err = refusal(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.9, "--nodes", 40, *flags,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 1 and err == f"error: {message}\n"
        assert not edges.exists() and not truth.exists()

    @pytest.mark.parametrize(
        "nodes, r, flags",
        [(150, 0.01, ["--cycle"]), (150, 0.05, []), (80, 0.01, []), (60, 0.01, ["--cycle"]), (8, 0.1, [])],
    )
    def test_node_count_met(self, capsys, tmp_path, nodes, r, flags):
        # each used to write one node too few (or, at --nodes 8, refuse):
        # --nodes was rounded to clique nodes, and build_benchmark truncates back
        edges, truth = tmp_path / "e.txt", tmp_path / "t.txt"
        code, out = run(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.85, "--nodes", nodes,
            "--r", r, *flags, "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0
        assert dict(kv.split("=") for kv in out.split())["K"] == str(nodes)
        assert len(truth.read_text().splitlines()) == nodes

    def test_k500_recipe_pinned(self, capsys, tmp_path):
        # the paper-scale recipe at K=500, seed 0, as TestPaperScale solves it
        edges, truth = tmp_path / "e.txt", tmp_path / "t.txt"
        code, out = run(
            capsys, "bench", "our", "--ncliques", 20, "--pielou", 0.85, "--nodes", 500,
            "--r", 0.01, "--p", 0.4, "--q", 0.02, "--seed", 0,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0
        assert out == "K=500 Nc=25 n=8548 inclique=6302 between=2246 pielou=0.8595\n"
        assert hashlib.sha256(edges.read_bytes()).hexdigest() == (
            "21ae7ed7d7ec3307b5b571e40ff51af89cae5c10224b4e1390f07710698e729c"
        )
        assert hashlib.sha256(truth.read_bytes()).hexdigest() == (
            "c71327eaf77cb0dfc89d4d0f58ffb9aa6ef4832585163c10b3224344cf9468f7"
        )

    @pytest.mark.parametrize(
        "R, message",
        [
            ("150", "--R must be in [0, 100], got 150.0"),
            ("nan", "--R must be in [0, 100], got nan"),
            ("-1", "--R must be in [0, 100], got -1.0"),
        ],
    )
    def test_rc_percentage_refused(self, capsys, tmp_path, R, message):
        # refused before the graph is read, so a missing graph is never named;
        # the refusal used to name neither the flag nor the value
        out = tmp_path / "rc.txt"
        code, err = refusal(
            capsys, "bench", "rc", "--graph", tmp_path / "missing.edges", "--R", R, "--out", out,
        )
        assert code == 1 and err == f"error: {message}\n"
        assert not out.exists()

    def test_smallest_node_count_accepted(self, capsys, tmp_path):
        # two nodes per clique is enough
        edges, truth = tmp_path / "e.txt", tmp_path / "t.txt"
        code, out = run(
            capsys, "bench", "our", "--ncliques", 4, "--pielou", 1.0, "--nodes", 8,
            "--out-edges", edges, "--out-truth", truth,
        )
        assert code == 0 and load_partition(truth).Nc == 4

    def test_zero_probabilities_draw_nothing(self, capsys, tmp_path):
        files = []
        for tag, flags in (("omitted", []), ("zero", ["--p", 0, "--q", 0])):
            edges, truth = tmp_path / f"{tag}.edges", tmp_path / f"{tag}.truth"
            code, _ = run(
                capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.85, "--nodes", 60,
                "--r", 0.05, *flags, "--seed", 4, "--out-edges", edges, "--out-truth", truth,
            )
            assert code == 0
            files.append(edges.read_bytes() + truth.read_bytes())
        assert files[0] == files[1]

    def test_reproducible_outputs(self, capsys, tmp_path):
        digests = []
        for tag in ("a", "b"):
            edges = tmp_path / f"{tag}.edges"
            truth = tmp_path / f"{tag}.truth"
            code, _ = run(
                capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.85,
                "--nodes", 60, "--r", 0.05, "--p", 0.2, "--q", 0.01,
                "--seed", 11, "--out-edges", edges, "--out-truth", truth,
            )
            assert code == 0
            digests.append(
                hashlib.sha256(edges.read_bytes() + truth.read_bytes()).hexdigest()
            )
        assert digests[0] == digests[1]


class TestEval:
    def test_vi_identical(self, capsys, tmp_path, truth):
        p = tmp_path / "p.txt"
        save_partition(truth, p)
        code, out = run(capsys, "eval", "vi", "--a", p, "--b", p, "--normalized")
        assert code == 0 and float(out) == 0.0

    def test_pielou(self, capsys, tmp_path, truth):
        p = tmp_path / "p.txt"
        save_partition(truth, p)
        code, out = run(capsys, "eval", "pielou", "--partition", p)
        assert code == 0 and 0.9 < float(out) <= 1.0

    def test_surprise_at_optimum(self, capsys, tmp_path, toy_edges, toy_surprise_oracle):
        best, argmax = toy_surprise_oracle
        p = tmp_path / "opt.txt"
        save_partition(argmax[0], p)
        code, out = run(capsys, "eval", "surprise", "--graph", toy_edges, "--partition", p)
        assert code == 0 and float(out) == pytest.approx(best, abs=1e-8)

    def test_modularity(self, capsys, tmp_path, toy_edges, truth, toy_modularity_oracle):
        best, _ = toy_modularity_oracle
        p = tmp_path / "truth.txt"
        save_partition(truth, p)
        code, out = run(capsys, "eval", "modularity", "--graph", toy_edges, "--partition", p)
        assert code == 0 and float(out) == pytest.approx(best, abs=1e-8)

    def test_frag_csv(self, capsys, tmp_path, truth):
        a = tmp_path / "a.txt"
        save_partition(truth, a)
        code, out = run(capsys, "eval", "frag", "--initial", a, "--found", a)
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("kept,")
        assert row.split(",")[0] == "100.00"

    def test_domain_error_exit(self, capsys, tmp_path, truth):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_partition(truth, a)
        b.write_text("0\n1\n")
        code, err = refusal(capsys, "eval", "vi", "--a", a, "--b", b)
        assert code == 1 and err == f"error: {b}: partitions cover 11 and 2 nodes\n"

    @pytest.mark.parametrize(
        "kind, message",
        [
            ("frag", "partitions cover 11 and 2 nodes"),
            ("surprise", "partition over 2 nodes does not match graph with 11"),
            ("modularity", "partition does not match graph"),
        ],
    )
    def test_mismatch_names_the_partition_file(self, capsys, tmp_path, toy_edges, truth, kind, message):
        a, short = tmp_path / "a.txt", tmp_path / "short.txt"
        save_partition(truth, a)
        short.write_text("0\n1\n")
        if kind == "frag":
            argv = ["--initial", a, "--found", short]
        else:
            argv = ["--graph", toy_edges, "--partition", short]
        code, err = refusal(capsys, "eval", kind, *argv)
        assert code == 1 and err == f"error: {short}: {message}\n"

    def test_modularity_of_edgeless_graph_names_the_graph(self, capsys, tmp_path):
        graph, part = tmp_path / "edgeless.txt", tmp_path / "p.txt"
        graph.write_text("# nodes 3\n")
        part.write_text("0\n0\n1\n")
        code, err = refusal(capsys, "eval", "modularity", "--graph", graph, "--partition", part)
        assert code == 1 and err == f"error: {graph}: modularity undefined on an edgeless graph\n"

    @pytest.mark.parametrize(
        "argv, bad",
        [
            (["detect", "--graph", "{bad}"], "graph"),
            (["eval", "vi", "--a", "{bad}", "--b", "{part}"], "a"),
            (["eval", "vi", "--a", "{part}", "--b", "{bad}"], "b"),
            (["eval", "pielou", "--partition", "{bad}"], "partition"),
            (["eval", "surprise", "--graph", "{graph}", "--partition", "{bad}"], "partition"),
            (["landscape", "embed", "--dist", "{bad}", "--out", "{out}"], "dist"),
        ],
        ids=["detect", "vi-a", "vi-b", "pielou", "surprise", "embed"],
    )
    def test_file_not_utf8_named(self, capsys, tmp_path, toy_edges, truth, argv, bad):
        paths = {"bad": tmp_path / "binary.txt", "part": tmp_path / "p.txt",
                 "graph": toy_edges, "out": tmp_path / "coords.tsv"}
        paths["bad"].write_bytes(b"\xff\xfe0 1\n")
        save_partition(truth, paths["part"])
        code, err = refusal(capsys, *(a.format(**paths) for a in argv))
        assert code == 1 and err == f"error: {paths['bad']}: {NOT_UTF8}\n"
        assert not paths["out"].exists()


class TestOracle:
    # the paper's toy graph: two tied surprise maxima, one modularity maximum;
    # each stdout is pinned byte for byte
    def test_surprise_degeneracy(self, capsys, toy_edges, toy_surprise_oracle):
        best, _ = toy_surprise_oracle
        code, out = run(capsys, "oracle", "--graph", toy_edges, "--quality", "surprise")
        assert code == 0
        lines = out.strip().splitlines()
        fields = dict(kv.split("=") for kv in lines[0].split())
        assert fields["maximizers"] == "2"
        assert float(fields["value"]) == pytest.approx(best, abs=1e-8)
        assert out == (
            "quality=surprise value=21.675463412 maximizers=2\n"
            "0 0 0 0 1 1 1 1 2 2 3\n"
            "0 0 0 0 1 1 1 1 2 3 3\n"
        )

    def test_modularity_maximizers(self, capsys, toy_edges, toy_modularity_oracle):
        best, argmax = toy_modularity_oracle
        code, out = run(capsys, "oracle", "--graph", toy_edges, "--quality", "modularity")
        assert code == 0
        header, *rows = out.strip().splitlines()
        assert header == f"quality=modularity value={best:.9f} maximizers={len(argmax)}"
        assert rows == [" ".join(str(c) for c in p.assign) for p in argmax]
        assert out == "quality=modularity value=0.509765625 maximizers=1\n0 0 0 0 1 1 1 1 2 2 2\n"

    def test_triangle_all_in_one(self, capsys, tmp_path):
        path = tmp_path / "tri.edges"
        path.write_text("0 1\n1 2\n0 2\n")
        code, out = run(capsys, "oracle", "--graph", path)
        lines = out.strip().splitlines()
        assert "0 0 0" in lines[1:]

    def test_too_large_refused(self, capsys, tmp_path):
        path = tmp_path / "big.edges"
        path.write_text("\n".join(f"{i} {i + 1}" for i in range(13)))
        assert main(["oracle", "--graph", str(path)]) == 1

    @pytest.mark.parametrize(
        "text, quality, message",
        [
            ("# nodes 3\n", "modularity", "modularity undefined on an edgeless graph"),
            ("".join(f"{i} {i + 1}\n" for i in range(12)), "surprise", "exhaustive enumeration refused for K=13 > 12"),
            ("".join(f"{i} {i + 1}\n" for i in range(12)), "modularity", "exhaustive enumeration refused for K=13 > 12"),
        ],
        ids=["edgeless", "too-large-surprise", "too-large-modularity"],
    )
    def test_refusal_names_the_graph(self, capsys, tmp_path, text, quality, message):
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, err = refusal(capsys, "oracle", "--graph", path, "--quality", quality)
        assert code == 1 and err == f"error: {path}: {message}\n"


class TestMLE:
    def test_discrete(self, capsys, tmp_path):
        from surpkit.randoms import sample_powerlaw_discrete

        path = tmp_path / "samples.txt"
        draws = sample_powerlaw_discrete(2.5, None, rng=0, count=20_000)
        path.write_text("\n".join(map(str, draws)))
        code, out = run(capsys, "mle", "--samples", path, "--discrete")
        assert code == 0
        fields = dict(kv.split("=") for kv in out.split())
        assert abs(float(fields["gamma"]) - 2.5) < 0.1

    def test_discrete_line_pinned(self, capsys, tmp_path):
        # the line before scipy was imported on first use, bit for bit
        path = tmp_path / "samples.txt"
        np.savetxt(path, np.random.default_rng(0).zipf(2.5, 500), fmt="%d")
        code, out = run(capsys, "mle", "--samples", path, "--discrete")
        assert code == 0
        assert out == "gamma=2.39214483 lnL=-558.283750 N=500\n"

    def test_continuous(self, capsys, tmp_path):
        import math

        path = tmp_path / "samples.txt"
        path.write_text("\n".join([str(math.e)] * 50))
        code, out = run(capsys, "mle", "--samples", path)
        fields = dict(kv.split("=") for kv in out.split())
        assert float(fields["gamma"]) == pytest.approx(2.0, rel=1e-9)

    @pytest.mark.parametrize("bad", ["2.7", "nan", "inf"])
    def test_non_integral_discrete_sample_fails(self, capsys, tmp_path, bad):
        # truncating 2.7 to 2 used to give gamma=1.76389840 without a word.
        # The fit judges the samples, a non-finite one before a fraction
        path = tmp_path / "samples.txt"
        path.write_text(f"1 {bad} 3 5 2.5\n")
        code = main(["mle", "--samples", str(path), "--discrete"])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        reason = "is not an integer" if bad == "2.7" else "is not finite"
        assert err == f"error: {path}: sample {bad} {reason}\n"

    def test_non_numeric_sample_fails(self, capsys, tmp_path):
        path = tmp_path / "samples.txt"
        path.write_text("x\n")
        code = main(["mle", "--samples", str(path)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "'x'" in err


class TestLandscape:
    def test_embed_and_walk(self, capsys, tmp_path):
        from surpkit.embedding import save_distance_matrix

        rng = np.random.default_rng(5)
        pts = rng.random((8, 2))
        D = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
        dist = tmp_path / "dist.txt"
        save_distance_matrix(D, dist)
        coords_out = tmp_path / "coords.tsv"
        code, out = run(
            capsys, "landscape", "embed", "--dist", dist,
            "--gamma", -1.0, "--dlim", 10.0, "--seed", 2, "--out", coords_out,
        )
        assert code == 0
        assert len(coords_out.read_text().splitlines()) == 8

        values = tmp_path / "values.txt"
        values.write_text("\n".join(str(float(i)) for i in range(8)))
        walk_out = tmp_path / "walk.csv"
        code, out = run(
            capsys, "landscape", "walk", "--values", values,
            "--dist", dist, "--top", 5, "--out", walk_out,
        )
        assert code == 0
        lines = walk_out.read_text().splitlines()
        assert lines[0] == "cum_distance,height"
        assert len(lines) == 6


    @pytest.mark.parametrize(
        "text, message",
        [
            ("0\n", "must not be empty"),
            ("2\n0 nan\nnan 0\n", "must be finite"),
            ("2\n0 inf\ninf 0\n", "must be finite"),
            ("2\n0 1\n2 0\n", "must be symmetric"),
            ("2\n1 1\n1 0\n", "must have a zero diagonal"),
            ("2\n0 -1\n-1 0\n", "must be non-negative"),
        ],
    )
    def test_broken_matrix_fails(self, capsys, tmp_path, text, message):
        dist = tmp_path / "dist.txt"
        dist.write_text(text)
        coords_out = tmp_path / "coords.tsv"
        code = main(["landscape", "embed", "--dist", str(dist), "--out", str(coords_out)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {dist}: ") and err.count("\n") == 1
        assert message in err
        assert not coords_out.exists()

    @pytest.mark.parametrize(
        "size, message",
        [
            ("-1", "size must be a positive integer, got '-1'"),
            ("2.5", "size must be a positive integer, got '2.5'"),
            ("0", "size '0': distance matrix must not be empty"),
        ],
        ids=["negative", "fraction", "zero"],
    )
    def test_bad_size_token_fails(self, capsys, tmp_path, size, message):
        dist = tmp_path / "dist.txt"
        dist.write_text(f"{size}\n0 1\n1 0\n")
        coords_out = tmp_path / "coords.tsv"
        code = main(["landscape", "embed", "--dist", str(dist), "--out", str(coords_out)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {dist}: {message}\n"
        assert not coords_out.exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--dlim", "nan", "distance cutoff must be positive, got nan"),
            ("--gamma", "inf", "weight exponent must be finite, got inf"),
            ("--gamma", "nan", "weight exponent must be finite, got nan"),
        ],
    )
    def test_non_finite_setting_refused(self, capsys, tmp_path, flag, value, message):
        # each used to exit 0, printing chi2=0 with unfitted coordinates or chi2=nan
        from surpkit.embedding import save_distance_matrix

        dist = tmp_path / "dist.txt"
        save_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), dist)
        coords_out = tmp_path / "coords.tsv"
        code, err = refusal(capsys, "landscape", "embed", "--dist", dist, flag, value, "--out", coords_out)
        assert code == 1 and err == f"error: {message}\n"
        assert not coords_out.exists()

    def test_step_limit_reported(self, capsys, tmp_path, monkeypatch):
        from surpkit import embedding

        # three collinear points reach no other stop within 300 steps
        monkeypatch.setattr(embedding, "_STEP_LIMIT", 300)
        dist = tmp_path / "dist.txt"
        dist.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        code, out = run(capsys, "landscape", "embed", "--dist", dist, "--dlim", 3, "--out", tmp_path / "c.tsv")
        assert code == 0 and out.split()[-1] == "stop=step_limit"

    def test_non_numeric_matrix_entry_fails(self, capsys, tmp_path):
        dist = tmp_path / "dist.txt"
        dist.write_text("2\n0 x\nx 0\n")
        coords_out = tmp_path / "coords.tsv"
        code = main(["landscape", "embed", "--dist", str(dist), "--out", str(coords_out)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {dist}: matrix entry 'x' is not a number\n"
        assert not coords_out.exists()

    def test_non_numeric_value_fails(self, capsys, tmp_path):
        from surpkit.embedding import save_distance_matrix

        dist = tmp_path / "dist.txt"
        save_distance_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]), dist)
        values = tmp_path / "values.txt"
        values.write_text("0\nzz\n")
        walk_out = tmp_path / "walk.csv"
        code = main([
            "landscape", "walk", "--values", str(values), "--dist", str(dist),
            "--top", "2", "--out", str(walk_out),
        ])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith(f"error: {values}: ") and err.count("\n") == 1
        assert "'zz'" in err
        assert not walk_out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--graph", "missing.edges", "--out", "out.txt"],
        ["bench", "our", "--ncliques", "4", "--pielou", "0.9", "--nodes", "40",
         "--out-edges", "out.txt", "--out-truth", "truth.txt"],
        ["bench", "rc", "--graph", "missing.edges", "--R", "10", "--out", "out.txt"],
        ["landscape", "embed", "--dist", "missing.dist", "--out", "out.txt"],
    ],
    ids=["detect", "bench-our", "bench-rc", "landscape-embed"],
)
def test_negative_seed_refused_by_name(capsys, tmp_path, monkeypatch, argv):
    # numpy used to refuse it as "expected non-negative integer", naming no
    # flag; the input files do not exist, so the seed is checked before any read
    monkeypatch.chdir(tmp_path)
    code, err = refusal(capsys, *argv, "--seed", -1)
    assert code == 1 and err == "error: --seed must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bad", ["missing-directory", "directory"])
@pytest.mark.parametrize(
    "command, flag",
    [
        ("detect", "--out"),
        ("bench our", "--out-edges"),
        ("bench our", "--out-truth"),
        ("bench rc", "--out"),
        ("landscape embed", "--out"),
        ("landscape walk", "--out"),
    ],
    ids=["detect", "bench-our-edges", "bench-our-truth", "bench-rc", "landscape-embed", "landscape-walk"],
)
def test_bad_output_path_refused_first(capsys, tmp_path, toy_edges, command, flag, bad):
    # bench our used to write --out-edges before failing on --out-truth, and
    # detect to fail on a directory --out only after the whole solve
    from surpkit.embedding import save_distance_matrix

    dist, values = tmp_path / "dist.txt", tmp_path / "values.txt"
    save_distance_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]), dist)
    values.write_text("0\n1\n2\n")
    out_dir = tmp_path / "out"
    (out_dir / "sub").mkdir(parents=True)
    if bad == "missing-directory":
        path, message = out_dir / "missing" / "x.txt", f"{out_dir / 'missing'} is not a directory"
    else:
        path, message = out_dir / "sub", "is a directory"
    argv = [*command.split(), *{
        "detect": ["--graph", toy_edges],
        "bench our": ["--ncliques", 4, "--pielou", 0.85, "--nodes", 100],
        "bench rc": ["--graph", toy_edges, "--R", 10],
        "landscape embed": ["--dist", dist],
        "landscape walk": ["--values", values, "--dist", dist, "--top", 2],
    }[command]]
    for out_flag in ("--out-edges", "--out-truth") if command == "bench our" else ("--out",):
        argv += [out_flag, path if out_flag == flag else out_dir / f"{out_flag[2:]}.txt"]
    code, err = refusal(capsys, *argv)
    assert code == 1 and err == f"error: {flag} {path}: {message}\n"
    assert [p for p in out_dir.rglob("*") if not p.is_dir()] == []


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["detect", "--graph", "{toy}", "--out", ""], "--out"),
        (["bench", "our", "--ncliques", "4", "--pielou", "0.85", "--nodes", "100",
          "--out-edges", "", "--out-truth", "truth.txt"], "--out-edges"),
        (["bench", "our", "--ncliques", "4", "--pielou", "0.85", "--nodes", "100",
          "--out-edges", "edges.txt", "--out-truth", ""], "--out-truth"),
        (["bench", "rc", "--graph", "{toy}", "--R", "10", "--out", ""], "--out"),
        (["landscape", "embed", "--dist", "{dist}", "--out", ""], "--out"),
        (["landscape", "walk", "--values", "{values}", "--dist", "{dist}", "--out", ""], "--out"),
    ],
    ids=["detect", "bench-our-edges", "bench-our-truth", "bench-rc", "landscape-embed", "landscape-walk"],
)
def test_empty_output_path_refused_first(capsys, tmp_path, monkeypatch, toy_edges, argv, flag):
    # detect used to solve and exit 0 having written nothing, and landscape
    # embed to embed and then fail naming no flag
    from surpkit.embedding import save_distance_matrix

    dist, values = tmp_path / "dist.txt", tmp_path / "values.txt"
    save_distance_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]), dist)
    values.write_text("0\n1\n2\n")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.chdir(out_dir)
    code, err = refusal(capsys, *(a.format(toy=toy_edges, dist=dist, values=values) for a in argv))
    assert code == 1 and err == f"error: {flag}: empty path\n"
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("spelling", ["same.txt", "./same.txt", "{dir}/same.txt"])
def test_bench_our_outputs_must_differ(capsys, tmp_path, monkeypatch, spelling):
    # the truth used to overwrite the edge list, with exit status 0
    monkeypatch.chdir(tmp_path)
    truth = spelling.format(dir=tmp_path)
    code, err = refusal(
        capsys, "bench", "our", "--ncliques", 4, "--pielou", 0.85, "--nodes", 100,
        "--out-edges", "same.txt", "--out-truth", truth,
    )
    assert code == 1 and err == f"error: --out-truth {truth}: the same file as --out-edges\n"
    assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def written(tmp_path):
    """The files the CLI writes, each by the subcommand that makes it."""
    paths = {name: tmp_path / f"{name}.txt" for name in ("edges", "truth", "found", "rewired")}
    for argv in (
        ["bench", "our", "--ncliques", 4, "--pielou", 0.85, "--nodes", 60, "--r", 0.05, "--p", 0.3,
         "--q", 0.05, "--seed", 1, "--out-edges", paths["edges"], "--out-truth", paths["truth"]],
        ["detect", "--graph", paths["edges"], "--seed", 1, "--out", paths["found"]],
        ["bench", "rc", "--graph", paths["edges"], "--R", 20, "--seed", 1, "--out", paths["rewired"]],
    ):
        assert main([str(a) for a in argv]) == 0
    return paths


@pytest.mark.parametrize(
    "argv",
    [
        ["detect", "--graph", "{edges}"],
        ["bench", "rc", "--graph", "{edges}", "--R", "10", "--out", "{edges}.rc"],
        ["eval", "vi", "--a", "{truth}", "--b", "{truth}"],
        ["eval", "pielou", "--partition", "{truth}"],
        ["eval", "frag", "--initial", "{truth}", "--found", "{found}"],
        ["eval", "surprise", "--graph", "{edges}", "--partition", "{found}"],
        ["eval", "vi", "--a", "{found}", "--b", "{found}"],
        ["eval", "modularity", "--graph", "{edges}", "--partition", "{found}"],
        ["detect", "--graph", "{rewired}"],
    ],
    ids=[
        "our-edges-detect", "our-edges-rc", "our-truth-vi", "our-truth-pielou", "our-truth-frag",
        "found-surprise", "found-vi", "found-modularity", "rewired-detect",
    ],
)
def test_written_files_read_back(capsys, written, argv):
    # bench our's edges and truth, detect --out's partition and bench rc's
    # edges, each fed to a subcommand that reads it
    capsys.readouterr()
    code, out = run(capsys, *(a.format(**written) for a in argv))
    assert code == 0
    if argv[:2] == ["eval", "vi"]:
        assert float(out) == 0.0


# the arguments that read a value file or a distance matrix: {path} is the
# broken file, {values} and {dist} good inputs, and {out} the output file
_FILE_ARGS = {
    "mle": ["mle", "--samples", "{path}"],
    "mle-discrete": ["mle", "--samples", "{path}", "--discrete"],
    "walk": ["landscape", "walk", "--values", "{path}", "--dist", "{dist}", "--top", "2", "--out", "{out}"],
    "walk-dist": ["landscape", "walk", "--values", "{values}", "--dist", "{path}", "--top", "2", "--out", "{out}"],
    "embed-dist": ["landscape", "embed", "--dist", "{path}", "--out", "{out}"],
}
# each corruption by id: what is at the path (None: nothing, "/": a
# directory, bytes: a file that is not UTF-8 text) and what the refusal says
_VALUE_CORRUPTIONS = {
    "missing": (None, "No such file or directory"),
    "directory": ("/", "Is a directory"),
    "not-utf8": (b"\xff1\n2\n", NOT_UTF8),
    "empty": ("", "no numbers"),
    "whitespace": (" \n\t\n", "no numbers"),
    "non-numeric": ("1\nx\n3\n", "could not convert string 'x'"),
    "nan": ("1\nnan\n3\n", "nan is not finite"),
    "inf": ("1\ninf\n3\n", "inf is not finite"),
    "1e400": ("1\n1e400\n3\n", "inf is not finite"),
    # loadtxt reads this as a 2 x 2 array, which used to pass as 4 samples
    "two-columns": ("1 2\n3 4\n", "2 rows of 2 numbers; one row or one column required"),
}
_MATRIX_CORRUPTIONS = {
    "missing": (None, "No such file or directory"),
    "directory": ("/", "Is a directory"),
    "not-utf8": (b"\xff1\n2\n", NOT_UTF8),
    "non-numeric": ("2\n0 x\nx 0\n", "matrix entry 'x' is not a number"),
    "1e400": ("2\n0 1e400\n1e400 0\n", "distances must be finite"),
    "truncated": ("3\n0 1 2\n1 0 1\n2 1\n", "expected 9 entries after the size, got 8"),
    "nan": ("2\n0 nan\nnan 0\n", "distances must be finite"),
}
_BROKEN_FILES = [
    pytest.param(command, content, message, id=f"{command}-{name}")
    for command in _FILE_ARGS
    for name, (content, message) in (
        _MATRIX_CORRUPTIONS if command.endswith("-dist") else _VALUE_CORRUPTIONS
    ).items()
] + [pytest.param("mle-discrete", "1\n2.5\n3\n", "sample 2.5 is not an integer", id="mle-discrete-non-integer")]


class TestValueFiles:
    """mle --samples, landscape walk --values, and the --dist of landscape
    walk and embed refuse a broken file in one line that names it, with no
    warning and no output file."""

    @pytest.mark.parametrize("command, content, message", _BROKEN_FILES)
    def test_refused_in_one_line(self, capsys, recwarn, tmp_path, command, content, message):
        from surpkit.embedding import save_distance_matrix

        path, out = tmp_path / "broken.txt", tmp_path / "out.txt"
        dist, values = tmp_path / "dist.txt", tmp_path / "values.txt"
        save_distance_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]), dist)
        values.write_text("0\n1\n2\n")
        if content == "/":
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        elif content is not None:
            path.write_text(content)
        argv = (a.format(path=path, dist=dist, values=values, out=out) for a in _FILE_ARGS[command])
        code, err = refusal(capsys, *argv)
        assert code == 1 and err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert str(path) in err and message in err
        assert not recwarn.list
        assert not out.exists()

    @pytest.mark.parametrize("text", ["2 3 4\n", "2\n3\n4\n"], ids=["row", "column"])
    def test_one_row_or_one_column_accepted(self, capsys, tmp_path, text):
        path = tmp_path / "samples.txt"
        path.write_text(text)
        code, out = run(capsys, "mle", "--samples", path)
        assert code == 0 and "N=3" in out

    @pytest.mark.parametrize(
        "text, flags, message",
        [
            ("2\n", [], "need at least 2 samples"),
            ("0.5 2 3\n", [], "samples below the support start 1.0"),
            ("2\n", ["--discrete"], "need at least 2 samples"),
            ("0 2 3\n", ["--discrete"], "samples below the support start 1"),
            ("1\n1\n", [], "all samples equal the support start; exponent undefined"),
            # used to print gamma=20.00000000, the bracket edge, and exit 0
            ("1\n1\n", ["--discrete"], "all samples equal the support start; exponent undefined"),
        ],
        ids=["one-sample", "below-x0", "discrete-one-sample", "discrete-below-x0", "all-at-x0", "discrete-all-at-x0"],
    )
    def test_mle_refusal_names_the_file(self, capsys, tmp_path, text, flags, message):
        path = tmp_path / "samples.txt"
        path.write_text(text)
        code = main(["mle", "--samples", str(path), *flags])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "x0, flags, message",
        [
            ("0", [], "positive number, got 0.0"),
            ("-1", [], "positive number, got -1.0"),
            ("nan", [], "positive number, got nan"),
            ("inf", [], "positive number, got inf"),
            ("0", ["--discrete"], "positive integer, got 0.0"),
            ("2.5", ["--discrete"], "positive integer, got 2.5"),
        ],
    )
    def test_bad_x0_names_the_flag(self, capsys, recwarn, tmp_path, x0, flags, message):
        # --x0 0 used to print numpy's divide-by-zero warning and "math
        # domain error", and --x0 nan printed gamma=nan with exit status 0
        path = tmp_path / "samples.txt"
        path.write_text("2\n3\n4\n")
        code = main(["mle", "--samples", str(path), f"--x0={x0}", *flags])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"error: --x0 must be a {message}\n"
        assert not recwarn.list

    @pytest.mark.parametrize(
        "text, top, names_values, message",
        [
            ("0\n1\n", 2, True, "one value per distance-matrix row required"),
            ("0\n1\n2\n", 4, False, "--top must be in [1, 3], got 4"),
        ],
        ids=["value-count", "top-out-of-range"],
    )
    def test_walk_refusal_names_its_source(self, capsys, tmp_path, text, top, names_values, message):
        from surpkit.embedding import save_distance_matrix

        dist = tmp_path / "dist.txt"
        save_distance_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]), dist)
        values = tmp_path / "values.txt"
        values.write_text(text)
        walk_out = tmp_path / "walk.csv"
        code = main([
            "landscape", "walk", "--values", str(values), "--dist", str(dist),
            "--top", str(top), "--out", str(walk_out),
        ])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == (f"error: {values}: {message}\n" if names_values else f"error: {message}\n")
        assert not walk_out.exists()


def test_scipy_loaded_only_by_the_discrete_fit(tmp_path):
    # in a fresh interpreter: this suite imports scipy.stats elsewhere
    script = """
import sys
import numpy as np
import surpkit, surpkit.cli
from surpkit.embedding import save_distance_matrix

edges, truth, found, dist, coords = sys.argv[1:]
save_distance_matrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]), dist)
for argv in (
    ["bench", "our", "--ncliques", "4", "--pielou", "0.85", "--nodes", "40",
     "--out-edges", edges, "--out-truth", truth],
    ["detect", "--graph", edges, "--out", found],
    ["eval", "surprise", "--graph", edges, "--partition", found],
    ["landscape", "embed", "--dist", dist, "--out", coords],
):
    assert surpkit.cli.main(argv) == 0, argv
print(sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy.")))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(surpkit.__file__).resolve().parent.parent))
    files = [str(tmp_path / name) for name in ("e.txt", "t.txt", "f.txt", "d.txt", "c.tsv")]
    proc = subprocess.run([sys.executable, "-c", script, *files], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


class TestEntryPoint:
    def test_console_script(self, tmp_path):
        edges = tmp_path / "toy.edges"
        save_edge_list(toy_graph(), edges)
        proc = subprocess.run(
            ["surpkit", "detect", "--graph", str(edges)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Nc=4" in proc.stdout

    def test_python_module(self, tmp_path):
        edges = tmp_path / "toy.edges"
        save_edge_list(toy_graph(), edges)
        env = dict(os.environ, PYTHONPATH=str(Path(surpkit.__file__).resolve().parent.parent))
        cmd = [sys.executable, "-m", "surpkit", "detect", "--graph"]
        proc = subprocess.run(cmd + [str(edges)], capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "Nc=4" in proc.stdout
        proc = subprocess.run(cmd + [str(tmp_path / "missing")], capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
