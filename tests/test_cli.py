"""End-to-end CLI checks: exit codes, JSON shape, seeding, reproducibility."""

import ast
import hashlib
import json
import random
import re
import time
from collections import defaultdict
from pathlib import Path
from unittest.mock import ANY

import pytest

import hamkit
from conftest import (
    acyclic_tournament,
    bidirected_path,
    bidirected_star,
    complete_digraph,
    cycle_plus,
    directed_cycle,
    directed_path,
    out_star,
    random_digraph,
    rooted_hubs,
    rooted_path,
    run_fresh,
)
from hamkit import count_out_branchings, detect_k_internal, detect_k_leaf
from hamkit.algebra import ResidueElem
from hamkit.cli import main as cli_main
from hamkit.errors import GuardError
from hamkit.graph import VERTEX_LIMIT, make_digraph
from hamkit.matrixtree import BRANCHING_COUNT_GUARD

README = Path(__file__).resolve().parent.parent / "README.md"


def write_graph(tmp_path, g, name="g.txt"):
    lines = [f"{g.n} {len(g.arcs)}"]
    lines += [f"{u} {v}" for u, v in g.arcs]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse handles usage errors itself
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    lines = out.strip().splitlines()
    assert len(lines) == 1  # one JSON object per run
    return json.loads(lines[0]), lines[0]


def strip_elapsed(raw: str) -> str:
    return re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": _', raw)


class TestReportShape:
    def test_key_order_and_echo(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        rep, _ = run_json(["count-branchings", path, "--root", "0", "--seed", "9"], capsys)
        keys = list(rep)
        assert keys[0] == "command"
        assert keys[-1] == "elapsed_ms"
        assert rep["command"] == "count-branchings"
        assert rep["seed"] == 9
        assert rep["answer"] == 1

    def test_stderr_summary(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_path(3))
        code, out, err = run_cli(["count-branchings", path, "--root", "0"], capsys)
        assert code == 0
        assert err.startswith("hamkit:")

    def test_library_warnings_print_as_hamkit_lines(self, tmp_path):
        # in a process of its own, so Python's own warning display is what the
        # CLI replaces: a repeated arc prints one line, with no source
        # location, and stdout is as without the warning; mitm at p = 2^31 - 1,
        # which once fell back to the naive pass with a warning, adds none
        g = directed_cycle(5)
        dup = tmp_path / "dup.txt"
        lines = ["5 6"] + [f"{u} {v}" for u, v in sorted(g.arcs)] + ["0 1"]
        dup.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argvs = [["count-branchings", path, "--root", "0"] for path in (write_graph(tmp_path, g), str(dup))]
        argvs.append(["count-mod", str(dup), "--p", str(2**31 - 1), "--k", "1"])
        runs = json.loads(run_fresh(FRESH_STREAMS, json.dumps(argvs)))
        assert [code for code, _, _ in runs] == [0, 0, 0]
        (_, out, err), (_, dup_out, dup_err), (_, mitm_out, mitm_err) = runs
        assert strip_elapsed(dup_out) == strip_elapsed(out)
        assert dup_err.splitlines()[:1] == ["hamkit: warning: 1 duplicate arc(s) collapsed"]
        assert mitm_err.splitlines()[:1] == ["hamkit: warning: 1 duplicate arc(s) collapsed"]
        assert json.loads(mitm_out)["diagnostics"]["fallback"] is False
        # the warning lines, then the one summary line
        assert [len(e.splitlines()) for e in (err, dup_err, mitm_err)] == [1, 2, 2]
        assert ".py:" not in dup_err + mitm_err


class TestAnswers:
    def test_detect_hc_yes_and_no(self, tmp_path, capsys):
        yes = write_graph(tmp_path, directed_cycle(6), "yes.txt")
        no = write_graph(tmp_path, acyclic_tournament(6), "no.txt")
        rep, _ = run_json(["detect-hc", yes, "--seed", "7"], capsys)
        assert rep["answer"] == "yes"
        rep, _ = run_json(["detect-hc", no, "--seed", "7"], capsys)
        assert rep["answer"] == "no"  # NO still exits 0
        assert rep["failure_bound"] < 1e-6

    def test_count_mod_modes_agree(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_digraph(5))
        a, _ = run_json(["count-mod", path, "--p", "3", "--k", "2", "--seed", "1", "--mode", "naive"], capsys)
        b, _ = run_json(["count-mod", path, "--p", "3", "--k", "2", "--seed", "1", "--mode", "mitm"], capsys)
        assert (a["answer"], a["modulus"]) == (b["answer"], b["modulus"])
        assert a["answer"] == 24 % 9
        assert "diagnostics" in b and b["diagnostics"]["pairs_listed"] >= 1

    def test_count_exact(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        rep, _ = run_json(["count-exact", path, "--d", "11/10", "--seed", "2"], capsys)
        assert rep["answer"] == 1
        assert rep["cap_base"] == "11/10"

    def test_count_avg_degree(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        rep, _ = run_json(["count-avg-degree", path, "--seed", "3"], capsys)
        assert rep["answer"] == 1

    def test_detectors(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_path(5))
        rep, _ = run_json(["detect-k-internal", path, "--k", "4", "--seed", "5"], capsys)
        assert rep["answer"] == "yes"
        star = write_graph(tmp_path, out_star(5), "star.txt")
        rep, _ = run_json(["detect-k-leaf", star, "--k", "4", "--seed", "5"], capsys)
        assert rep["answer"] == "yes"
        rep, _ = run_json(["detect-k-leaf", path, "--k", "2", "--seed", "5"], capsys)
        assert rep["answer"] == "no"


    def test_readme_count_mod_example(self, tmp_path, capsys):
        # the README example, whole stdout: answer and every MITM diagnostic
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
        code, out, _ = run_cli(["count-mod", str(path), "--p", "3", "--k", "2", "--seed", "1"], capsys)
        assert code == 0
        assert strip_elapsed(out) == (
            '{"command": "count-mod", "answer": 1, "modulus": 9, "p": 3, "k": 2, "mode": "mitm", '
            '"diagnostics": {"pairs_listed": 1, "pairs_naive": 32, "candidates_examined": 32, '
            '"table_keys": 5, "fallback": false, "pruning_ratio": 0.96875}, '
            '"seed": 1, "elapsed_ms": _}\n'
        )

    def test_count_mod_does_not_read_the_seed(self, tmp_path, capsys):
        # both modes run on zero virtual-arc weights: the seed is only echoed
        rnd = random.Random(64)
        for mode in ("mitm", "naive"):
            path = write_graph(tmp_path, random_digraph(rnd, 9, 0.5))
            outs = []
            for seed in ("1", "202"):
                code, out, _ = run_cli(["count-mod", path, "--p", "3", "--k", "2", "--mode", mode,
                                        "--seed", seed], capsys)
                assert code == 0
                outs.append(strip_elapsed(out).replace(f'"seed": {seed}', '"seed": _'))
            assert outs[0] == outs[1], mode

    def test_readme_detect_hc_example(self, tmp_path, capsys):
        # the README example, whole stdout: the witness of the first trial's pair sum
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
        code, out, _ = run_cli(["detect-hc", str(path), "--seed", "7"], capsys)
        assert code == 0
        assert strip_elapsed(out) == (
            '{"command": "detect-hc", "answer": "yes", "trials": 1, "failure_bound": 0.0, '
            '"diagnostics": {"pairs_per_trial": 18, "field_bits": 16, "witness_value": 51753, '
            '"engine": "batched"}, "seed": 7, "elapsed_ms": _}\n'
        )

    @pytest.mark.parametrize("n, mult, mod, below, seed, tail", [
        # |blue| = 9, one chunk of 13,122 pairs per trial
        (18, 2, 11, 3, 11, '"answer": "yes", "trials": 1, "failure_bound": 0.0, "diagnostics": '
                           '{"pairs_per_trial": 13122, "field_bits": 16, "witness_value": 47666, '
                           '"engine": "batched"}, "seed": 11'),
        (18, 1, 7, 2, 12, '"answer": "no", "trials": 8, "failure_bound": 3.2384753508430804e-29, '
                          '"diagnostics": {"pairs_per_trial": 13122, "field_bits": 16, '
                          '"engine": "batched"}, "seed": 12'),
        # |blue| = 10, three chunks of 13,122 pairs per trial
        (20, 1, 5, 1, 13, '"answer": "no", "trials": 8, "failure_bound": 7.52316384526264e-29, '
                          '"diagnostics": {"pairs_per_trial": 39366, "field_bits": 16, '
                          '"engine": "batched"}, "seed": 13'),
    ])
    def test_detect_hc_golden_at_nine_and_ten_blue(self, tmp_path, capsys, n, mult, mod, below, seed, tail):
        # whole stdout at a fixed seed, pinned before the pair plan replaced
        # per-trial membership selectors; arcs join even and odd vertices
        arcs = [(a, b) for a in range(n) for b in range(n) if (a - b) % 2 and (a + mult * b) % mod < below]
        path = write_graph(tmp_path, make_digraph(n, arcs))
        code, out, _ = run_cli(["detect-hc", path, "--seed", str(seed)], capsys)
        assert code == 0
        assert strip_elapsed(out) == '{"command": "detect-hc", ' + tail + ', "elapsed_ms": _}\n'

    def test_readme_detect_k_leaf_example(self, tmp_path, capsys):
        # the README example, whole stdout: the first trial hits
        path = tmp_path / "c5.txt"
        path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
        code, out, _ = run_cli(["detect-k-leaf", str(path), "--k", "1", "--seed", "2"], capsys)
        assert code == 0
        assert strip_elapsed(out) == (
            '{"command": "detect-k-leaf", "answer": "yes", "trials": 1, "failure_bound": 0.0, '
            '"diagnostics": {"roots": [0, 1, 2, 3, 4]}, '
            '"k": 1, "seed": 2, "elapsed_ms": _}\n'
        )

    def test_detect_k_leaf_single_vertex(self, tmp_path, capsys):
        # a single vertex is a one-leaf out-branching, as the oracle says:
        # answered without a trial, exit 0
        path = write_graph(tmp_path, make_digraph(1, []), "one.txt")
        code, out, _ = run_cli(["oracle", "k-leaf", path, "--k", "1"], capsys)
        assert code == 0 and json.loads(out)["answer"] == "yes"
        code, out, _ = run_cli(["detect-k-leaf", path, "--k", "1"], capsys)
        assert code == 0
        assert strip_elapsed(out) == (
            '{"command": "detect-k-leaf", "answer": "yes", "trials": 0, "failure_bound": 0.0, '
            '"diagnostics": {"reason": "a single vertex is an out-branching with one leaf", "roots": [0]}, '
            '"k": 1, "seed": 0, "elapsed_ms": _}\n'
        )

    def test_readme_library_example(self):
        # run the README's python block statement by statement; each commented
        # expression must equal its comment, where a bare name such as
        # `diagnostics` stands for any value
        text = README.read_text(encoding="utf-8")
        source = re.search(r"```python\n(.*?)```", text, re.S).group(1)
        lines = source.splitlines()
        namespace = {}
        checked = 0
        for stmt in ast.parse(source).body:
            line = lines[stmt.end_lineno - 1]
            if isinstance(stmt, ast.Expr) and "# " in line:
                got = eval(ast.get_source_segment(source, stmt), namespace)
                names = defaultdict(lambda: ANY, ResidueElem=ResidueElem)
                want = eval(line.split("# ", 1)[1], {}, names)
                assert got == want, line
                checked += 1
            else:
                exec(ast.get_source_segment(source, stmt), namespace)
        assert checked == 6


class TestOracleCommands:
    def test_hc_count(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        rep, _ = run_json(["oracle", "hc-count", path], capsys)
        assert rep["oracle_command"] == "hc-count"
        assert rep["answer"] == 1

    def test_hp_count(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_path(4))
        rep, _ = run_json(["oracle", "hp-count", path, "--s", "0", "--t", "3"], capsys)
        assert rep["answer"] == 1

    @pytest.mark.parametrize("s,t", [("9", "0"), ("0", "9"), ("-1", "2")])
    def test_hp_count_endpoint_out_of_range(self, s, t, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        code, out, err = run_cli(["oracle", "hp-count", path, "--s", s, "--t", t], capsys)
        assert code == 2
        assert out == ""
        assert "endpoints" in err

    def test_branchings(self, tmp_path, capsys):
        path = write_graph(tmp_path, complete_digraph(3))
        rep, _ = run_json(["oracle", "branchings", path, "--root", "0"], capsys)
        assert rep["answer"] == 3
        assert rep["max_leaves"] == 2

    def test_mis(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(6))
        rep, _ = run_json(["oracle", "mis", path], capsys)
        assert rep["answer"] == 3
        assert rep["vertices"] == sorted(rep["vertices"])

    def test_verdict_oracles(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_path(5))
        rep, _ = run_json(["oracle", "k-internal", path, "--k", "4"], capsys)
        assert rep["answer"] == "yes"
        rep, _ = run_json(["oracle", "k-leaf", path, "--k", "2"], capsys)
        assert rep["answer"] == "no"


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = run_cli(["detect-hc", "/nonexistent/graph.txt"], capsys)
        assert code == 2
        assert "hamkit:" in err

    def test_malformed_graph(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 5\n", encoding="utf-8")
        code, _, _ = run_cli(["detect-hc", str(bad)], capsys)
        assert code == 2

    def test_bad_fraction(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(4))
        for d in ("fast", "0/0", "3/0", "nan", "1", "1/2", "-2"):
            code, out, _ = run_cli(["count-exact", path, "--d", d], capsys)
            assert code == 2, d
            assert out == ""

    def test_large_cap_base(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        t0 = time.perf_counter()
        for d in ("30", "1e400"):
            rep, _ = run_json(["count-exact", path, "--d", d], capsys)
            assert rep["answer"] == 1
        assert time.perf_counter() - t0 < 1.0

    def test_removed_beta_option(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(4))
        code, out, _ = run_cli(["count-mod", path, "--p", "3", "--beta", "0.1"], capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["detect-k-leaf", "--k", "2", "--skew", "0.3"],
        ["detect-k-leaf", "--k", "2", "--s-estimate", "2"],
        ["count-exact", "--d", "2", "--mode", "mitm"],
        ["count-avg-degree", "--mode", "naive"],
        ["count-exact", "--d", "2", "--lambda", "0.5"],
        ["count-avg-degree", "--lambda", "0.5"],
    ], ids=["leaf-skew", "leaf-s-estimate", "exact-mode", "avg-degree-mode",
            "exact-lambda", "avg-degree-lambda"])
    def test_removed_options(self, argv, tmp_path, capsys):
        path = write_graph(tmp_path, directed_path(4))
        code, out, _ = run_cli([argv[0], path, *argv[1:]], capsys)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["count-mod", "{g}", "--p", "4"],
        ["count-mod", "{g}", "--p", "1"],
        ["count-mod", "{g}", "--p", "9", "--k", "70"],  # before the residue guard
        ["count-mod", "{g}", "--p", "2", "--lambda", "0"],
        ["count-mod", "{g}", "--p", "2", "--lambda", "1"],
        ["count-mod", "{g}", "--p", "2", "--lambda", "-0.5"],
        ["count-mod", "{g}", "--p", "2", "--lambda", "nan"],
        ["count-mod", "{g}", "--p", "2", "--k", "3", "--lambda", "1.5"],
        ["count-mod", "{g}", "--p", "2", "--mode", "fast"],
        ["count-mod", "{g}", "--p", "2", "--k", "0"],
        ["count-mod", "{g}", "--p", "2", "--k", "-1", "--mode", "naive"],
        ["detect-k-internal", "{g}", "--k", "1", "--trials", "0"],
        ["detect-k-internal", "{g}", "--k", "7", "--trials", "-2"],  # before the rank guard
        ["detect-k-internal", "{none}", "--k", "1", "--trials", "0"],  # before the root screen
        ["detect-k-leaf", "{g}", "--k", "2", "--budget", "0"],
        ["detect-k-leaf", "{g}", "--k", "15", "--budget", "-1"],  # before the k range
        ["detect-k-leaf", "{none}", "--k", "1", "--budget", "0"],  # before the root screen
    ])
    def test_invalid_arguments_exit_2(self, argv, tmp_path, capsys):
        # each is checked before any graph work: the 30-cycle would otherwise
        # meet count-mod's counting guard (exit 3), and the graph with no
        # spanning root would answer NO at once
        paths = {"{g}": write_graph(tmp_path, directed_cycle(30), "g.txt"),
                 "{none}": write_graph(tmp_path, make_digraph(4, [(0, 1), (2, 3)]), "none.txt")}
        code, out, err = run_cli([paths.get(a, a) for a in argv], capsys)
        assert code == 2, err
        assert out == ""
        assert err.startswith(("hamkit: ", "usage: "))

    def test_usage_error(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(4))
        code, _, _ = run_cli(["count-mod", path], capsys)  # --p missing
        assert code == 2

    def test_guard_violations_exit_3(self, tmp_path, capsys):
        big = write_graph(tmp_path, directed_cycle(23), "big.txt")
        code, _, err = run_cli(["oracle", "hc-count", big], capsys)
        assert code == 3
        assert "guard" in err
        nine = write_graph(tmp_path, directed_cycle(9), "nine.txt")
        code, _, _ = run_cli(["detect-k-internal", nine, "--k", "7"], capsys)
        assert code == 3

    def test_branching_count_guard(self):
        # the header cap stops a 513-vertex file at parse, so the library carries this guard;
        # the branching detectors screen their roots under the same cap, and
        # k = 0 keeps k-internal under its gather guard, which fires from k = 1 at this n
        wide = make_digraph(BRANCHING_COUNT_GUARD + 1, [])
        for run in (lambda: count_out_branchings(wide, 0),
                    lambda: detect_k_internal(wide, 0),
                    lambda: detect_k_leaf(wide, 2)):
            with pytest.raises(GuardError, match="branching count guard"):
                run()

    def test_branching_count_at_the_guard(self, tmp_path, capsys):
        # the largest input count-branchings answers takes about a second, so a
        # slower determinant shows in the suite's time rather than as a hang
        n = BRANCHING_COUNT_GUARD
        g = cycle_plus(random.Random(45), n, 2 * n)
        rep, _ = run_json(["count-branchings", write_graph(tmp_path, g), "--root", "0"], capsys)
        assert rep["answer"] == count_out_branchings(g, 0)

    @pytest.mark.parametrize("g", [directed_cycle(40), directed_cycle(300), complete_digraph(18)],
                             ids=["cycle40", "cycle300", "k18"])
    def test_detect_hc_guards(self, g, tmp_path, capsys):
        # n > 32 is refused before the independent-set search, and K18's
        # 17 blue vertices before the first trial
        path = write_graph(tmp_path, g)
        t0 = time.perf_counter()
        code, out, err = run_cli(["detect-hc", path], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""
        assert "detect-hc guard" in err

    @pytest.mark.parametrize("argv,n", [
        (["detect-k-leaf", "--k", "15"], 30),  # default budget 4^15
        (["detect-k-leaf", "--k", "7"], 8),
        (["detect-k-leaf", "--k", "2", "--budget", "4097"], 8),
        (["detect-k-internal", "--k", "6"], 12),  # first update's gather bound, 277 MB > 2^28 B
        (["detect-k-internal", "--k", "1"], 257),  # GF(2^18), past the field tables
    ], ids=["leaf-k15", "leaf-k7", "leaf-budget", "internal-n12-k6", "internal-n257-field"])
    def test_branching_detector_guards(self, argv, n, tmp_path, capsys):
        path = write_graph(tmp_path, directed_path(n))
        t0 = time.perf_counter()
        code, out, err = run_cli([argv[0], path, *argv[1:]], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""
        assert "guard" in err

    def test_residue_guard_both_modes(self, tmp_path, capsys):
        # p^k >= 2^62 is refused up front in either mode, even for a k too big to exponentiate
        path = write_graph(tmp_path, directed_cycle(5))
        for mode in ("naive", "mitm"):
            for k in ("70", "10000000000"):
                code, out, err = run_cli(["count-mod", path, "--p", "2", "--k", k, "--mode", mode], capsys)
                assert code == 3
                assert out == ""
                assert "residue guard" in err

    def test_vertex_cap_at_parse(self, tmp_path, capsys):
        # a huge header is refused before the adjacency indexes are built
        huge = tmp_path / "huge.txt"
        huge.write_text("50000000 0\n", encoding="utf-8")
        t0 = time.perf_counter()
        code, out, err = run_cli(["count-branchings", str(huge), "--root", "0"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 3
        assert out == ""
        assert "vertex count guard" in err

    @pytest.mark.parametrize("argv", [
        ["count-branchings", "--root", "0"],
        ["count-exact", "--d", "13/10"],
        ["count-avg-degree"],
        ["detect-hc"],
    ], ids=["count-branchings", "count-exact", "count-avg-degree", "detect-hc"])
    def test_vertex_cap_is_the_branching_guard(self, argv, tmp_path, capsys):
        # one past the largest n any command answers is refused at parse, every command alike
        assert VERTEX_LIMIT == BRANCHING_COUNT_GUARD
        wide = write_graph(tmp_path, directed_cycle(VERTEX_LIMIT + 1), "wide.txt")
        code, out, err = run_cli([argv[0], wide, *argv[1:]], capsys)
        assert code == 3
        assert out == ""
        assert "vertex count guard" in err

    def test_bad_env_seed(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, directed_cycle(5))
        monkeypatch.setenv("HAMKIT_SEED", "abc")
        code, out, err = run_cli(["detect-hc", path], capsys)
        assert code == 2
        assert out == ""
        assert "HAMKIT_SEED" in err
        rep, _ = run_json(["detect-hc", path, "--seed", "3"], capsys)
        assert rep["seed"] == 3  # an explicit flag never reads the variable

    @pytest.mark.parametrize("argv", [
        ["detect-hc", "{g}", "--threads", "-3"],
        ["detect-k-internal", "{g}", "--k", "2", "--threads", "0"],
        ["count-mod", "{g}", "--p", "3", "--threads", "two"],
    ])
    def test_nonpositive_threads(self, argv, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        code, out, _ = run_cli([a.replace("{g}", path) for a in argv], capsys)
        assert code == 2
        assert out == ""


class TestSeeding:
    def test_env_fallback(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, directed_cycle(5))
        monkeypatch.setenv("HAMKIT_SEED", "42")
        rep, _ = run_json(["detect-hc", path], capsys)
        assert rep["seed"] == 42
        rep, _ = run_json(["detect-hc", path, "--seed", "7"], capsys)
        assert rep["seed"] == 7  # explicit flag wins

    def test_default_zero(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(5))
        rep, _ = run_json(["detect-hc", path], capsys)
        assert rep["seed"] == 0

    def test_env_read_on_every_call(self, tmp_path, capsys, monkeypatch):
        # main builds its parser once per process, so a default frozen from
        # os.environ at build time would report the first call's seed forever
        path = write_graph(tmp_path, directed_cycle(5))
        for value, seed in (("5", 5), ("9", 9), (None, 0)):
            if value is None:
                monkeypatch.delenv("HAMKIT_SEED", raising=False)
            else:
                monkeypatch.setenv("HAMKIT_SEED", value)
            rep, _ = run_json(["count-branchings", path, "--root", "0"], capsys)
            assert rep["seed"] == seed, value
        monkeypatch.setenv("HAMKIT_SEED", "abc")
        code, out, err = run_cli(["count-branchings", path, "--root", "0"], capsys)
        assert code == 2
        assert out == ""
        assert "HAMKIT_SEED" in err
        rep, _ = run_json(["count-branchings", path, "--root", "0", "--seed", "3"], capsys)
        assert rep["seed"] == 3


REPRO_COMMANDS = [
    ["count-mod", "{g}", "--p", "3", "--k", "2", "--seed", "11", "--mode", "mitm"],
    ["count-mod", "{g}", "--p", "2", "--seed", "11", "--mode", "naive"],
    ["count-exact", "{g}", "--d", "2", "--seed", "11"],
    ["detect-hc", "{g}", "--seed", "11"],
    ["detect-k-internal", "{g}", "--k", "2", "--trials", "20", "--seed", "11"],
    ["detect-k-leaf", "{g}", "--k", "2", "--seed", "11"],
    ["count-branchings", "{g}", "--root", "0", "--seed", "11"],
    ["oracle", "hc-count", "{g}", "--seed", "11"],
]


class TestReproducibility:
    @pytest.mark.parametrize("template", REPRO_COMMANDS, ids=lambda t: t[0] + "-" + t[1 if t[0] != "oracle" else 1])
    def test_byte_identical_same_seed(self, template, tmp_path, capsys):
        path = write_graph(tmp_path, complete_digraph(5))
        argv = [a.replace("{g}", path) for a in template]
        _, raw1 = run_json(argv, capsys)
        _, raw2 = run_json(argv, capsys)
        assert strip_elapsed(raw1) == strip_elapsed(raw2)

    @pytest.mark.parametrize("template", REPRO_COMMANDS, ids=lambda t: t[0] + "-" + t[1 if t[0] != "oracle" else 1])
    def test_threads_do_not_change_output(self, template, tmp_path, capsys):
        path = write_graph(tmp_path, complete_digraph(5))
        argv = [a.replace("{g}", path) for a in template]
        _, raw1 = run_json(argv + ["--threads", "1"], capsys)
        _, raw4 = run_json(argv + ["--threads", "4"], capsys)
        assert strip_elapsed(raw1) == strip_elapsed(raw4)



def detector_corpus(rnd):
    """Seeded (graph, argv tail) runs of every detect-* command.

    YES and NO on each command, one spanning root and several, default and
    explicit --trials and --budget, the structural answers, and the usage
    and guard exits.
    """
    runs = []
    for _ in range(20):
        n = rnd.randint(3, 9)
        g = cycle_plus(rnd, n, rnd.randint(0, n))
        if rnd.random() < 0.5:  # vertex 0 a sink: no cycle
            g = make_digraph(n, [(a, b) for a, b in g.arcs if a != 0])
        runs.append((g, ["detect-hc"]))
        runs.append((g, ["detect-hc", "--trials", str(rnd.randint(1, 3))]))
    for n in (4, 6, 8):
        runs.append((acyclic_tournament(n), ["detect-hc"]))
    g = cycle_plus(rnd, 12, 6)
    runs += [(g, ["detect-hc"]), (make_digraph(12, [(a, b) for a, b in g.arcs if a != 0]), ["detect-hc"])]
    runs += [(make_digraph(1, []), ["detect-hc"]), (out_star(6), ["detect-hc"]),
             (directed_cycle(4), ["detect-hc", "--trials", "0"]),
             (directed_cycle(33), ["detect-hc"])]
    for _ in range(10):
        n = rnd.randint(5, 9)
        hubs = rnd.randint(2, 3)
        g = rooted_hubs(rnd, n, hubs, 2 * n)
        runs.append((g, ["detect-k-internal", "--k", str(hubs)]))
        runs.append((g, ["detect-k-internal", "--k", str(hubs + 1)]))
        runs.append((g, ["detect-k-internal", "--k", str(hubs + 1), "--trials", str(rnd.randint(1, 40))]))
    for n in (5, 7, 8):
        runs.append((bidirected_star(n), ["detect-k-internal", "--k", "2"]))
        runs.append((bidirected_star(n), ["detect-k-internal", "--k", "3"]))
        runs.append((bidirected_star(n), ["detect-k-internal", "--k", "3", "--trials", "9"]))
    for _ in range(10):
        n = rnd.randint(4, 8)
        g = random_digraph(rnd, n, rnd.uniform(0.2, 0.6))
        runs.append((g, ["detect-k-internal", "--k", str(rnd.randint(1, 3))]))
    runs += [(directed_path(5), ["detect-k-internal", "--k", "0"]),
             (make_digraph(4, [(0, 1), (2, 3)]), ["detect-k-internal", "--k", "1"]),
             (directed_path(4), ["detect-k-internal", "--k", "4"]),
             (directed_path(4), ["detect-k-internal", "--k", "1", "--trials", "0"])]
    for _ in range(10):
        n = rnd.randint(5, 8)
        k = rnd.randint(2, 4)
        g = rooted_path(rnd, n, rnd.randint(0, 4))
        runs.append((g, ["detect-k-leaf", "--k", str(k)]))
        runs.append((g, ["detect-k-leaf", "--k", str(k), "--budget", str(rnd.randint(1, 30))]))
    for n in (5, 6):
        runs.append((bidirected_path(n), ["detect-k-leaf", "--k", "2"]))
        runs.append((bidirected_path(n), ["detect-k-leaf", "--k", "3"]))
        runs.append((bidirected_path(n), ["detect-k-leaf", "--k", "3", "--budget", "7"]))
        runs.append((bidirected_star(n), ["detect-k-leaf", "--k", str(n - 1)]))
    for _ in range(14):
        n = rnd.randint(4, 8)
        g = random_digraph(rnd, n, rnd.uniform(0.2, 0.6))
        runs.append((g, ["detect-k-leaf", "--k", str(rnd.randint(1, 3))]))
    runs += [(make_digraph(1, []), ["detect-k-leaf", "--k", "1"]),
             (make_digraph(4, [(0, 1), (2, 3)]), ["detect-k-leaf", "--k", "1"]),
             (directed_path(4), ["detect-k-leaf", "--k", "5"]),
             (directed_path(4), ["detect-k-leaf", "--k", "1", "--budget", "0"]),
             (directed_path(8), ["detect-k-leaf", "--k", "7"]),
             (rooted_path(rnd, 9, 3), ["detect-k-leaf", "--k", "5"])]
    return runs


class TestDetectorDigest:
    def test_stdout_digest(self, tmp_path, capsys):
        # stdout without elapsed_ms, and the exit code, of every run of the
        # seeded detector corpus, at an explicit seed and at the default one
        rnd = random.Random(4101)
        runs = []
        answers = set()
        for i, (g, argv) in enumerate(detector_corpus(rnd)):
            path = write_graph(tmp_path, g, f"g{i}.txt")
            seed = [] if i % 5 == 0 else ["--seed", str(rnd.randrange(1 << 30))]
            code, out, _ = run_cli([argv[0], path, *argv[1:], *seed], capsys)
            runs.append((code, strip_elapsed(out)))
            answers.add((argv[0], code, json.loads(out)["answer"] if code == 0 else None))
        assert len(runs) == 150
        for command in ("detect-hc", "detect-k-internal", "detect-k-leaf"):
            assert {(command, 0, "yes"), (command, 0, "no"), (command, 2, None)} <= answers, command
        assert ("detect-hc", 3, None) in answers and ("detect-k-leaf", 3, None) in answers
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "e464fa0f5841b494a3e5f2d4cb7fc56bbc9fa26c4ee961a38d2114c81299777b"


def counting_corpus(rnd):
    """Seeded (graph, argv) runs of the counting and oracle commands.

    The graph is a Digraph, the raw text of a graph file, or None for a
    missing file; "{g}" in argv marks where its path goes. count-mod in
    both modes at p in {2, 3, 5} with the default and an explicit --k,
    mitm and naive at p = 2^31 - 1, the exact counters and
    count-branchings with zero counts among them, every oracle subcommand,
    repeated arcs, and the usage, input and guard exits.
    """
    runs = []
    for _ in range(6):
        n = rnd.randint(3, 8)
        g = cycle_plus(rnd, n, rnd.randint(0, n))
        for p in ("2", "3", "5"):
            for mode in ("naive", "mitm"):
                runs.append((g, ["count-mod", "{g}", "--p", p, "--mode", mode]))
    for _ in range(12):
        g = random_digraph(rnd, rnd.randint(2, 8), rnd.uniform(0.3, 0.8))
        argv = ["count-mod", "{g}", "--p", rnd.choice("235"), "--k", str(rnd.randint(1, 4))]
        runs.append((g, argv + ([] if rnd.random() < 0.3 else ["--mode", rnd.choice(("naive", "mitm"))])))
    for n in (5, 8):
        runs.append((complete_digraph(n), ["count-mod", "{g}", "--p", "2147483647"]))
        runs.append((complete_digraph(n), ["count-mod", "{g}", "--p", "2147483647", "--mode", "naive"]))
    runs.append((directed_cycle(6), ["count-mod", "{g}", "--p", "2147483647", "--k", "2", "--mode", "mitm"]))
    for _ in range(10):
        g = random_digraph(rnd, rnd.randint(1, 8), rnd.uniform(0.2, 0.9))
        runs.append((g, ["count-exact", "{g}", "--d", "9/8"]))
        runs.append((g, ["count-avg-degree", "{g}"]))
    runs += [(acyclic_tournament(5), ["count-exact", "{g}", "--d", "9/8"]),
             (acyclic_tournament(5), ["count-avg-degree", "{g}"]),
             (complete_digraph(6), ["count-exact", "{g}", "--d", "2"]),
             (complete_digraph(6), ["count-exact", "{g}", "--d", "13/10"])]
    for _ in range(12):
        n = rnd.randint(1, 9)
        g = random_digraph(rnd, n, rnd.uniform(0.1, 0.7))
        runs.append((g, ["count-branchings", "{g}", "--root", str(rnd.randrange(n))]))
    runs += [(out_star(6), ["count-branchings", "{g}", "--root", "1"]),
             (complete_digraph(7), ["count-branchings", "{g}", "--root", "3"])]
    for _ in range(6):
        n = rnd.randint(2, 7)
        g = random_digraph(rnd, n, rnd.uniform(0.3, 0.8))
        s, t = rnd.sample(range(n), 2)
        runs += [(g, ["oracle", "hc-count", "{g}"]),
                 (g, ["oracle", "hp-count", "{g}", "--s", str(s), "--t", str(t)]),
                 (g, ["oracle", "branchings", "{g}", "--root", str(rnd.randrange(n))]),
                 (g, ["oracle", "mis", "{g}"]),
                 (g, ["oracle", "k-internal", "{g}", "--k", str(rnd.randint(0, n))]),
                 (g, ["oracle", "k-leaf", "{g}", "--k", str(rnd.randint(0, n))])]
    single = make_digraph(1, [])
    runs += [(single, ["count-mod", "{g}", "--p", "3"]),
             (single, ["count-exact", "{g}", "--d", "9/8"]),
             (single, ["count-branchings", "{g}", "--root", "0"]),
             (single, ["oracle", "hc-count", "{g}"]),
             (directed_cycle(7), ["count-mod", "{g}", "--p", "3", "--lambda", "0.5"]),
             (directed_cycle(7), ["count-mod", "{g}", "--p", "2", "--k", "70"])]
    repeated = "4 6\n0 1\n1 2\n2 3\n3 0\n0 1\n2 3\n"
    runs += [(repeated, ["count-mod", "{g}", "--p", "3"]),
             (repeated, ["count-exact", "{g}", "--d", "9/8"]),
             (repeated, ["oracle", "hc-count", "{g}"])]
    five = directed_cycle(5)
    runs += [(None, ["count-mod", "{g}", "--p", "3"]),
             (None, ["oracle", "mis", "{g}"]),
             ("3 1\n0 7\n", ["count-avg-degree", "{g}"]),
             (five, ["count-mod", "{g}", "--p", "4"]),
             (five, ["count-mod", "{g}", "--p", "3", "--k", "0"]),
             (five, ["count-exact", "{g}", "--d", "1"]),
             (five, ["count-branchings", "{g}", "--root", "5"]),
             (five, ["oracle", "branchings", "{g}", "--root", "-1"]),
             (five, ["count-avg-degree", "{g}", "--threads", "0"]),
             (five, ["oracle", "hc-count", "{g}", "--threads", "0"]),
             (five, ["count-cycles", "{g}"]),
             (five, ["oracle", "hc-list", "{g}"]),
             (five, ["oracle", "hp-count", "{g}", "--s", "0", "--t", "0"]),
             (directed_cycle(30), ["count-mod", "{g}", "--p", "3", "--mode", "naive"])]
    return runs


ORACLE_SUBCOMMANDS = ("hc-count", "hp-count", "branchings", "mis", "k-internal", "k-leaf")


class TestCountingDigest:
    def test_stdout_digest(self, tmp_path, capsys, monkeypatch):
        # exit code, stdout without elapsed_ms and stderr without the run time
        # of every run of the seeded counting corpus, at an explicit seed and
        # at the default one, then the --help text of every (sub)command
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        rnd = random.Random(4301)
        runs = []
        outcomes = set()
        for i, (g, argv) in enumerate(counting_corpus(rnd)):
            if g is None:
                path = "/nonexistent/graph.txt"
            elif isinstance(g, str):
                path = str(tmp_path / f"g{i}.txt")
                Path(path).write_text(g, encoding="utf-8")
            else:
                path = write_graph(tmp_path, g, f"g{i}.txt")
            seed = [] if i % 4 == 0 else ["--seed", str(rnd.randrange(1 << 30))]
            code, out, err = run_cli([a.replace("{g}", path) for a in argv] + seed, capsys)
            runs.append((code, strip_elapsed(out), re.sub(r"\[[0-9.]+ ms\]", "[_ ms]", err)))
            outcomes.add((argv[0], code))
        assert len(runs) == 150
        assert {code for _, code in outcomes} == {0, 2, 3}
        assert any("warning" in err for code, _, err in runs if code == 0)
        helps = [["--help"], *([c, "--help"] for c in (
            "count-branchings", "count-mod", "count-exact", "count-avg-degree",
            "detect-hc", "detect-k-internal", "detect-k-leaf", "oracle"))]
        helps += [["oracle", sub, "--help"] for sub in ORACLE_SUBCOMMANDS]
        for argv in helps:
            runs.append(run_cli(argv, capsys))
            assert runs[-1][0] == 0 and runs[-1][1].startswith("usage: hamkit"), argv
        digest = hashlib.sha256(repr(runs).encode()).hexdigest()
        assert digest == "256c92d545f5b28896efa5d15aba3f472621d44bda25284cde19f7a46530f3e4"


# Runs each argv of the JSON list in argv[1] and prints, per run, the exit
# code, whether numpy is loaded after it, the reported elapsed_ms, the rest
# of the report and whether numpy.random is loaded after it.
FRESH_CLI = """
import contextlib, io, json, sys
from hamkit.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    report = json.loads(out.getvalue())
    elapsed = report.pop("elapsed_ms")
    runs.append([code, "numpy" in sys.modules, elapsed, report, "numpy.random" in sys.modules])
print(json.dumps(runs))
"""

# Runs each argv list in the JSON list in argv[1] and prints, per run, the
# exit code, stdout and stderr.
FRESH_STREAMS = """
import contextlib, io, json, sys
from hamkit.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(runs))
"""

# Checks the package exports before and after resolving them through
# getattr or a star import (argv[1]).
FRESH_EXPORTS = """
import json, sys
import hamkit
detectors_loaded = "hamkit.hamdetect" in sys.modules or "hamkit.branchings" in sys.modules
listed = set(dir(hamkit))
if sys.argv[1] == "getattr":
    values = {name: getattr(hamkit, name) for name in hamkit.__all__}
else:
    values = {}
    exec("from hamkit import *", values)
print(json.dumps({
    "detectors_loaded_at_import": detectors_loaded,
    "missing_from_dir": sorted(set(hamkit.__all__) - listed),
    "unresolved": sorted(set(hamkit.__all__) - set(values)),
    "not_the_definition": sorted(
        name for name in hamkit.__all__ if name in values
        and values[name] is not getattr(sys.modules[values[name].__module__], name)
    ),
}))
"""

# Runs the argv lists of each stage in the JSON list in argv[1] and prints,
# per stage, the watched modules that the process holds after it and did not
# before `from hamkit.cli import main`, which opens the first stage. A set
# difference, not absence: site may have loaded some of them already.
FRESH_IMPORTS = """
import contextlib, io, json, sys
WATCHED = {"dataclasses", "inspect", "fractions", "decimal", "typing", "hamkit.oracle", "hamkit.gf2m",
           "numpy"}
before = set(sys.modules)
from hamkit.cli import main
added = []
for stage in json.loads(sys.argv[1]):
    for argv in stage:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0, argv
    added.append(sorted(WATCHED & (set(sys.modules) - before)))
print(json.dumps(added))
"""

# Imports the module named in argv[1] under a bare hamkit package, whose
# __init__ does not run and so loads nothing first, and prints the hamkit
# modules the import added and whether it added numpy.
FRESH_MODULE = """
import importlib, importlib.machinery, json, sys, types
package = types.ModuleType("hamkit")
package.__path__ = list(importlib.machinery.PathFinder.find_spec("hamkit").submodule_search_locations)
sys.modules["hamkit"] = package
before = set(sys.modules)
importlib.import_module(sys.argv[1])
added = set(sys.modules) - before
print(json.dumps([sorted(m for m in added if m.startswith("hamkit.")), "numpy" in added]))
"""

NUMPY_FREE_COMMANDS = [
    ["count-mod", "{g}", "--p", "3", "--k", "2", "--mode", "mitm"],
    ["count-mod", "{g}", "--p", "3", "--k", "2", "--mode", "naive"],
    ["count-exact", "{g}", "--d", "2"],
    ["count-avg-degree", "{g}"],
    ["count-branchings", "{g}", "--root", "0"],
    ["oracle", "hc-count", "{g}"],
    ["oracle", "hp-count", "{g}", "--s", "0", "--t", "4"],
    ["oracle", "branchings", "{g}", "--root", "0"],
    ["oracle", "mis", "{g}"],
    ["oracle", "k-internal", "{g}", "--k", "2"],
    ["oracle", "k-leaf", "{g}", "--k", "1"],
]

DETECT_COMMANDS = [
    ["detect-hc", "{g}"],
    ["detect-k-internal", "{g}", "--k", "2"],
    ["detect-k-leaf", "{g}", "--k", "1"],
]


class TestLazyLoading:
    def test_counting_and_oracle_commands_do_not_load_numpy(self, tmp_path):
        path = write_graph(tmp_path, directed_cycle(5))
        argvs = [[a.replace("{g}", path) for a in t] + ["--seed", "1"] for t in NUMPY_FREE_COMMANDS]
        argvs.append(["detect-hc", path, "--seed", "1"])
        seen = [run[:2] for run in json.loads(run_fresh(FRESH_CLI, json.dumps(argvs)))]
        assert seen[:-1] == [[0, False]] * len(NUMPY_FREE_COMMANDS)
        # the probe does see numpy once a command loads it
        assert seen[-1] == [0, True]

    def test_counting_commands_import_only_what_they_use(self, tmp_path):
        # dataclasses (with inspect), fractions (with decimal), typing and the
        # oracle module each cost milliseconds of every process's start-up
        path = write_graph(tmp_path, directed_cycle(5))
        counting = [[a.replace("{g}", path) for a in t] + ["--seed", "1"]
                    for t in NUMPY_FREE_COMMANDS if t[0] not in ("count-exact", "oracle")]
        stages = [
            counting,
            [["count-exact", path, "--d", "2"]],
            [["oracle", "hc-count", path]],
        ]
        assert len(counting) == 4
        added = json.loads(run_fresh(FRESH_IMPORTS, json.dumps(stages)))
        assert added == [
            [],
            ["decimal", "fractions"],
            ["decimal", "fractions", "hamkit.oracle"],
        ]

    def test_modp_loads_numpy_and_no_other_hamkit_module(self):
        # the counting path can take the prime-field kernels without the
        # detectors, the binary fields or any other module of the package
        assert json.loads(run_fresh(FRESH_MODULE, "hamkit.modp")) == [["hamkit.modp"], True]
        # the probe does see the modules a detector loads, modp among them
        assert json.loads(run_fresh(FRESH_MODULE, "hamkit.branchings")) == [
            ["hamkit." + m for m in ("algebra", "branchings", "errors", "gf2m", "graph", "matrixtree", "modp",
                                     "rand", "report")],
            True,
        ]

    @pytest.mark.parametrize("template", DETECT_COMMANDS, ids=lambda t: t[0])
    def test_first_elapsed_excludes_module_loading(self, template, tmp_path):
        # On the 5-cycle a detect call takes 1-3 ms; numpy's import (~150 ms),
        # or numpy.random's (~15 ms) if a detector loaded it lazily, on the
        # clock would make the first call many times the second. An import
        # shows in every attempt, a stall of a loaded machine in few, hence
        # the retries.
        path = write_graph(tmp_path, directed_cycle(5))
        argv = [a.replace("{g}", path) for a in template] + ["--seed", "7"]
        for _ in range(5):
            runs = json.loads(run_fresh(FRESH_CLI, json.dumps([argv, argv])))
            first, second = (run[2] for run in runs)
            if first <= 3 * second:
                break
        assert first <= 3 * second, (first, second)

    @pytest.mark.parametrize("template", DETECT_COMMANDS, ids=lambda t: t[0])
    def test_detectors_do_not_load_numpy_random(self, template, tmp_path):
        # every per-trial draw comes from hamkit.rand.counter_draw, so a
        # detect call never imports numpy.random (about 15 ms)
        path = write_graph(tmp_path, complete_digraph(5))
        argv = [a.replace("{g}", path) for a in template] + ["--seed", "7"]
        (run,) = json.loads(run_fresh(FRESH_CLI, json.dumps([argv])))
        assert run[0] == 0 and run[1] is True
        assert run[4] is False

    @pytest.mark.parametrize("template", DETECT_COMMANDS, ids=lambda t: t[0])
    def test_first_call_builds_what_later_calls_reuse(self, template, tmp_path, capsys):
        # the first call in a process builds the parser (and k-internal's GF(2^m)
        # field; hamdetect builds its field at import), the second reuses them;
        # this test process has long since built them
        path = write_graph(tmp_path, complete_digraph(5))
        argv = [a.replace("{g}", path) for a in template] + ["--seed", "7"]
        first, second = json.loads(run_fresh(FRESH_CLI, json.dumps([argv, argv])))
        here, _ = run_json(argv, capsys)
        del here["elapsed_ms"]
        assert first[0] == second[0] == 0
        assert first[3] == second[3] == here

    @pytest.mark.parametrize("how", ["getattr", "star"])
    def test_every_export_resolves(self, how):
        report = json.loads(run_fresh(FRESH_EXPORTS, how))
        assert report == {
            "detectors_loaded_at_import": False,
            "missing_from_dir": [],
            "unresolved": [],
            "not_the_definition": [],
        }

    def test_unknown_export_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            hamkit.no_such_export  # noqa: B018
