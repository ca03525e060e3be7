"""End-to-end CLI checks: exit codes, JSON shape, seeding, reproducibility."""

import json
import re
import time

import pytest

from conftest import (
    acyclic_tournament,
    complete_digraph,
    directed_cycle,
    directed_path,
    out_star,
)
from hamkit import oracle
from hamkit.cli import main as cli_main
from hamkit.matrixtree import BRANCHING_COUNT_GUARD


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

    def test_count_exact_cap_exceeded(self, tmp_path, capsys):
        # large n with lambda near 1 pins every prime exponent at 1, so the
        # fixed modulus falls below d^n and the run reports the cap honestly
        path = write_graph(tmp_path, directed_cycle(62))
        rep, _ = run_json(
            ["count-exact", path, "--d", "13/10", "--lambda", "0.999", "--seed", "2"],
            capsys,
        )
        assert rep["answer"] == "cap-exceeded"

    def test_count_exact_mitm(self, tmp_path, capsys):
        g = complete_digraph(5)
        path = write_graph(tmp_path, g)
        rep, _ = run_json(["count-exact", path, "--d", "3", "--mode", "mitm", "--seed", "4"], capsys)
        assert rep["answer"] == oracle.held_karp_count_hc(g) == 24

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
        # the primes stop once their product passes d^n, so a huge d is
        # quick in naive mode; mitm mode refuses a prime cutoff past 2^12
        path = write_graph(tmp_path, directed_cycle(5))
        t0 = time.perf_counter()
        for d in ("30", "1e400"):
            rep, _ = run_json(["count-exact", path, "--d", d], capsys)
            assert rep["answer"] == 1
        assert time.perf_counter() - t0 < 1.0
        for d in ("5", "1e400"):
            code, out, err = run_cli(["count-exact", path, "--d", d, "--mode", "mitm"], capsys)
            assert code == 3
            assert out == ""
            assert "mitm CRT guard" in err

    def test_removed_beta_option(self, tmp_path, capsys):
        path = write_graph(tmp_path, directed_cycle(4))
        code, out, _ = run_cli(["count-mod", path, "--p", "3", "--beta", "0.1"], capsys)
        assert code == 2
        assert out == ""

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

    def test_branching_count_guard(self, tmp_path, capsys):
        wide = tmp_path / "wide.txt"
        wide.write_text(f"{BRANCHING_COUNT_GUARD + 1} 0\n", encoding="utf-8")
        code, out, err = run_cli(["count-branchings", str(wide), "--root", "0"], capsys)
        assert code == 3
        assert out == ""
        assert "guard" in err
        # the branching detectors count branchings per root, so the same cap binds them
        for cmd in ("detect-k-internal", "detect-k-leaf"):
            code, out, err = run_cli([cmd, str(wide), "--k", "2"], capsys)
            assert code == 3
            assert out == ""
            assert "branching count guard" in err

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

    def test_default_zero(self, tmp_path, capsys, monkeypatch):
        path = write_graph(tmp_path, directed_cycle(5))
        monkeypatch.delenv("HAMKIT_SEED", raising=False)
        rep, _ = run_json(["detect-hc", path], capsys)
        assert rep["seed"] == 0


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
