"""hamkit benchmark: closed-loop CLI workloads, per-layer spans, oracle checks.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads are defined in corpus.py and described in perfbench/README.md.
From the seed this script generates a corpus of distinct graphs sized so a
run lasts about S seconds, labels each graph with the repository's
exhaustive oracles, and hands the ops to runner.py, which drives
hamkit.cli.main in a single process, one op at a time, with --threads 1.
Afterwards every answer is checked against its oracle.

With --trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics. Lines before it give the environment, the
failed-op ratio, the oracle crossover table and the counter checks. --smoke
swaps in a tiny corpus that reaches every metric and every check in a few
seconds. The exit code is 0 when a result was printed and every counter
check held, 1 when a counter check failed, 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

import calibrate
import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
WORD_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)

CLI_LABELS = ("count-mod.mitm", "count-mod.naive", "count-exact", "count-avg-degree",
              "detect-hc", "count-branchings", "detect-k-internal", "detect-k-leaf")
ORACLE_FNS = {"hc-count": "held_karp_count_hc", "k-internal": "brute_k_internal",
              "k-leaf": "brute_k_leaf", "branchings": "enumerate_out_branchings"}
RATIO_KEYS = (("count-mod.mitm", "dense"), ("count-mod.naive", "dense"),
              ("count-exact", "deg3"), ("count-avg-degree", "deg3"),
              ("detect-hc", "general"), ("detect-hc", "bipartite"),
              ("detect-k-internal", "random"), ("detect-k-internal", "hubs"),
              ("detect-k-leaf", "random"), ("detect-k-leaf", "rooted"),
              ("count-branchings", "sparse"))


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# answer checks


def det_mod(n: int, arcs, root: int, p: int) -> int:
    """Spanning out-branching count mod p: the punctured Laplacian's determinant."""
    idx = {v: i for i, v in enumerate(u for u in range(n) if u != root)}
    a = np.zeros((n - 1, n - 1), dtype=np.int64)
    for u, v in arcs:
        if v != root:
            a[idx[v], idx[v]] += 1
            if u != root:
                a[idx[u], idx[v]] -= 1
    a %= p
    det = 1
    for j in range(n - 1):
        piv = j + int(np.argmax(a[j:, j] != 0))
        if a[piv, j] == 0:
            return 0
        if piv != j:
            a[[j, piv]] = a[[piv, j]]
            det = -det
        det = det * int(a[j, j]) % p
        f = a[j + 1 :, j] * pow(int(a[j, j]), -1, p) % p
        a[j + 1 :, j:] = (a[j + 1 :, j:] - f[:, None] * a[j, j:][None, :]) % p
    return det % p


def check_answer(op, rec: dict) -> tuple[str | None, dict | None]:
    """(failure reason or None, parsed report) for one op."""
    if rec["rc"] != 0:
        return f"exit {rec['rc']}: {rec.get('err', '').strip()[-300:]}", None
    lines = rec["out"].splitlines()
    if len(lines) != 1:
        return f"stdout has {len(lines)} lines, want one JSON line", None
    try:
        rep = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}", None
    if not isinstance(rep, dict) or rep.get("command") != op.cell.argv[0]:
        return "report names the wrong command", None
    ans, exp, label = rep.get("answer"), op.expected, op.cell.label
    if label.startswith("count-mod"):
        if rep.get("modulus") != 9 or ans != exp % 9:
            return f"count-mod gave {ans} mod {rep.get('modulus')}, Held-Karp count is {exp}", rep
    elif label in ("count-exact", "count-avg-degree"):
        if ans != exp:
            return f"exact count {ans}, Held-Karp count is {exp}", rep
    elif label == "detect-hc":
        if ans == "yes" and exp == 0:
            return "one-sided guarantee broken: YES on a graph with no Hamiltonian cycle", rep
        if ans != ("yes" if exp > 0 else "no"):
            return f"answered {ans}, Held-Karp count is {exp}", rep
    elif label == "count-branchings":
        if not isinstance(ans, int) or ans < 0:
            return f"branching count {ans!r} is not a non-negative integer", rep
        if exp is not None and ans != exp:
            return f"branching count {ans}, enumeration gives {exp}", rep
        for p in WORD_PRIMES:
            if ans % p != det_mod(op.cell.n, op.arcs, 0, p):
                return f"branching count {ans} disagrees with the determinant mod {p}", rep
    else:
        if ans == "yes" and exp == "no":
            return f"one-sided guarantee broken: YES where brute force says no", rep
        if ans != exp:
            return f"answered {ans}, brute force says {exp}", rep
    return None, rep


def without_elapsed(text: str):
    try:
        rep = json.loads(text)
    except json.JSONDecodeError:
        return text
    if isinstance(rep, dict):
        rep.pop("elapsed_ms", None)
    return rep


def counter_checks(op, rep: dict, traced: dict, tally: dict, failures: list) -> None:
    """Closed-form checks of the traced counters against the op's input and report."""
    c, lists = traced["counters"], traced["lists"]

    def check(name: str, ok: bool, detail: str) -> None:
        tally[name] += 1
        if not ok:
            failures.append(f"{name}: op {op.id} ({op.cell.label} n={op.cell.n}): {detail}")

    label = op.cell.label
    check("traced-output-unchanged", without_elapsed(traced["out"]) == without_elapsed(op.out),
          "stdout differs between the traced and the untraced call")
    for subsets in lists.get("naive_pass_subsets", []):
        check("naive-pass-subsets", subsets == 1 << op.cell.n, f"{subsets} subsets, want 2^{op.cell.n}")
    if c.get("hamcount.subsets"):
        check("det-per-subset", c.get("hamcount.dets", 0) <= c["hamcount.subsets"],
              f"{c.get('hamcount.dets', 0)} determinants for {c['hamcount.subsets']} subsets")
    if label == "count-mod.mitm" and not rep["diagnostics"]["fallback"]:
        listed = rep["diagnostics"]["pairs_listed"]
        check("mitm-listed-subsets", c.get("hamcount.subsets", 0) == listed,
              f"{c.get('hamcount.subsets', 0)} subset determinants, report lists {listed}")
    if label == "detect-hc" and rep["trials"] >= 1:
        pairs = 2 * 3 ** (lists["blue"][0] - 1)
        check("gf-matrices", c.get("hamdetect.gf_matrices", 0) == rep["trials"] * pairs,
              f"{c.get('hamdetect.gf_matrices', 0)} matrices, want {rep['trials']} x {pairs}")
        check("pairs-per-trial", rep["diagnostics"]["pairs_per_trial"] == pairs,
              f"report says {rep['diagnostics']['pairs_per_trial']}, want {pairs}")
        check("gf-trials", c.get("hamdetect.trials", 0) == rep["trials"],
              f"{c.get('hamdetect.trials', 0)} sieve passes, report says {rep['trials']}")
    if label == "detect-k-leaf" and rep["answer"] == "no" and rep["trials"] >= 1:
        want = rep["trials"] * 2 * (2 * op.cell.n + 1)
        check("modp-matrices", c.get("branchings.modp_matrices", 0) == want,
              f"{c.get('branchings.modp_matrices', 0)} matrices, want {rep['trials']} x 2 x {2 * op.cell.n + 1}")


# ---------------------------------------------------------------------------
# metrics


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, by statistics.quantiles over 100 cut points."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(ops: list, per_round: int, results: dict, setups: list[float],
               scaled: bool = True) -> dict:
    """The end-to-end metrics; with `scaled`, times are at the probe's reference speed.

    Each round's wall times are multiplied by REFERENCE_S over the mean of
    the probe times taken just before and just after that round.
    """
    probes = results["probe_s"]
    scale = [calibrate.REFERENCE_S / ((a + b) / 2) if scaled else 1.0
             for a, b in zip(probes, probes[1:])]
    ms = [op.ms * scale[i // per_round] for i, op in enumerate(ops)]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        # Every round holds the same mix, so each round is one throughput
        # sample; the median drops a round that another process slowed.
        "ops_per_s": {"value": statistics.median(per_round / (s * k) for s, k in
                                                 zip(results["round_s"], scale)), "unit": "1/s"},
        "op_ms.p50": {"value": quantile(ms, 50), "unit": "ms"},
        "op_ms.p90": {"value": quantile(ms, 90), "unit": "ms"},
        "peak_rss_mb": {"value": results["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(ops: list) -> dict:
    n_ops = max(1, len(ops))
    self_s, calls, counts = defaultdict(float), defaultdict(int), defaultdict(int)
    for op in ops:
        for name, (_, own, k) in op.traced["spans"].items():
            self_s[name] += own
            calls[name] += k
        for name, v in op.traced["counters"].items():
            counts[name] += v
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def ms(span):  # self milliseconds per op
        put(f"{span}.ms", self_s[span] * 1000.0 / n_ops, "ms/op")

    def per_op(name, total):
        put(name, total / n_ops, "count/op")

    def ratio(a, b):
        return a / b if b else 0.0

    by_label = defaultdict(list)
    for op in ops:
        by_label[op.cell.label].append(op)
    for label in CLI_LABELS:
        times = [op.ms for op in by_label.get(label, [])]
        put(f"cli.{label}.ms.p50", statistics.median(times) if times else 0.0, "ms")

    for span in ("graph.parse_digraph", "graph.split_vertex", "graph.find_independent_partition"):
        ms(span)
    for span in ("matrixtree.det_bareiss_int", "matrixtree.count_out_branchings"):
        ms(span)
        per_op(f"{span}.calls", calls[span])

    mitm = [op.rep["diagnostics"] for op in by_label.get("count-mod.mitm", [])]
    listed = sum(d["pairs_listed"] for d in mitm)
    examined = sum(d["candidates_examined"] for d in mitm)
    ms("hamcount.naive_sieve_count")
    per_op("hamcount.subsets", counts["hamcount.subsets"])
    put("hamcount.det_per_subset", ratio(counts["hamcount.dets"], counts["hamcount.subsets"]), "ratio")
    ms("hamcount.build_lookup_tables")
    per_op("hamcount.table_keys", sum(d["table_keys"] for d in mitm))
    ms("hamcount.mitm_count_mod")
    per_op("hamcount.candidates_examined", examined)
    per_op("hamcount.pairs_listed", listed)
    put("hamcount.pruning_ratio",
        statistics.fmean(d["pruning_ratio"] for d in mitm) if mitm else 0.0, "ratio")
    put("hamcount.candidate_yield", ratio(listed, examined), "ratio")
    ms("hamcount.crt_count")
    per_op("hamcount.crt_passes", counts["hamcount.crt_passes"])

    ms("hamdetect.sieve_membership_pairs")
    ms("hamdetect.batched_gf_det")
    per_op("hamdetect.gf_matrices", counts["hamdetect.gf_matrices"])
    per_op("hamdetect.trials", counts["hamdetect.trials"])
    ms("hamdetect.PortWeights.draw")
    for family in ("general", "bipartite"):
        own = tot = 0.0
        for op in by_label.get("detect-hc", []):
            if op.cell.family == family:
                own += op.traced["spans"].get("hamdetect.sieve_membership_pairs", [0, 0])[1]
                tot += op.traced["spans"].get("hamdetect.sieve_membership_pairs", [0, 0])[0]
        put(f"hamdetect.assembly_share.{family}", ratio(own, tot), "share")

    ms("branchings.detect_k_internal")
    ms("branchings.det_batch")
    per_op("branchings.internal_trials", counts["branchings.internal_trials"])
    ms("branchings.solve_nk_dv")
    ms("branchings.batched_modp_det")
    per_op("branchings.modp_matrices", counts["branchings.modp_matrices"])
    per_op("branchings.leaf_trials", sum(op.rep["trials"] for op in by_label.get("detect-k-leaf", [])))

    for span in ("algebra.interpolate_univariate", "algebra.make_binary_field"):
        ms(span)
        per_op(f"{span}.calls", calls[span])
    ms("algebra.crt_combine")

    for sub, fn in ORACLE_FNS.items():
        times = [op.oracle_ms for op in ops if op.cell.oracle and op.cell.oracle[0] == sub]
        put(f"oracle.{fn}.ms", statistics.fmean(times) if times else 0.0, "ms/call")
    for label, family in RATIO_KEYS:
        pairs = [(op.ms, op.oracle_ms) for op in by_label.get(label, [])
                 if op.cell.family == family and op.oracle_ms is not None]
        put(f"oracle.ratio.{label}.{family}",
            ratio(sum(a for a, _ in pairs), sum(b for _, b in pairs)), "ratio")

    untraced = sum(op.ms for op in ops)
    traced = sum(op.traced["ms"] for op in ops)
    put("trace.overhead_ratio", ratio(untraced, traced), "ratio")
    return metrics


def cell_lines(ops: list) -> list[str]:
    """Per-cell wall ms, against the exhaustive oracle where the cell has one."""
    cells = defaultdict(list)
    for op in ops:
        cells[op.cell.key].append(op)
    lines, wins, compared = [], 0, 0
    for key, group in sorted(cells.items()):
        ms = [op.ms for op in group]
        line = (f"cell {key:<40} hamkit p50 {statistics.median(ms):9.2f} ms "
                f"[{min(ms):.2f}..{max(ms):.2f}, {len(ms)} ops]")
        if group[0].oracle_ms is not None:
            theirs = statistics.median(op.oracle_ms for op in group)
            faster = "hamkit" if statistics.median(ms) < theirs else "oracle"
            wins += faster == "hamkit"
            compared += 1
            line += f"  oracle p50 {theirs:8.2f} ms  faster: {faster}"
        lines.append(line)
    lines.append(f"crossover: the algebraic route beats the exhaustive oracle in {wins} of "
                 f"{compared} cells that have one")
    return lines


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    commit = "unknown"  # benchmark checkouts are usually not git repositories
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {"commit": commit, "src_sha256": digest.hexdigest()[:16], "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__}


# ---------------------------------------------------------------------------
# main


def run_runner(manifest: dict, workdir: str, tag: str, deadline: float) -> dict:
    man_path = os.path.join(workdir, f"manifest-{tag}.json")
    res_path = os.path.join(workdir, f"results-{tag}.json")
    with open(man_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "runner.py"), man_path, res_path],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(res_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    t_begin = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus for self-tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hamkit", "cli.py")):
        log(f"perfbench: no hamkit sources under {SRC}")
        return 2
    sys.path.insert(0, SRC)
    from hamkit import cli

    table = corpus.SMOKE if args.smoke else corpus.WORKLOADS
    if args.workload not in table:
        log(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(table)}")
        return 2
    workload = table[args.workload]
    rounds = 1 if args.smoke else max(1, round(args.seconds / workload.round_s))
    if args.trace and not args.smoke:
        rounds = max(1, rounds // 2)  # each op runs twice when traced
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        warmup, rounds_ops = corpus.build(workload, args.seed, rounds, workdir, cli)
        ops = [op for rnd in rounds_ops for op in rnd]
        manifest = {
            "src": SRC, "trace": bool(args.trace), "setup_only": True,
            "cap_s": max(3.0 * args.seconds, 10.0),
            "warmup": [op.argv for op in warmup],
            "rounds": [[{"id": op.id, "argv": op.argv} for op in rnd] for rnd in rounds_ops],
        }
        deadline = t_begin + RUN_LIMIT_S
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS - 1):
                setups.append(run_runner(manifest, workdir, f"setup{i}", deadline)["setup_s"])
        results = run_runner({**manifest, "setup_only": False}, workdir, "main", deadline)
        setups.append(results["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        log(f"perfbench: {exc}")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # Everything below runs after the measured process has exited.
    def where(op) -> str:
        seed = op.argv[op.argv.index("--seed") + 1]
        return f"op {op.id} ({op.cell.label} {op.cell.family} n={op.cell.n}, --seed {seed})"

    failed = []
    for op, rec in zip(warmup, results["warmup"]):
        reason, _ = check_answer(op, rec)
        if reason:
            failed.append(f"warm-up {where(op)}: {reason}")
    by_id = {op.id: op for op in ops}
    done, passed = [], []
    check_tally, check_failures = defaultdict(int), []
    for rec in results["ops"]:
        op = by_id[rec["id"]]
        op.ms, op.out, op.traced = rec["ms"], rec["out"], rec.get("traced")
        done.append(op)
        reason, op.rep = check_answer(op, rec)
        if reason:
            failed.append(f"{where(op)}: {reason}")
            continue
        passed.append(op)
        if op.traced is not None:
            counter_checks(op, op.rep, op.traced, check_tally, check_failures)
    attempted = len(results["ops"]) + len(warmup)
    for line in failed:
        log(f"FAILED {line}")
    for line in check_failures:
        log(f"COUNTER CHECK FAILED {line}")

    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed}: {len(done)} ops in {len(rounds_ops)} "
          f"rounds plus {len(warmup)} warm-up ops; closed loop, one client, --threads 1")
    print(f"failed_ratio {len(failed) / attempted} ({len(failed)}/{attempted} ops)")
    for line in cell_lines(passed):
        print(line)
    if args.trace:
        metrics = per_layer(passed)
        for name in sorted(check_tally):
            print(f"check {name}: held {check_tally[name]} times")
    else:
        metrics = end_to_end(done, len(workload.cells), results, setups)
        raw = end_to_end(done, len(workload.cells), results, setups, scaled=False)
        speed = calibrate.REFERENCE_S / statistics.median(results["probe_s"])
        print(f"op_ms samples {len(done)}, setup_s samples {[round(s, 3) for s in setups]}")
        print(f"machine speed {speed:.3f} of the probe reference; unscaled: "
              + ", ".join(f"{k} {raw[k]['value']:.4f} {raw[k]['unit']}"
                          for k in ("ops_per_s", "op_ms.p50", "op_ms.p90")))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']} {m['unit']}")
    correct = not failed and not check_failures
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 1 if check_failures else 0


if __name__ == "__main__":
    sys.exit(main())
