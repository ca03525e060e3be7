"""The benchmark's outside-in tracer must find every entry point it wraps."""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    acyclic_tournament,
    bidirected_path,
    bidirected_star,
    complete_digraph,
    directed_cycle,
    directed_path,
    out_star,
    random_digraph,
    run_fresh,
)
from hamkit import branchings, hamcount, hamdetect
from hamkit.branchings import (
    BranchingLeafPolynomial,
    detect_k_internal,
    detect_k_leaf,
    internal_sieve_success_floor,
    solve_nk_dv,
)
from hamkit.graph import find_independent_partition, make_digraph
from hamkit.hamcount import count_exact
from hamkit.hamdetect import detect_hamiltonian_cycle
from hamkit.report import trial_chunks

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
SELFTEST = LAYERTRACE.with_name("selftest.py")


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_binds_every_entry_point_and_uninstall_restores():
    before = (hamcount.det_bareiss_int, vars(hamcount._SieveCore)["signed_contribution"])
    tracer = load_layertrace().Tracer()
    tracer.install()  # KeyError here: a traced entry point moved or was renamed
    try:
        assert hamcount.det_bareiss_int is not before[0]
    finally:
        tracer.uninstall()
    assert (hamcount.det_bareiss_int, vars(hamcount._SieveCore)["signed_contribution"]) == before


# In a process that imported only hamkit.cli (argv[1]: layertrace.py, argv[2]:
# one CLI argv), install the tracer, run the argv untraced and traced, and
# report what install loaded, both stdouts and what uninstall left behind.
FRESH_TRACE = """
import contextlib, importlib, importlib.util, io, json, re, sys
from hamkit import cli

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, re.sub(r'"elapsed_ms": [0-9.]+', '"elapsed_ms": _', out.getvalue())

spec = importlib.util.spec_from_file_location("layertrace", sys.argv[1])
layertrace = importlib.util.module_from_spec(spec)
spec.loader.exec_module(layertrace)
argv = json.loads(sys.argv[2])
detectors = ("hamkit.hamdetect", "hamkit.branchings")
loaded_before = [m for m in detectors if m in sys.modules]
cli_names = (cli.parse_digraph, cli.count_out_branchings)
plain = run(argv)
tracer = layertrace.Tracer()
tracer.install()
try:
    loaded_by_install = [m for m in detectors if m in sys.modules]
    traced = run(argv)
finally:
    tracer.uninstall()
still_wrapped = []
for module, attr, _ in layertrace.bindings(tracer):
    owner = importlib.import_module(f"hamkit.{module[0]}")
    if len(module) > 1:
        owner = getattr(owner, module[1])
    raw = vars(owner)[attr]
    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
    if fn.__module__ == layertrace.__name__:
        still_wrapped.append(".".join(module + (attr,)))
print(json.dumps({
    "loaded_before": loaded_before,
    "loaded_by_install": loaded_by_install,
    "plain": plain,
    "traced": traced,
    "subsets": tracer.counters["hamcount.subsets"],
    "still_wrapped": still_wrapped,
    "cli_names_restored": (cli.parse_digraph, cli.count_out_branchings) == cli_names,
}))
"""


def test_install_loads_lazily_imported_modules_itself(tmp_path):
    # hamkit.cli imports hamdetect and branchings only for detect-* commands,
    # so the tracer must load them itself before binding their entry points
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n", encoding="utf-8")
    argv = ["count-mod", str(path), "--p", "3", "--k", "2", "--seed", "1"]
    report = json.loads(run_fresh(FRESH_TRACE, str(LAYERTRACE), json.dumps(argv)))
    assert report["loaded_before"] == []
    assert report["loaded_by_install"] == ["hamkit.hamdetect", "hamkit.branchings"]
    assert report["plain"][0] == 0 and '"answer": 1' in report["plain"][1]
    assert report["traced"] == report["plain"]
    assert report["subsets"] > 0  # the traced run went through the wrappers
    assert report["still_wrapped"] == []
    assert report["cli_names_restored"]


def test_naive_exact_count_is_one_pass():
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        assert count_exact(directed_cycle(7)) == 1
    finally:
        tracer.uninstall()
    counters = tracer.counters
    assert counters["hamcount.subsets"] == 1 << 7
    # determinants are taken only for subsets that contain s
    assert counters["hamcount.dets"] <= 1 << 6
    assert tracer.spans["hamcount.naive_sieve_count"][2] == 1
    assert tracer.lists["naive_pass_subsets"] == [1 << 7]
    assert counters["hamcount.crt_passes"] == 0
    assert "hamcount.crt_count" not in tracer.spans


def test_mitm_count_is_spanned():
    # the benchmark's mitm-listed-subsets check and its two MITM layers
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        residue, diag = hamcount.count_hc_mod(complete_digraph(6), 2, 1)
    finally:
        tracer.uninstall()
    assert residue.value == 120 % 2
    assert not diag.fallback and diag.pairs_listed < diag.pairs_naive
    assert tracer.counters["hamcount.subsets"] == diag.pairs_listed
    for name in ("hamcount.build_lookup_tables", "hamcount.mitm_count_mod"):
        assert tracer.spans[name][2] == 1, name


@pytest.mark.parametrize("bits", [16, 4])
def test_counting_passes_keep_the_bench_closed_forms(bits, monkeypatch):
    # perfbench/run.py's counter checks, in one screen block and in blocks
    # of 2^4 masks: a mitm run calls signed_contribution once per survivor it
    # reports as pairs_listed, records both MITM spans, never enters the
    # naive pass and reports no fallback; a naive run makes 2^n calls inside
    # naive_sieve_count; neither takes more determinants than it visits
    monkeypatch.setattr(hamcount, "SCREEN_BITS", bits)
    rnd = random.Random(401)
    for n in (6, 9, 10):
        g = random_digraph(rnd, n, 0.5)
        residues = []
        for mode in ("mitm", "naive"):
            tracer = load_layertrace().Tracer()
            tracer.install()
            try:
                residue, diag = hamcount.count_hc_mod(g, 3, 2, mode=mode)
            finally:
                tracer.uninstall()
            residues.append(residue)
            counters, spans = tracer.counters, tracer.spans
            assert counters["hamcount.dets"] <= counters["hamcount.subsets"]
            if mode == "mitm":
                assert diag.fallback is False
                assert counters["hamcount.subsets"] == diag.pairs_listed < 1 << n
                for name in ("hamcount.build_lookup_tables", "hamcount.mitm_count_mod"):
                    assert spans[name][2] == 1, name
                assert "hamcount.naive_sieve_count" not in spans
                assert not tracer.lists["naive_pass_subsets"]
            else:
                assert diag is None
                assert tracer.lists["naive_pass_subsets"] == [1 << n]
                assert counters["hamcount.subsets"] == 1 << n
                assert spans["hamcount.naive_sieve_count"][2] == 1
        assert residues[0] == residues[1]


def test_detector_kernels_are_spanned(monkeypatch):
    # a kernel moved out from under its traced name would drop its layer from the benchmark
    shapes = []
    gf_det = hamdetect.batched_gf_det

    def recording_gf_det(field, mats, *args, **kwargs):
        shapes.append(mats.shape)
        return gf_det(field, mats, *args, **kwargs)

    monkeypatch.setattr(hamdetect, "batched_gf_det", recording_gf_det)
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        rep = detect_hamiltonian_cycle(acyclic_tournament(6), trials=3, seed=1)
        detect_k_internal(directed_path(5), 2, trials=5, seed=1)
        detect_k_leaf(out_star(5), 2, budget=2, seed=1)
    finally:
        tracer.uninstall()
    for name in ("hamdetect.batched_gf_det", "branchings.det_batch",
                 "branchings.batched_modp_det", "algebra.interpolate_univariate"):
        assert tracer.spans[name][2] > 0, name
    (blue,) = tracer.lists["blue"]
    assert not rep.verdict and tracer.counters["hamdetect.trials"] == rep.trials_run == 3
    # one weight draw and one sieve pass per trial, so neither per-layer time reads 0
    for name in ("hamdetect.PortWeights.draw", "hamdetect.sieve_membership_pairs"):
        assert tracer.spans[name][2] == rep.trials_run, name
    assert tracer.counters["hamdetect.gf_matrices"] == rep.trials_run * 2 * 3 ** (blue - 1)
    # one |blue| x |blue| matrix per pair: the yellow rows are folded away
    assert shapes and all(shape[1:] == (blue, blue) for shape in shapes)
    assert sum(shape[0] for shape in shapes) == tracer.counters["hamdetect.gf_matrices"]
    # detect-hc and detect-k-internal each ask for a field, k-leaf works mod p;
    # the span counts calls even when the field comes from the per-degree cache
    assert tracer.spans["algebra.make_binary_field"][2] == 2


def test_detector_kernel_sees_every_pair_matrix(monkeypatch):
    # the benchmark's gf-matrices check counts what batched_gf_det receives,
    # trials * 2 * 3^(|blue| - 1), so singular pair matrices may be dropped
    # only inside the kernel; this sparse bipartite NO makes most of them singular
    arcs = [(0, 5), (1, 2), (1, 6), (2, 7), (3, 2), (3, 6), (3, 8), (4, 5), (4, 9), (5, 0),
            (5, 2), (5, 8), (6, 1), (6, 3), (6, 5), (7, 0), (7, 4), (8, 9), (9, 0), (9, 6)]
    g = make_digraph(10, arcs)
    shapes, dets = [], []
    gf_det = hamdetect.batched_gf_det

    def recording_gf_det(field, mats, *args, **kwargs):
        shapes.append(mats.shape)
        dets.append(gf_det(field, mats, *args, **kwargs))
        return dets[-1]

    monkeypatch.setattr(hamdetect, "batched_gf_det", recording_gf_det)
    rep = detect_hamiltonian_cycle(g, trials=3, seed=1)
    blue = len(find_independent_partition(g).blue)
    assert not rep.verdict and rep.trials_run == 3 and blue == 5
    assert sum(shape[0] for shape in shapes) == 3 * 2 * 3 ** (blue - 1)
    assert all(shape[1:] == (blue, blue) for shape in shapes)
    dets = np.concatenate(dets)
    assert np.count_nonzero(dets == 0) > 0.7 * len(dets)


def test_detector_counters_hold_over_many_chunks(monkeypatch):
    # the benchmark's gf-matrices and gf-trials checks when one trial runs many
    # chunks: at STATE_CHUNK = 7 each chunk holds 2 * 3 pairs, so the 2 * 3^4
    # pairs of |blue| = 5 take 27 chunks, one per prefix of high digits, and
    # each of the plan's two tables (one per side) gives them nonzero per-row offsets
    arcs = [(0, 5), (1, 2), (1, 6), (2, 7), (3, 2), (3, 6), (3, 8), (4, 5), (4, 9), (5, 0),
            (5, 2), (5, 8), (6, 1), (6, 3), (6, 5), (7, 0), (7, 4), (8, 9), (9, 0), (9, 6)]
    g = make_digraph(10, arcs)
    monkeypatch.setattr(hamdetect, "STATE_CHUNK", 7)
    offsets = [offset for _, offset in hamdetect._pair_plan(5, 7)]
    assert len(offsets) == 2 and all(len(o) == 27 and o.any() for o in offsets)
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        rep = detect_hamiltonian_cycle(g, trials=3, seed=1)
    finally:
        tracer.uninstall()
    assert not rep.verdict and rep.trials_run == 3
    assert rep.detail["pairs_per_trial"] == 2 * 3**4
    assert tracer.counters["hamdetect.gf_matrices"] == 3 * 2 * 3**4
    assert tracer.counters["hamdetect.trials"] == 3
    assert tracer.spans["hamdetect.sieve_membership_pairs"][2] == 3
    assert tracer.spans["hamdetect.batched_gf_det"][2] == 3 * 27


def chunk_of(trial, sizes):
    """(start, size) of the chunk among trial_chunks' sizes that holds trial."""
    start = 0
    for size in sizes:
        if trial < start + size:
            return start, size
        start += size
    raise ValueError(f"trial {trial} is past the {start} trials of the chunks")


def test_leaf_no_is_one_interpolation_per_chunk_and_prime():
    # the benchmark's modp-matrices check on a NO whose budget ends mid-chunk:
    # 100 trials in report.trial_chunks' chunks, each prime once per chunk
    n, k, budget = 5, 2, 100
    sizes = list(trial_chunks(budget, branchings.LEAF_CHUNK, 4.0**-k))
    assert sizes[-1] < branchings.LEAF_CHUNK
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        rep = detect_k_leaf(directed_path(n), k, budget=budget, seed=3)
    finally:
        tracer.uninstall()
    assert not rep.verdict and rep.trials_run == budget
    assert tracer.counters["branchings.modp_matrices"] == budget * 2 * (2 * n + 1)
    assert tracer.spans["algebra.interpolate_univariate"][2] == len(sizes) * 2
    assert tracer.spans["branchings.batched_modp_det"][2] == len(sizes) * 2


def test_leaf_evaluations_are_the_matrices_the_kernel_receives():
    # solve_nk_dv's evaluations detail counts the rows it passes to
    # evaluate_batch: on this YES, both primes evaluate every trial of the
    # chunks before the hit at trial 11, p1 the whole chunk that holds it,
    # and p2 only that chunk's trials before the hit
    yes_graph = make_digraph(6, [(0, 1), (0, 4), (1, 0), (1, 4), (1, 5), (2, 1), (2, 4), (2, 5),
                                 (3, 1), (3, 5), (4, 0), (4, 3), (4, 5), (5, 0), (5, 1), (5, 2),
                                 (5, 3)])
    cases = [(yes_graph, 3, None, 1), (directed_path(5), 2, 100, 3)]
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        reports = []
        for g, k, budget, seed in cases:
            tracer.reset()
            rep = solve_nk_dv(BranchingLeafPolynomial(g, [0]), k, budget, seed)
            reports.append((rep, tracer.counters["branchings.modp_matrices"]))
    finally:
        tracer.uninstall()
    (yes, yes_count), (no, no_count) = reports
    assert yes.verdict and yes.detail["hit"]["trial"] == 11 and yes.trials_run == 12
    assert yes.detail["hit"]["prime"] == yes.detail["primes"][0]
    start, size = chunk_of(11, trial_chunks(4**3, branchings.LEAF_CHUNK, 4.0**-3))
    assert yes.detail["evaluations"] == yes_count == start * 2 * 13 + (size + 11 - start) * 13
    assert not no.verdict and no.detail["evaluations"] == no_count == 100 * 2 * 11


def test_internal_chunks_follow_the_floor_and_a_yes_stops_at_its_hit():
    # a NO with 100 trials makes one det_batch call per chunk of
    # report.trial_chunks, and a YES that hits on its first trial evaluates
    # that one trial
    sizes = list(trial_chunks(100, branchings.INTERNAL_CHUNK, internal_sieve_success_floor(5, 2)))
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        no = detect_k_internal(out_star(5), 2, trials=100, seed=3)
        counted = dict(tracer.counters), tracer.spans["branchings.det_batch"][2]
        tracer.reset()
        yes = detect_k_internal(directed_path(6), 4, trials=100, seed=3)
    finally:
        tracer.uninstall()
    assert not no.verdict and no.trials_run == 100 and no.detail["roots"] == [0]
    assert counted == ({"branchings.internal_trials": 100}, len(sizes))
    assert yes.verdict and yes.trials_run == 1
    assert tracer.counters["branchings.internal_trials"] == 1
    assert tracer.spans["branchings.det_batch"][2] == 1


def test_multi_root_no_pays_one_budget():
    # every vertex of a bidirected star or path is a spanning root, and one
    # bordered determinant per trial covers them all: a k-internal NO runs
    # its 100 trials once, not once per root (900), and a k-leaf NO its 4^3
    # solver trials once, each 2 primes x (2n+1) points. No out-branching of
    # the star has 3 internal vertices, nor one of the path 3 leaves
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        internal = detect_k_internal(bidirected_star(9), 3, trials=100, seed=3)
        internal_trials = tracer.counters["branchings.internal_trials"]
        tracer.reset()
        leaf = detect_k_leaf(bidirected_path(8), 3, seed=3)
    finally:
        tracer.uninstall()
    assert not internal.verdict and internal.trials_run == internal.trials_max == 100
    assert internal.failure_bound == (1.0 - internal_sieve_success_floor(9, 3)) ** 100
    assert internal.detail == {"engine": "batched", "roots": list(range(9))}
    assert internal_trials == 100
    assert not leaf.verdict and leaf.trials_run == leaf.trials_max == 64
    assert leaf.failure_bound == (1.0 - 4.0**-3) ** 64
    assert leaf.detail == {"roots": list(range(8))}
    assert tracer.counters["branchings.modp_matrices"] == 64 * 2 * 17
    # one fewer internal vertex or leaf is found
    assert detect_k_internal(bidirected_star(9), 2, trials=100, seed=3).verdict
    assert detect_k_leaf(bidirected_path(8), 2, seed=3).verdict


def test_benchmark_selftest_passes():
    # smoke runs of every workload, traced and not: a kernel change that moves
    # a traced entry point or breaks a closed-form counter check fails here
    proc = subprocess.run([sys.executable, str(SELFTEST)], cwd=SELFTEST.parents[1],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
