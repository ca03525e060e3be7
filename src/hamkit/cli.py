"""Command-line front end: one JSON report per run on stdout.

Every subcommand reads the text graph format (header "n m", one "tail head"
line per arc), takes --seed (falling back to the HAMKIT_SEED environment
variable) and --threads, and prints a single JSON object to stdout plus a
short human summary to stderr. --threads drives the detect-hc,
detect-k-internal and detect-k-leaf worker pools; the other commands accept
it and run on one thread. Exit codes: 0 for completed runs including
NO answers and cap-exceeded outcomes, 2 for usage or input errors, 3 for
guard violations (instances beyond the desk-scale limits).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction

from . import branchings as br
from . import hamcount, hamdetect, oracle
from .errors import CapExceededError, GuardError, ParseError
from .graph import Digraph, parse_digraph
from .matrixtree import count_out_branchings
from .report import DetectionReport


def _verdict_fields(rep: DetectionReport) -> dict:
    return {
        "answer": "yes" if rep.verdict else "no",
        "trials": rep.trials_run,
        "failure_bound": rep.failure_bound,
        "diagnostics": rep.detail,
    }


def _load_graph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_digraph(fh.read())


def _cmd_count_branchings(args, g: Digraph, seed: int) -> tuple[dict, str]:
    count = count_out_branchings(g, args.root)
    return (
        {"answer": count, "root": args.root},
        f"{count} spanning out-branchings rooted at {args.root}",
    )


def _cmd_count_mod(args, g: Digraph, seed: int) -> tuple[dict, str]:
    params = hamcount.SieveParams(p=args.p, k=args.k, lam=args.lam, mode=args.mode, seed=seed)
    residue, diag = hamcount.count_hc_mod(g, params)
    payload = {
        "answer": residue.value,
        "modulus": residue.modulus,
        "p": residue.p,
        "k": residue.k,
        "mode": args.mode,
    }
    if diag is not None:
        diag_dict = asdict(diag)
        diag_dict["pruning_ratio"] = diag.pruning_ratio
        payload["diagnostics"] = diag_dict
    human = f"hamiltonian cycles = {residue.value} (mod {residue.p}^{residue.k})"
    return payload, human


def _cmd_count_exact(args, g: Digraph, seed: int) -> tuple[dict, str]:
    d = args.d
    try:
        count = hamcount.count_exact_capped(g, d, lam=args.lam, seed=seed, mode=args.mode)
    except CapExceededError as exc:
        return (
            {"answer": "cap-exceeded", "cap_base": str(d), "message": str(exc)},
            f"cap exceeded for d={d}: {exc}",
        )
    return (
        {"answer": count, "cap_base": str(d)},
        f"exactly {count} hamiltonian cycles (certified for counts <= d^n, d={d})",
    )


def _cmd_count_avg_degree(args, g: Digraph, seed: int) -> tuple[dict, str]:
    try:
        count = hamcount.count_avg_degree(g, lam=args.lam, seed=seed, mode=args.mode)
    except CapExceededError as exc:
        return (
            {"answer": "cap-exceeded", "message": str(exc)},
            f"cap exceeded: {exc}",
        )
    return {"answer": count}, f"exactly {count} hamiltonian cycles"


def _cmd_detect_hc(args, g: Digraph, seed: int) -> tuple[dict, str]:
    rep = hamdetect.detect_hamiltonian_cycle(
        g, trials=args.trials, seed=seed, threads=args.threads
    )
    return _verdict_fields(rep), f"hamiltonian cycle: {'yes' if rep.verdict else 'no'}"


def _cmd_detect_k_internal(args, g: Digraph, seed: int) -> tuple[dict, str]:
    cfg = br.InternalSieveConfig(
        trials=args.trials, seed=seed, threads=args.threads
    )
    rep = br.detect_k_internal(g, args.k, cfg)
    human = f"out-branching with >= {args.k} internal vertices: {'yes' if rep.verdict else 'no'}"
    return {**_verdict_fields(rep), "k": args.k}, human


def _cmd_detect_k_leaf(args, g: Digraph, seed: int) -> tuple[dict, str]:
    cfg = br.DvConfig(
        budget=args.budget, skew=args.skew, s_estimate=args.s_estimate,
        seed=seed, threads=args.threads,
    )
    rep = br.detect_k_leaf(g, args.k, cfg)
    human = f"out-branching with >= {args.k} leaves: {'yes' if rep.verdict else 'no'}"
    return {**_verdict_fields(rep), "k": args.k}, human


def _cmd_oracle(args, g: Digraph, seed: int) -> tuple[dict, str]:
    sub = args.oracle_command
    if sub == "hc-count":
        count = oracle.held_karp_count_hc(g)
        return {"answer": count}, f"{count} hamiltonian cycles (exhaustive)"
    if sub == "hp-count":
        count = oracle.held_karp_count_hp(g, args.s, args.t)
        return (
            {"answer": count, "s": args.s, "t": args.t},
            f"{count} hamiltonian {args.s}->{args.t} paths (exhaustive)",
        )
    if sub == "branchings":
        listing = oracle.enumerate_out_branchings(g, args.root)
        payload = {
            "answer": len(listing),
            "root": args.root,
            "max_internal": max((b.internal_count for b in listing), default=0),
            "max_leaves": max((b.leaf_count for b in listing), default=0),
        }
        return payload, f"{len(listing)} spanning out-branchings rooted at {args.root}"
    if sub == "mis":
        vertices = sorted(oracle.brute_mis(g))
        return (
            {"answer": len(vertices), "vertices": vertices},
            f"maximum independent set size {len(vertices)}",
        )
    if sub == "k-internal":
        verdict = oracle.brute_k_internal(g, args.k)
        return (
            {"answer": "yes" if verdict else "no", "k": args.k},
            f">= {args.k} internal vertices (exhaustive): {'yes' if verdict else 'no'}",
        )
    if sub == "k-leaf":
        verdict = oracle.brute_k_leaf(g, args.k)
        return (
            {"answer": "yes" if verdict else "no", "k": args.k},
            f">= {args.k} leaves (exhaustive): {'yes' if verdict else 'no'}",
        )
    raise ValueError(f"unknown oracle subcommand {sub!r}")


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid seed {text!r} (from --seed or $HAMKIT_SEED)"
        ) from None


def _cap_base(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 1:
        raise argparse.ArgumentTypeError(f"need a number above 1 such as 9/8, got {text!r}")
    return value


def _thread_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"need a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamkit",
        description="Hamiltonian cycle counting/detection and out-branching detectors.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("graph", help="path to a graph file (header 'n m', arc lines 'tail head')")
        # argparse runs a string default through `type` too, so a bad
        # $HAMKIT_SEED is a usage error like a bad --seed
        sp.add_argument("--seed", type=_seed, default=os.environ.get("HAMKIT_SEED", "0"),
                        help="RNG seed (default: $HAMKIT_SEED or 0)")
        sp.add_argument("--threads", type=_thread_count, default=1,
                        help="detector worker threads, at least 1; never changes answers")

    sp = subs.add_parser("count-branchings", help="exact spanning out-branching count for one root")
    common(sp)
    sp.add_argument("--root", type=int, required=True)

    sp = subs.add_parser("count-mod", help="hamiltonian cycle count modulo a prime power")
    common(sp)
    sp.add_argument("--p", type=int, required=True, help="prime modulus base")
    sp.add_argument("--k", type=int, default=None, help="exponent (default: the built-in schedule)")
    sp.add_argument("--lambda", dest="lam", type=float, default=hamcount.DEFAULT_LAMBDA)
    sp.add_argument("--mode", choices=("naive", "mitm"), default="mitm")

    sp = subs.add_parser("count-exact", help="exact count, certified when the count is at most d^n")
    common(sp)
    sp.add_argument("--d", type=_cap_base, required=True,
                    help="cap base above 1, an integer or fraction like 9/8")
    sp.add_argument("--lambda", dest="lam", type=float, default=hamcount.DEFAULT_LAMBDA)
    sp.add_argument("--mode", choices=("naive", "mitm"), default="naive")

    sp = subs.add_parser("count-avg-degree", help="exact count with the cap from the average degree")
    common(sp)
    sp.add_argument("--lambda", dest="lam", type=float, default=hamcount.DEFAULT_LAMBDA)
    sp.add_argument("--mode", choices=("naive", "mitm"), default="naive")

    sp = subs.add_parser("detect-hc", help="randomized hamiltonian cycle detection")
    common(sp)
    sp.add_argument("--trials", type=int, default=None)

    sp = subs.add_parser("detect-k-internal", help="spanning out-branching with >= k internal vertices")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100)

    sp = subs.add_parser("detect-k-leaf", help="spanning out-branching with >= k leaves")
    common(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=int, default=None, help="trial budget (default 4^k)")
    sp.add_argument("--s-estimate", dest="s_estimate", type=int, default=None)
    sp.add_argument("--skew", type=float, default=None)

    sp = subs.add_parser("oracle", help="exhaustive reference answers (small inputs only)")
    osubs = sp.add_subparsers(dest="oracle_command", required=True)
    for name, extra in (
        ("hc-count", ()),
        ("hp-count", (("--s", True), ("--t", True))),
        ("branchings", (("--root", True),)),
        ("mis", ()),
        ("k-internal", (("--k", True),)),
        ("k-leaf", (("--k", True),)),
    ):
        osp = osubs.add_parser(name)
        common(osp)
        for flag, required in extra:
            osp.add_argument(flag, type=int, required=required)

    return parser


_HANDLERS = {
    "count-branchings": _cmd_count_branchings,
    "count-mod": _cmd_count_mod,
    "count-exact": _cmd_count_exact,
    "count-avg-degree": _cmd_count_avg_degree,
    "detect-hc": _cmd_detect_hc,
    "detect-k-internal": _cmd_detect_k_internal,
    "detect-k-leaf": _cmd_detect_k_leaf,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        g = _load_graph(args.graph)
        payload, human = _HANDLERS[args.command](args, g, args.seed)
    except (ParseError, OSError) as exc:
        print(f"hamkit: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"hamkit: {exc}", file=sys.stderr)
        return 2
    except GuardError as exc:
        print(f"hamkit: guard violation: {exc}", file=sys.stderr)
        return 3
    elapsed_ms = round((time.perf_counter() - started) * 1000.0, 3)
    report = {"command": args.command}
    if args.command == "oracle":
        report["oracle_command"] = args.oracle_command
    report.update(payload)
    report["seed"] = args.seed
    report["elapsed_ms"] = elapsed_ms
    print(json.dumps(report))
    print(f"hamkit: {human} [{elapsed_ms} ms]", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
