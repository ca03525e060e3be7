"""Command-line front end: one JSON report per run on stdout.

Every subcommand reads the text graph format (header "n m", one "tail head"
line per arc), takes --seed and --threads, and prints a single JSON object
to stdout plus a short human summary to stderr, where a library warning
(a collapsed duplicate arc) prints as one "hamkit: warning: <message>"
line. Without --seed, the HAMKIT_SEED environment variable (then 0) gives
the seed; main reads it after parsing, on every call, since the parser is
built once per process.
--threads is accepted for compatibility and has no effect: every command
runs on the calling thread. Exit codes: 0 for completed runs including NO
answers, 2 for usage or input errors, 3 for guard violations (instances
beyond the desk-scale limits). Each subcommand is declared once, in
build_parser, which sets its handler and the module main loads for it
before starting the clock. Only the detect-* commands import hamdetect or
branchings, and gf2m, modp and numpy with them; the counting and oracle
commands run without numpy. Only the oracle commands import hamkit.oracle,
and only count-exact's --d imports fractions.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import sys
import time
import warnings

from . import hamcount
from .errors import GuardError
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
    residue, diag = hamcount.count_hc_mod(g, args.p, args.k, args.lam, args.mode)
    payload = {
        "answer": residue.value,
        "modulus": residue.modulus,
        "p": residue.p,
        "k": residue.k,
        "mode": args.mode,
    }
    if diag is not None:
        diag_dict = diag._asdict()
        diag_dict["pruning_ratio"] = diag.pruning_ratio
        payload["diagnostics"] = diag_dict
    human = f"hamiltonian cycles = {residue.value} (mod {residue.p}^{residue.k})"
    return payload, human


def _cmd_count_exact(args, g: Digraph, seed: int) -> tuple[dict, str]:
    count = hamcount.count_exact(g)
    return (
        {"answer": count, "cap_base": str(args.d)},
        f"exactly {count} hamiltonian cycles (cap base d={args.d})",
    )


def _cmd_count_avg_degree(args, g: Digraph, seed: int) -> tuple[dict, str]:
    count = hamcount.count_exact(g)
    return {"answer": count}, f"exactly {count} hamiltonian cycles"


def _cmd_detect_hc(args, g: Digraph, seed: int) -> tuple[dict, str]:
    from . import hamdetect

    rep = hamdetect.detect_hamiltonian_cycle(g, trials=args.trials, seed=seed)
    return _verdict_fields(rep), f"hamiltonian cycle: {'yes' if rep.verdict else 'no'}"


def _cmd_detect_k_internal(args, g: Digraph, seed: int) -> tuple[dict, str]:
    from . import branchings as br

    rep = br.detect_k_internal(g, args.k, trials=args.trials, seed=seed)
    human = f"out-branching with >= {args.k} internal vertices: {'yes' if rep.verdict else 'no'}"
    return {**_verdict_fields(rep), "k": args.k}, human


def _cmd_detect_k_leaf(args, g: Digraph, seed: int) -> tuple[dict, str]:
    from . import branchings as br

    rep = br.detect_k_leaf(g, args.k, budget=args.budget, seed=seed)
    human = f"out-branching with >= {args.k} leaves: {'yes' if rep.verdict else 'no'}"
    return {**_verdict_fields(rep), "k": args.k}, human


def _cmd_oracle(args, g: Digraph, seed: int) -> tuple[dict, str]:
    from . import oracle

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
    verdict = oracle.brute_k_leaf(g, args.k)  # k-leaf
    return (
        {"answer": "yes" if verdict else "no", "k": args.k},
        f">= {args.k} leaves (exhaustive): {'yes' if verdict else 'no'}",
    )


def _seed(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid seed {text!r} (from --seed or $HAMKIT_SEED)"
        ) from None


def _cap_base(text: str) -> Fraction:
    from fractions import Fraction

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


@functools.cache  # built on the first main() call, not at import, then reused
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamkit",
        description="Hamiltonian cycle counting/detection and out-branching detectors.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def command(group, name, run, module, **kwargs):
        """Add subcommand `name` with the arguments every command takes, the
        handler main calls and the module main imports before its clock
        (None: none). kwargs go to add_parser: a help= line lists the
        command in its parent's --help, and the oracle subcommands pass none."""
        sp = group.add_parser(name, **kwargs)
        sp.add_argument("graph", help="path to a graph file (header 'n m', arc lines 'tail head')")
        # None: main reads $HAMKIT_SEED per call, which a cached parser cannot
        sp.add_argument("--seed", type=_seed, default=None,
                        help="RNG seed (default: $HAMKIT_SEED or 0)")
        sp.add_argument("--threads", type=_thread_count, default=1,
                        help="accepted for compatibility, at least 1; has no effect")
        sp.set_defaults(run=run, module=module)
        return sp

    sp = command(subs, "count-branchings", _cmd_count_branchings, None,
                 help="exact spanning out-branching count for one root")
    sp.add_argument("--root", type=int, required=True)

    sp = command(subs, "count-mod", _cmd_count_mod, None, help="hamiltonian cycle count modulo a prime power")
    sp.add_argument("--p", type=int, required=True, help="prime modulus base")
    sp.add_argument("--k", type=int, default=None, help="exponent (default: the built-in schedule)")
    sp.add_argument("--lambda", dest="lam", type=float, default=hamcount.DEFAULT_LAMBDA)
    sp.add_argument("--mode", choices=("naive", "mitm"), default="mitm")

    sp = command(subs, "count-exact", _cmd_count_exact, None, help="exact hamiltonian cycle count")
    sp.add_argument("--d", type=_cap_base, required=True,
                    help="cap base above 1, an integer or fraction like 9/8; echoed as cap_base, "
                         "it does not change the count")

    command(subs, "count-avg-degree", _cmd_count_avg_degree, None, help="exact hamiltonian cycle count")

    sp = command(subs, "detect-hc", _cmd_detect_hc, "hamdetect", help="randomized hamiltonian cycle detection")
    sp.add_argument("--trials", type=int, default=None,
                    help="trials before a NO, at least 1 (default: the fewest that bound a miss "
                         "by 2^-84 in GF(2^16), 6 to 8 for n <= 32)")

    sp = command(subs, "detect-k-internal", _cmd_detect_k_internal, "branchings",
                 help="spanning out-branching with >= k internal vertices")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--trials", type=int, default=100)

    sp = command(subs, "detect-k-leaf", _cmd_detect_k_leaf, "branchings",
                 help="spanning out-branching with >= k leaves")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--budget", type=int, default=None, help="trial budget (default 4^k)")

    sp = subs.add_parser("oracle", help="exhaustive reference answers (small inputs only)")
    osubs = sp.add_subparsers(dest="oracle_command", required=True)
    for name, flags in (
        ("hc-count", ()),
        ("hp-count", ("--s", "--t")),
        ("branchings", ("--root",)),
        ("mis", ()),
        ("k-internal", ("--k",)),
        ("k-leaf", ("--k",)),
    ):
        osp = command(osubs, name, _cmd_oracle, "oracle")
        for flag in flags:
            osp.add_argument(flag, type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.seed is None:
        try:
            args.seed = _seed(os.environ.get("HAMKIT_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            print(f"hamkit: {exc}", file=sys.stderr)
            return 2
    if args.module is not None:  # so that elapsed_ms never includes a module import
        importlib.import_module(f".{args.module}", __package__)
    started = time.perf_counter()
    try:
        with warnings.catch_warnings():
            # a library warning prints as one line, not as a source location
            warnings.showwarning = lambda message, *_: print(f"hamkit: warning: {message}", file=sys.stderr)
            g = _load_graph(args.graph)
            payload, human = args.run(args, g, args.seed)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
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
