"""Spans and counters around hamkit's layer entry points, from the outside.

Nothing in the package is edited. Each entry point is a module-level name
(or class attribute) that its caller looks up at call time, so rebinding
that name to a wrapper puts a span around every call. A span records its
total time and its self time (total minus the spans nested inside it).
`install` rebinds, `uninstall` restores the originals, so an op can run
traced and untraced in one process.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [child seconds, name]
        self.spans: dict[str, list] = {}  # name -> [total s, self s, calls]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.lists: defaultdict[str, list] = defaultdict(list)
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.lists.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "lists": {k: list(v) for k, v in self.lists.items()},
        }

    def active(self, name: str) -> bool:
        return any(frame[1] == name for frame in self.stack)

    def span(self, name: str, fn, before=None, after=None):
        stack, spans, clock = self.stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [0.0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                rec = spans.get(name)
                if rec is None:
                    rec = spans[name] = [0.0, 0.0, 0]
                rec[0] += dur
                rec[1] += dur - frame[0]
                rec[2] += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, fn, on_call):
        """A wrapper that only counts: no clock reads on hot per-subset calls."""
        def wrapper(*args, **kwargs):
            on_call(args)
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for module, attr, make in bindings(self):
            owner = importlib.import_module(f"hamkit.{module[0]}")
            if len(module) > 1:
                owner = getattr(owner, module[1])
            raw = vars(owner)[attr]  # KeyError: the entry point moved
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = make(fn)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def bindings(t: Tracer):
    """(module path, attribute, wrapper factory) for every traced entry point."""
    c = t.counters
    lists = t.lists

    def add(key, amount=1):
        def hook(args):
            c[key] += amount(args) if callable(amount) else amount
        return hook

    def naive_before(args):
        lists["naive_start"].append(c["hamcount.subsets"])

    def naive_after(args, result):
        lists["naive_pass_subsets"].append(c["hamcount.subsets"] - lists["naive_start"].pop())

    def crt_pass(args):
        if t.active("hamcount.crt_count"):
            c["hamcount.crt_passes"] += 1

    def blue(args, part):
        lists["blue"].append(len(part.blue))

    span = t.span
    return [
        (("cli",), "parse_digraph", lambda f: span("graph.parse_digraph", f)),
        (("hamcount",), "split_vertex", lambda f: span("graph.split_vertex", f)),
        (("hamdetect",), "find_independent_partition",
         lambda f: span("graph.find_independent_partition", f, after=blue)),
        (("hamcount",), "det_bareiss_int",
         lambda f: span("matrixtree.det_bareiss_int", f, before=add("hamcount.dets"))),
        (("matrixtree",), "det_bareiss_int", lambda f: span("matrixtree.det_bareiss_int", f)),
        (("cli",), "count_out_branchings", lambda f: span("matrixtree.count_out_branchings", f)),
        (("branchings",), "count_out_branchings",
         lambda f: span("matrixtree.count_out_branchings", f)),
        (("hamcount", "_SieveCore"), "signed_contribution",
         lambda f: t.count(f, add("hamcount.subsets"))),
        (("hamcount",), "count_hc_mod", lambda f: t.count(f, crt_pass)),
        (("hamcount",), "naive_sieve_count",
         lambda f: span("hamcount.naive_sieve_count", f, before=naive_before, after=naive_after)),
        (("hamcount",), "build_lookup_tables", lambda f: span("hamcount.build_lookup_tables", f)),
        (("hamcount",), "mitm_count_mod", lambda f: span("hamcount.mitm_count_mod", f)),
        (("hamcount",), "crt_count", lambda f: span("hamcount.crt_count", f)),
        (("hamcount",), "crt_combine", lambda f: span("algebra.crt_combine", f)),
        (("hamdetect",), "sieve_membership_pairs",
         lambda f: span("hamdetect.sieve_membership_pairs", f, before=add("hamdetect.trials"))),
        (("hamdetect",), "batched_gf_det",
         lambda f: span("hamdetect.batched_gf_det", f,
                        before=add("hamdetect.gf_matrices", lambda a: a[1].shape[0]))),
        (("hamdetect", "PortWeights"), "draw", lambda f: span("hamdetect.PortWeights.draw", f)),
        (("hamdetect",), "make_binary_field", lambda f: span("algebra.make_binary_field", f)),
        (("branchings",), "make_binary_field", lambda f: span("algebra.make_binary_field", f)),
        (("branchings",), "detect_k_internal", lambda f: span("branchings.detect_k_internal", f)),
        (("branchings", "_InternalSieveEngine"), "det_batch",
         lambda f: span("branchings.det_batch", f,
                        before=add("branchings.internal_trials", lambda a: a[1].shape[2]))),
        (("branchings",), "solve_nk_dv", lambda f: span("branchings.solve_nk_dv", f)),
        (("branchings",), "batched_modp_det",
         lambda f: span("branchings.batched_modp_det", f,
                        before=add("branchings.modp_matrices", lambda a: a[0].shape[0]))),
        (("branchings",), "interpolate_univariate",
         lambda f: span("algebra.interpolate_univariate", f)),
    ]
