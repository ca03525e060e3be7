"""The measured process: one client calling hamkit.cli.main in a closed loop.

Usage: python3 runner.py MANIFEST RESULTS

MANIFEST (written by run.py) names the source tree, the warm-up ops and the
rounds of corpus ops. The runner imports hamkit, runs the warm-up, and
reports that as its set-up time; unless the manifest asks for set-up only,
it then runs every op in order, each starting when the previous one has
returned, and writes per-op wall times and stdout to RESULTS, with the
calibration probe's time before every round and after the last. With
tracing on, every op runs twice: untraced and with layer spans installed.

Answer checks happen in run.py, after this process has exited, so they sit
outside every timed region; so does the peak RSS, which is this process's
alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def traced_call(tracer, call, argv: list[str]) -> dict:
    tracer.reset()
    tracer.install()
    try:
        rec = call(argv)
    finally:
        tracer.uninstall()
    return {**rec, **tracer.snapshot()}


def main() -> int:
    started = time.perf_counter()
    manifest_path, results_path = sys.argv[1:3]
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    from hamkit import cli

    if not os.path.abspath(cli.__file__).startswith(manifest["src"] + os.sep):
        raise SystemExit(f"imported hamkit from {cli.__file__}, not from {manifest['src']}")

    def call(argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # an op that raises is a failed op, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        rec = {"rc": rc, "out": out.getvalue(), "ms": ms}
        if rc != 0:
            rec["err"] = err.getvalue()[-2000:]
        return rec

    warmup = [call(argv) for argv in manifest["warmup"]]
    results = {"setup_s": time.perf_counter() - started, "warmup": warmup, "ops": []}
    if not manifest["setup_only"]:
        tracer = None
        if manifest["trace"]:
            from layertrace import Tracer

            tracer = Tracer()
        from calibrate import probe  # not at the top: numpy's import belongs in set-up

        deadline = time.perf_counter() + manifest["cap_s"]
        results["round_s"], results["probe_s"] = [], [probe()]
        for rnd in manifest["rounds"]:
            round_t0 = time.perf_counter()
            for op in rnd:
                if tracer is None:
                    rec = call(op["argv"])
                else:
                    # Alternate which pass goes first so neither always
                    # finds the other's warm caches.
                    if op["id"] % 2:
                        rec = call(op["argv"])
                    traced = traced_call(tracer, call, op["argv"])
                    if not op["id"] % 2:
                        rec = call(op["argv"])
                    rec["traced"] = traced
                rec["id"] = op["id"]
                results["ops"].append(rec)
            results["round_s"].append(time.perf_counter() - round_t0)
            results["probe_s"].append(probe())
            if time.perf_counter() > deadline:
                break
        results["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
