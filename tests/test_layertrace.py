"""The benchmark's outside-in tracer must find every entry point it wraps."""

import importlib.util
from pathlib import Path

from conftest import directed_cycle
from hamkit import hamcount
from hamkit.hamcount import count_exact_capped

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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


def test_naive_exact_count_is_one_pass():
    tracer = load_layertrace().Tracer()
    tracer.install()
    try:
        assert count_exact_capped(directed_cycle(7), 2) == 1
    finally:
        tracer.uninstall()
    counters = tracer.counters
    assert counters["hamcount.subsets"] == 1 << 7
    assert tracer.spans["hamcount.naive_sieve_count"][2] == 1
    assert tracer.lists["naive_pass_subsets"] == [1 << 7]
    assert counters["hamcount.crt_passes"] == 0
    assert "hamcount.crt_count" not in tracer.spans
