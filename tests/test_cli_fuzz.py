"""A seeded option fuzz of the CLI, in-process: every run ends in exit 0, 2 or 3.

Each command and oracle subcommand runs on tiny graphs and on malformed
files, first with each flag at and past its documented edges (the other
flags at ordinary values), then with random mixes of those values. A run
must return 0 with one JSON line on stdout, or 2 or 3 with nothing on
stdout; nothing but argparse's SystemExit may leave main, and no run may
take 2 s. A run that does is a fault of the program: the bounds stay.

--trials is drawn only from -1 to 100. Neither detect-hc nor
detect-k-internal caps its trial count, so a NO at --trials 10^12 runs
every trial and does not end in any time bound; that waits for the trial
cap of ROADMAP.md item 13 (stage 0).
"""

import json
import random
import time

from conftest import complete_digraph, directed_cycle, directed_path, out_star, random_digraph
from hamkit.cli import main as cli_main

RUN_SECONDS = 2.0
TOTAL_SECONDS = 15.0
RANDOM_RUNS = 600
EDGE_GRAPHS = 3
HUGE = "1" + "0" * 30

# malformed or edge-case graph files, as text
BAD_FILES = {
    "empty": "",
    "comment-only": "# nothing\n\n",
    "one-field-header": "3\n",
    "word-header": "a b\n",
    "zero-vertices": "0 0\n",
    "negative-arcs": "2 -1\n",
    "self-loop": "2 1\n0 0\n",
    "id-out-of-range": "2 1\n0 5\n",
    "negative-id": "2 1\n-1 0\n",
    "three-field-arc": "2 1\n0 1 2\n",
    "word-arc": "2 1\n0 x\n",
    "too-few-arcs": "3 2\n0 1\n",
    "too-many-arcs": "2 1\n0 1\n1 0\n",
    "duplicate-arc": "3 4\n0 1\n0 1\n1 2\n2 0\n",
    "past-the-cap": "513 0\n",
    "huge-header": "50000000 0\n",
    "huge-arc-count": f"3 {HUGE}\n0 1\n",
    "single-vertex": "1 0\n",
}

# each flag's values at and past its documented edges, in the CLI's own syntax
EDGES = {
    "--p": ["0", "1", "2", "3", "4", str(2**61 - 1), "-3", "x"],
    "--k": ["0", "1", "2", "3", "6", "7", HUGE, "-1", "1.5"],
    "--lambda": ["0", "1", "nan", "inf", "-inf", "0.3", "0.999"],
    "--mode": ["naive", "mitm", "fast"],
    "--d": ["1", "9/8", "2", "1e4299", "0.5e4300", "1e4300", "1e5000000", "1e-5000000", "1/0", "abc"],
    "--budget": ["0", "1", "17", "4096", "4097", "-1", "x"],
    "--seed": ["0", "7", "-5", "1.5", "abc", "1" + "0" * 40],
    "--root": ["0", "1", "-1", "{n}", "99", HUGE],
    "--s": ["0", "1", "-1", "{n}", HUGE],
    "--t": ["0", "1", "-1", "{n}", HUGE],
    "--threads": ["1", "2", "0", "-1", "abc"],
    "--trials": ["-1", "0", "1", "2", "100"],
}

# argv head and the flags each command takes, each with its ordinary value,
# used while another flag is at its edge (None: left out then)
COMMANDS = {
    ("count-branchings",): {"--root": "0"},
    ("count-mod",): {"--p": "3", "--k": None, "--lambda": None, "--mode": None},
    ("count-exact",): {"--d": "9/8"},
    ("count-avg-degree",): {},
    ("detect-hc",): {"--trials": None},
    ("detect-k-internal",): {"--k": "2", "--trials": "5"},
    ("detect-k-leaf",): {"--k": "2", "--budget": None},
    ("oracle", "hc-count"): {},
    ("oracle", "hp-count"): {"--s": "0", "--t": "1"},
    ("oracle", "branchings"): {"--root": "0"},
    ("oracle", "mis"): {},
    ("oracle", "k-internal"): {"--k": "2"},
    ("oracle", "k-leaf"): {"--k": "2"},
}
COMMON = {"--seed": None, "--threads": None}


def graph_files(tmp_path, rnd):
    """(path, n) of every graph the fuzz reads: tiny graphs, bad files, missing paths.

    The first EDGE_GRAPHS are the ones every flag's edges run on.
    """
    graphs = [directed_cycle(5), complete_digraph(4), random_digraph(rnd, 6, 0.5),
              directed_path(4), out_star(5), directed_cycle(2)]
    graphs += [random_digraph(rnd, n, 0.5) for n in (1, 2, 3, 4, 5, 6)]
    files = []
    for i, g in enumerate(graphs):
        path = tmp_path / f"g{i}.txt"
        path.write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in sorted(g.arcs)),
                        encoding="utf-8")
        files.append((str(path), g.n))
    for name, text in BAD_FILES.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        files.append((str(path), 3))
    latin = tmp_path / "latin1.txt"
    latin.write_bytes(b"2 1\n0 1\xff\n")
    files += [(str(latin), 2), (str(tmp_path / "missing.txt"), 3), (str(tmp_path), 3)]
    return files


def edge_runs(files):
    """Every command on every file, and each of its flags at each edge value on the first EDGE_GRAPHS."""
    for head, flags in COMMANDS.items():
        ordinary = {flag: value for flag, value in flags.items() if value is not None}
        for path, _ in files:
            yield [*head, path, *sum(ordinary.items(), ())]
        for path, n in files[:EDGE_GRAPHS]:
            for flag in [*flags, *COMMON]:
                for value in EDGES[flag]:
                    argv = {**ordinary, flag: value.format(n=n)}
                    yield [*head, path, *sum(argv.items(), ())]


def random_runs(files, rnd):
    """RANDOM_RUNS argvs: a random command on a random file, each flag kept or dropped at random."""
    heads = list(COMMANDS)
    for _ in range(RANDOM_RUNS):
        head = rnd.choice(heads)
        path, n = rnd.choice(files)
        argv = [*head, path]
        for flag, ordinary in [*COMMANDS[head].items(), *COMMON.items()]:
            if ordinary is None and rnd.random() < 0.5:
                continue
            value = ordinary if ordinary is not None and rnd.random() < 0.3 else rnd.choice(EDGES[flag])
            if flag == "--trials" and rnd.random() < 0.5:
                value = str(rnd.randint(-1, 100))
            argv += [flag, value.format(n=n)]
        yield argv


def run(argv, capsys):
    try:
        code = cli_main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out, _ = capsys.readouterr()
    return code, out


def test_option_fuzz(tmp_path, capsys):
    rnd = random.Random(5701)
    files = graph_files(tmp_path, rnd)
    runs = [*edge_runs(files), *random_runs(files, rnd)]
    started = time.perf_counter()
    slow = []
    codes = {head: set() for head in COMMANDS}
    for argv in runs:
        t0 = time.perf_counter()
        code, out = run(argv, capsys)
        took = time.perf_counter() - t0
        assert code in (0, 2, 3), (argv, code)
        codes[tuple(argv[: 2 if argv[0] == "oracle" else 1])].add(code)
        if code == 0:
            (line,) = out.splitlines()
            assert json.loads(line)["command"] == argv[0], argv
        else:
            assert out == "", argv
        if took >= RUN_SECONDS:
            slow.append((round(took, 2), argv))
    assert not slow, slow
    assert time.perf_counter() - started < TOTAL_SECONDS
    # every command reaches all three outcomes, so no command is fuzzed by usage errors alone
    assert all(seen == {0, 2, 3} for seen in codes.values()), codes
