"""Golden outputs: sha256 digests of whole runs, a sweep, a graph file, the
equivalence summary and the reference engine's own outputs, so that a
refactor cannot change a byte of them unnoticed. The command-line digests
were taken from the native kernel; the smaller run and the graph file are
checked on the Python loops too."""

import hashlib
import itertools

import numpy as np

from dfs_frontier import cli
from dfs_frontier.randomness import (BitStream, FixedBits, materialize_graph,
                                     pair_count, write_graph_file)
from dfs_frontier.reference_engine import run_reference

RUN_N1E6 = (["run", "--n", "1000000", "--epsilon", "0.1", "--seed", "7"], {
    "report.json":
        "0c2aaec3aca2d0d7501015cd111736608c5f2d3f6fa54eb11673584bd07b91bb",
    "trajectory.csv":
        "bfc0bc0cebc6bbe68a7eebb2f8d44542f7358e15a5a71a76de2dc094914bf15c",
})
RUN_N2E4 = (["run", "--n", "20000", "--epsilon", "0.1", "--seed", "7",
             "--checkpoint-stride", "100000"], {
    "report.json":
        "2e53423faaf578d045559d22036b8564c014863ee4c9542cbc0c95579bb7861c",
    "trajectory.csv":
        "ff40e6df831016516fdaf9c7589dbc3858bcef78ecca84b59e8126edde8127f1",
})
GRAPH_N2000 = \
    "172aba022bb610299bff62734667bb989f4a56eb434c29c3d59b5c71d268d44b"
SWEEP_N2000 = (["sweep", "--n", "2000", "--epsilon", "0.05,0.1,0.2",
                "--seeds", "2", "--seed", "7"],
    "e35f0d76fe240e603a90cbd3d97b6cc6aa157c2de42ba6aa620bc0ec2c10c916")
EQUIVALENCE_STDOUT = \
    "4f0e43d118ff5c19efd5b118dd814e53a32266b570bcaf6f2a273a2b5fdc8c84"
REFERENCE_RUNS = \
    "fefbf48248ee82fbc41b836d0e65ee98e8be00f95d2751868681c32d88d8a64a"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_digests(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return {name: sha256((out / name).read_bytes()) for name in
            ("report.json", "trajectory.csv")}


def tree_digest(root, skip):
    """One sha256 over the sorted (relative path, file digest) pairs of
    every file under root except those named in skip."""
    h = hashlib.sha256()
    files = sorted(p.relative_to(root).as_posix()
                   for p in root.rglob("*") if p.is_file())
    for rel in files:
        if rel not in skip:
            h.update(rel.encode() + b"\0")
            h.update(hashlib.sha256((root / rel).read_bytes()).digest())
    return h.hexdigest()


def graph_digest(path):
    write_graph_file(materialize_graph(2000, 1.1 / 2000, 7), path)
    return sha256(path.read_bytes())


def reference_runs():
    """run_reference on every bit script at n <= 4, three stream runs and
    five graphs; `equivalence` compares graph mode only."""
    for n in (2, 3, 4):
        for bits in itertools.product((0, 1), repeat=pair_count(n)):
            yield run_reference(n, FixedBits(bits), realize=True,
                                checkpoints=range(pair_count(n) + 1))
    yield run_reference(200, BitStream(11, 2 / 200), epsilon=0.1,
                        checkpoints=range(0, pair_count(200) + 1, 97))
    for seed in range(5):
        yield run_reference(64, BitStream(seed, 1.5 / 64), realize=True,
                            checkpoints=range(pair_count(64) + 1))
        yield run_reference(300, materialize_graph(300, 1.1 / 300, seed))


def reference_digest():
    """One sha256 over each run's event log, samples, report and realized
    CSR, in run order. The CSR is hashed as int64 values, so the digest
    pins its entries, not the width it is stored in."""
    h = hashlib.sha256()
    for res in reference_runs():
        h.update(repr(res.event_log).encode())
        h.update(res.samples.tobytes())
        h.update(res.report.to_json().encode())
        if res.realized_graph is not None:
            h.update(res.realized_graph.indptr.astype(np.int64).tobytes())
            h.update(res.realized_graph.nbrs.astype(np.int64).tobytes())
    return h.hexdigest()


def test_run_n1e6(tmp_path):
    argv, want = RUN_N1E6
    assert run_digests(argv, tmp_path) == want


def test_run_n2e4(tmp_path, python_loops):
    argv, want = RUN_N2E4
    assert run_digests(argv, tmp_path / "default") == want
    assert python_loops(run_digests, argv, tmp_path / "python") == want


def test_sweep_n2000(tmp_path):
    # sweep_meta.json carries a timestamp; every other file is pinned.
    argv, want = SWEEP_N2000
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert tree_digest(tmp_path, {"sweep_meta.json"}) == want


def test_graph_file(tmp_path, python_loops):
    assert graph_digest(tmp_path / "default.txt") == GRAPH_N2000
    assert python_loops(graph_digest, tmp_path / "python.txt") == GRAPH_N2000


def test_equivalence_stdout(capsys):
    argv = ["equivalence", "--n-max", "5", "--random-trials", "50",
            "--seed", "7"]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == EQUIVALENCE_STDOUT


def test_reference_runs():
    assert reference_digest() == REFERENCE_RUNS
