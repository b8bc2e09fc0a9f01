"""Golden outputs: sha256 digests of whole runs, a graph file and the
equivalence summary, so that a refactor cannot change a byte of them
unnoticed. The digests were taken from the native kernel; the smaller run
and the graph file are checked on the Python loops too."""

import hashlib

from dfs_frontier import cli
from dfs_frontier.randomness import materialize_graph, write_graph_file

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
EQUIVALENCE_STDOUT = \
    "4f0e43d118ff5c19efd5b118dd814e53a32266b570bcaf6f2a273a2b5fdc8c84"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_digests(argv, out):
    assert cli.main([*argv, "--out", str(out)]) == 0
    return {name: sha256((out / name).read_bytes()) for name in
            ("report.json", "trajectory.csv")}


def graph_digest(path):
    write_graph_file(materialize_graph(2000, 1.1 / 2000, 7), path)
    return sha256(path.read_bytes())


def test_run_n1e6(tmp_path):
    argv, want = RUN_N1E6
    assert run_digests(argv, tmp_path) == want


def test_run_n2e4(tmp_path, python_loops):
    argv, want = RUN_N2E4
    assert run_digests(argv, tmp_path / "default") == want
    assert python_loops(run_digests, argv, tmp_path / "python") == want


def test_graph_file(tmp_path, python_loops):
    assert graph_digest(tmp_path / "default.txt") == GRAPH_N2000
    assert python_loops(graph_digest, tmp_path / "python.txt") == GRAPH_N2000


def test_equivalence_stdout(capsys):
    argv = ["equivalence", "--n-max", "5", "--random-trials", "50",
            "--seed", "7"]
    assert cli.main(argv) == 0
    assert sha256(capsys.readouterr().out.encode()) == EQUIVALENCE_STDOUT
