"""CLI tests: config validation, exit codes, artifact layout, determinism,
and the verify table. Everything but the import check drives
cli.main(argv) in-process."""

import argparse
import json
import os
import shlex
import subprocess
import sys
import sysconfig

import numpy as np
import pytest

from dfs_frontier import cli
from dfs_frontier.cli import (RunConfig, build_parser, evaluate_criteria,
                              execute_run, main)
from dfs_frontier.diagnostics import RunReport
from dfs_frontier.errors import ConfigError, InvariantViolation
from dfs_frontier.oracle import SweepResult


class TestRunConfig:
    def test_epsilon_derives_p(self):
        cfg = RunConfig(n=60, epsilon=0.2, p=None, seed=1).validate()
        assert cfg.edge_probability == pytest.approx(1.2 / 60)
        assert RunConfig(n=60, epsilon=None, p=0.03,
                         seed=1).edge_probability == 0.03

    def test_exactly_one_of_epsilon_p(self):
        with pytest.raises(ConfigError):
            RunConfig(n=60, epsilon=0.2, p=0.02, seed=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(n=60, epsilon=None, p=None, seed=1).validate()

    def test_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(n=0, epsilon=0.1, p=None, seed=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(n=10, epsilon=1.5, p=None, seed=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(n=10, epsilon=None, p=1.5, seed=1).validate()
        with pytest.raises(ConfigError):
            RunConfig(n=10, epsilon=0.1, p=None, seed=1 << 64).validate()
        with pytest.raises(ConfigError):
            RunConfig(n=10, epsilon=0.1, p=None, seed=1,
                      checkpoint_stride=0).validate()

    def test_design_band_warns_but_accepts(self, capsys):
        # validate() accepts quietly; the command prints the warning once.
        cfg = RunConfig(n=100, epsilon=0.7, p=None, seed=1).validate()
        assert cfg.edge_probability == pytest.approx(1.7 / 100)
        assert capsys.readouterr().err == ""
        assert main(["run", "--n", "100", "--epsilon", "0.7"]) == 0
        assert capsys.readouterr().err.count("design band") == 1


class TestRunCommand:
    def test_stdout_json(self, capsys):
        rc = main(["run", "--n", "60", "--epsilon", "0.2", "--seed", "5"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"] == {"n": 60, "epsilon": 0.2,
                                    "p": pytest.approx(1.2 / 60),
                                    "seed": 5, "engine": "fast"}
        assert report["max_U"] >= 1

    def test_out_dir_and_deterministic_rerun(self, tmp_path, capsys):
        args = ["run", "--n", "80", "--epsilon", "0.15", "--seed", "3",
                "--checkpoint-stride", "40"]
        d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", d1]) == 0
        assert main(args + ["--out", d2]) == 0
        capsys.readouterr()
        for name in ("report.json", "trajectory.csv"):
            with open(os.path.join(d1, name)) as f1, \
                    open(os.path.join(d2, name)) as f2:
                assert f1.read() == f2.read(), name
        traj = open(os.path.join(d1, "trajectory.csv")).read().splitlines()
        assert traj[0] == "m,size_S,size_U,size_T,q_ST,q_SU,q_UT"
        assert len(traj) > 3  # stride 40 yields many interior checkpoints
        # A run directory has no cells: verify reads its report.
        assert main(["verify", d1]) == 1
        assert "over 1 reports" in capsys.readouterr().out

    def test_both_epsilon_and_p_exits_2(self, capsys):
        rc = main(["run", "--n", "60", "--epsilon", "0.2", "--p", "0.02"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--checkpoint-stride", "1"]])
    def test_infeasible_reference_moments_exit_2(self, capsys, extra):
        # m2 = 10 of n = 5, eps = 0.9 does not fit in the 10 pairs (m2 must
        # be below C(n, 2)); the rule is the same with and without a stride.
        rc = main(["run", "--n", "5", "--epsilon", "0.9", *extra])
        assert rc == 2
        assert "does not fit in the pair space" in capsys.readouterr().err

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--epsilon", "0.2"])  # --n is required
        assert exc.value.code == 2
        capsys.readouterr()

    def test_invariant_violation_exits_3(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolation("ledger out of balance",
                                     context={"m": 17})

        monkeypatch.setattr(cli, "run_fast", broken)
        rc = main(["run", "--n", "60", "--epsilon", "0.2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "invariant violation" in err and "'m': 17" in err


class TestSweepCommand:
    def sweep(self, out, extra=()):
        return main(["sweep", "--n", "60", "--epsilon", "0.2,0.3",
                     "--seeds", "2", "--seed", "9", "--out", out,
                     *extra])

    def test_layout(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert self.sweep(out) == 0
        capsys.readouterr()
        cells = sorted(d for d in os.listdir(out)
                       if d.startswith("cell-"))
        assert cells == ["cell-n60-eps0.2", "cell-n60-eps0.3"]
        for cell in cells:
            files = sorted(os.listdir(os.path.join(out, cell)))
            assert files == ["aggregate.csv", "aggregate.json",
                             "report-seed10.json", "report-seed9.json",
                             "seeds.csv"]
        meta = json.load(open(os.path.join(out, "sweep_meta.json")))
        assert meta["base_seed"] == 9 and meta["seeds"] == 2
        assert meta["cells"] == [[60, 0.2], [60, 0.3]]
        assert os.path.exists(os.path.join(out, "plot.gnuplot"))

    def test_seed_derivation(self, tmp_path, capsys):
        out = str(tmp_path / "sweep")
        assert self.sweep(out) == 0
        capsys.readouterr()
        path = os.path.join(out, "cell-n60-eps0.2", "report-seed10.json")
        report = json.loads(open(path).read())
        assert report["config"]["seed"] == 10  # base 9 + index 1

    def test_rerun_is_byte_identical_modulo_meta(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        assert self.sweep(out1, ["--jobs", "2"]) == 0
        assert self.sweep(out2) == 0
        capsys.readouterr()
        for root, _dirs, files in os.walk(out1):
            rel = os.path.relpath(root, out1)
            for name in files:
                a = os.path.join(root, name)
                b = os.path.join(out2, rel, name)
                if name == "sweep_meta.json":
                    ma = json.load(open(a))
                    mb = json.load(open(b))
                    ma.pop("created_unix"), mb.pop("created_unix")
                    assert ma == mb
                else:
                    assert open(a).read() == open(b).read(), (rel, name)

    def test_design_band_warning_once_per_cell(self, tmp_path, capsys):
        # Two seeds of one cell past the band: one warning, not one per
        # validation of each run.
        rc = main(["sweep", "--n", "60", "--epsilon", "0.7", "--seeds", "2",
                   "--out", str(tmp_path / "sweep")])
        assert rc == 0
        err = capsys.readouterr().err
        assert [line for line in err.splitlines()
                if "design band" in line] == [
            "warning: epsilon=0.7 is outside the design band (0, 0.5]; the "
            "supercritical approximations degrade"]

    @pytest.mark.parametrize("flag", ["--seeds", "--jobs"])
    def test_zero_seeds_or_jobs_exit_2(self, tmp_path, capsys, flag):
        out = tmp_path / "x"
        rc = main(["sweep", "--n", "60", "--epsilon", "0.2", "--seeds", "1",
                   flag, "0", "--out", str(out)])
        assert rc == 2
        assert f"{flag} must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_guard(self, tmp_path, capsys):
        rc = main(["sweep", "--n", "60", "--epsilon", "0.2",
                   "--seeds", "201", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "budget" in capsys.readouterr().err
        rc = main(["sweep", "--n", "60", "--epsilon", "0.2", "--seeds", "3",
                   "--out", str(tmp_path / "y"), "--budget", "2"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("epsilon", ["0.2,0.2000001", "0.1,0.1"])
    def test_cells_sharing_a_directory_exit_2(self, tmp_path, capsys,
                                              epsilon):
        out = tmp_path / "z"
        rc = main(["sweep", "--n", "60", "--epsilon", epsilon,
                   "--seeds", "2", "--out", str(out)])
        assert rc == 2
        assert "cell-n60-eps" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_cell_rejected_before_any_run(self, tmp_path, capsys,
                                                     monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(cli, "run_fast", no_run)
        out = tmp_path / "w"
        rc = main(["sweep", "--n", "60,5", "--epsilon", "0.9",
                   "--seeds", "1", "--out", str(out)])
        assert rc == 2
        assert "does not fit in the pair space" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_keeps_finished_reports(self, tmp_path, capsys,
                                               monkeypatch):
        # The 4th of 2 cells x 2 seeds raises: the three reports before it,
        # and the first cell's tables, stay on disk as a clean sweep writes
        # them; the files written last are absent.
        clean = tmp_path / "clean"
        assert self.sweep(str(clean)) == 0
        real_run_fast = cli.run_fast
        calls = []

        def fourth_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise InvariantViolation("ledger out of balance")
            return real_run_fast(*args, **kwargs)

        monkeypatch.setattr(cli, "run_fast", fourth_fails)
        out = tmp_path / "failed"
        assert self.sweep(str(out), ["--jobs", "1"]) == 3
        capsys.readouterr()
        kept = ["cell-n60-eps0.2/report-seed9.json",
                "cell-n60-eps0.2/report-seed10.json",
                "cell-n60-eps0.3/report-seed9.json",
                "cell-n60-eps0.2/seeds.csv",
                "cell-n60-eps0.2/aggregate.csv",
                "cell-n60-eps0.2/aggregate.json"]
        assert sorted(p.relative_to(out).as_posix()
                      for p in out.rglob("*") if p.is_file()) == sorted(kept)
        for rel in kept:
            assert (out / rel).read_bytes() == (clean / rel).read_bytes()
        # verify refuses the unfinished sweep as a directory, reads its
        # report files when they are named, and reads the clean one whole.
        assert main(["verify", str(out)]) == 2
        assert ("unfinished sweep; pass its report files to verify them "
                "anyway") in capsys.readouterr().err
        assert main(["verify", *(str(out / rel) for rel in kept[:3])]) == 1
        assert "over 3 reports" in capsys.readouterr().out
        assert main(["verify", str(clean)]) == 1
        assert "over 4 reports" in capsys.readouterr().out


def passing_report(n, eps, seed, **overrides):
    # Synthetic numbers sitting comfortably inside every verify band.
    e2n = eps * eps * n
    u = int(e2n * (1 + eps / 4))
    q_per_n = u / 2 * (1 + eps) / 2 + e2n / 4  # inside the ledger bracket
    fields = dict(
        config={"n": n, "epsilon": eps, "p": (1 + eps) / n, "seed": seed,
                "engine": "fast"},
        u_at_m1=u, q_UT_at_m1=int(q_per_n * n), max_U=u + 2,
        max_U_argmax_m=1000, longest_forest_path=u + 2, excess_total=1,
        giant_size=n // 10, second_size=50, T_p_at_m1=1 + eps ** 3,
        T_p_at_m2=1 - eps ** 4, first_giant_entry_m=n,
        dfs_query_total=n * n // 4)
    fields.update(overrides)
    return RunReport(**fields)


class TestVerifyCommand:
    def write_reports(self, directory, reports):
        os.makedirs(directory, exist_ok=True)
        paths = []
        for i, rep in enumerate(reports):
            path = os.path.join(directory, f"report-{i}.json")
            with open(path, "w") as f:
                f.write(rep.to_json())
            paths.append(path)
        return paths

    def make_suite(self):
        reports = []
        for eps, dev in ((0.1, 0.01), (0.2, 0.05)):
            for seed in range(3):
                n = 1_000_000
                u = int(eps * eps * n * (1 + dev))
                reports.append(passing_report(n, eps, seed, u_at_m1=u,
                                              max_U=u + 2,
                                              longest_forest_path=u + 2))
        return reports

    def test_passing_set(self, tmp_path, capsys):
        d = str(tmp_path / "reports")
        self.write_reports(d, self.make_suite())
        rc = main(["verify", d])
        out = capsys.readouterr().out
        assert rc == 0
        assert "FAIL" not in out
        assert out.count("PASS stack_at_m1") == 2  # one row per cell
        assert "PASS stack_trend" in out
        assert "0 fail" in out

    def test_failing_excess(self, tmp_path, capsys):
        reports = self.make_suite()
        # 7 eps^3 n at the eps=0.1 cell breaks the 6 eps^3 n excess bound.
        reports[0].excess_total = int(7 * 0.1 ** 3 * 1_000_000)
        d = str(tmp_path / "reports")
        self.write_reports(d, reports)
        rc = main(["verify", d])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL excess_bound" in out

    def test_trend_needs_two_cells(self, tmp_path, capsys):
        reports = [r for r in self.make_suite()
                   if r.config["epsilon"] == 0.1]
        d = str(tmp_path / "reports")
        self.write_reports(d, reports)
        assert main(["verify", d]) == 0
        assert "SKIP stack_trend" in capsys.readouterr().out

    def test_explicit_file_paths(self, tmp_path, capsys):
        paths = self.write_reports(str(tmp_path), self.make_suite())
        assert main(["verify", *paths]) == 0
        capsys.readouterr()

    def test_empty_dir_exits_2(self, tmp_path, capsys):
        d = str(tmp_path / "empty")
        os.makedirs(d)
        assert main(["verify", d]) == 2
        capsys.readouterr()

    def test_p_only_report_skips_stack_rows(self, tmp_path, capsys):
        d = str(tmp_path / "run")
        assert main(["run", "--n", "2000", "--p", "0.0006", "--seed", "1",
                     "--out", d]) == 0
        capsys.readouterr()
        assert main(["verify", d]) == 0
        out = capsys.readouterr().out
        assert ("SKIP stack_at_m1 [n=2000 eps=None seeds=1]  config has no "
                "epsilon") in out
        assert "PASS" not in out and "FAIL" not in out

    def test_garbage_report_exits_2(self, tmp_path, capsys):
        path = str(tmp_path / "report-bad.json")
        with open(path, "w") as f:
            f.write("{not json")
        assert main(["verify", path]) == 2
        assert "cannot read report" in capsys.readouterr().err

    # verify cannot judge a NaN or an infinity (json writes them as NaN and
    # Infinity), and epsilon 0 or n 0 would divide by zero or take log(0).
    @pytest.mark.parametrize("field, value", [
        ("config", None), ("max_U", "12"), ("config.n", "1000000"),
        ("max_U", float("nan")), ("T_p_at_m1", float("inf")),
        ("config.epsilon", 0.0), ("config.n", 0)])
    def test_malformed_report_exits_2(self, tmp_path, capsys, field, value):
        report = passing_report(1_000_000, 0.1, 0).to_dict()
        if field.startswith("config."):
            report["config"][field[len("config."):]] = value
        else:
            report[field] = value
        path = str(tmp_path / "report-bad.json")
        with open(path, "w") as f:
            json.dump(report, f)
        assert main(["verify", path]) == 2
        err = capsys.readouterr().err
        assert f"cannot read report {path}: report {field} " in err

    def test_margin_direction(self):
        rows = evaluate_criteria(self.make_suite())
        by_name = {}
        for row in rows:
            by_name.setdefault(row.criterion, []).append(row)
        for name, group in by_name.items():
            for row in group:
                if row.status == "PASS" and row.margin is not None:
                    assert row.margin >= 0, (name, row)


class TestEquivalenceCommand:
    def test_clean_sweep(self, capsys):
        rc = main(["equivalence", "--n-max", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "11 graphs, 0 mismatches" in out

    def test_random_trials_flag(self, capsys):
        rc = main(["equivalence", "--n-max", "2", "--random-trials", "1",
                   "--seed", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "random trials: 4 graphs" in out

    def test_trial_seeds_wrap_past_64_bits(self, capsys):
        # Only the base seed is range-checked: seed + i wraps as the
        # generator masks it.
        rc = main(["equivalence", "--n-max", "1", "--random-trials", "1",
                   "--seed", str(2**64 - 1)])
        assert rc == 0
        assert "random trials: 4 graphs" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [["--random-trials", "-1"],
                                       ["--seed", "-3"],
                                       ["--seed", str(2**64)]])
    def test_bad_flags_exit_2(self, capsys, flags):
        rc = main(["equivalence", "--n-max", "1", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == "" and "error:" in captured.err

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        fake = SweepResult(graphs_checked=3, mismatches=[
            {"label": "n2-mask1", "n": 2, "m": 1,
             "mismatches": ["report.max_U: reference=2 fast=3"]}],
            bundle_dirs=[])
        monkeypatch.setattr(cli, "equivalence_sweep",
                            lambda n_max, out_dir=None: fake)
        rc = main(["equivalence", "--n-max", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mismatch n2-mask1" in out


class TestExecuteRun:
    def test_default_checkpoints_follow_epsilon(self):
        report, samples = execute_run(
            RunConfig(n=1000, epsilon=0.1, p=None, seed=2))
        assert samples[:3, 0].tolist() == [0, 81818, 82727]
        assert report.u_at_m1 is not None

    def test_p_only_run_has_no_moment_metrics(self):
        report, samples = execute_run(
            RunConfig(n=500, epsilon=None, p=0.003, seed=2))
        assert report.u_at_m1 is None
        assert report.T_p_at_m1 is None
        assert samples[0, 0] == 0

    def test_config_runs_twice(self):
        cfg = RunConfig(n=200, epsilon=0.1, p=None, seed=4)
        report, samples = execute_run(cfg)
        again, again_samples = execute_run(cfg)
        assert again == report and np.array_equal(again_samples, samples)
        assert cfg.p is None

    def test_parser_round_trip(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--n", "100,200",
                                  "--epsilon", "0.1", "--seeds", "2",
                                  "--out", "x"])
        assert args.n == [100, 200] and args.epsilon == [0.1]


def test_cli_surface():
    # Adding, removing or renaming a flag has to change this test on purpose.
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    surface = {name: {opt for action in sub._actions
                      for opt in action.option_strings} - {"-h", "--help"}
               for name, sub in subparsers.choices.items()}
    assert surface == {
        "run": {"--n", "--epsilon", "--p", "--seed", "--checkpoint-stride",
                "--out"},
        "sweep": {"--n", "--epsilon", "--seeds", "--seed", "--out", "--jobs",
                  "--budget"},
        "verify": set(),
        "equivalence": {"--n-max", "--random-trials", "--seed", "--out"},
    }


def test_import_does_not_load_scipy(tmp_path):
    # scipy is a test-only dependency, the native kernel loads on first use
    # and only `sweep --jobs` > 1 needs multiprocessing: a fresh interpreter
    # that imports the console-script module must pull in none of them, and
    # must start no compiler.
    # Every compiler name the loader could resolve leads to a stub on PATH
    # that leaves a mark.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")[0]
    mark = tmp_path / "compiler-started"
    for name in {"cc", "gcc", os.path.basename(cc)}:
        stub = tmp_path / name
        stub.write_text(f"#!/bin/sh\ntouch {mark}\nexit 1\n")
        stub.chmod(0o755)
    code = ("import sys, dfs_frontier.cli; "
            "print('scipy' in sys.modules, "
            "'dfs_frontier._native' in sys.modules, "
            "'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src,
                                  PATH=f"{tmp_path}:{os.environ['PATH']}"))
    assert out.stdout.strip() == "False False False"
    assert not mark.exists()


# One run at n = 10^6 in a fresh interpreter; prints the rise of its peak
# RSS, in MiB, over the high-water mark once the package and its kernel
# are loaded (a process that imports scipy has paid for ctypes already).
# The peak is VmHWM, the new image's own: ru_maxrss would carry the peak of
# the launching process (here pytest) across exec.
MEMORY_PROBE = """
import sys
from dfs_frontier import _native, cli

def peak_kib():
    with open("/proc/self/status") as f:
        return next(int(line.split()[1]) for line in f
                    if line.startswith("VmHWM:"))

if _native.kernel() is None:
    sys.exit(77)
before = peak_kib()
cli.execute_run(cli.RunConfig(n=10**6, epsilon=0.1, p=None, seed=7))
print((peak_kib() - before) / 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs VmHWM from /proc/self/status")
def test_run_n1e6_memory_budget():
    # int32 labels: the CSR and the edges at half the int64 width, and no
    # per-vertex forest: the walk writes one record per tree. About 30 MiB;
    # 40 MiB with the forest, 55 MiB with int64 labels as well.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    done = subprocess.run([sys.executable, "-c", MEMORY_PROBE],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    if done.returncode == 77:
        pytest.skip("native kernel unavailable (no C compiler)")
    assert done.returncode == 0, done.stderr
    rise_mib = float(done.stdout)
    assert rise_mib <= 34, rise_mib
