"""Command-line interface: seeded runs, sweeps, verification, equivalence.

Commands:

* run          - one seeded run, JSON report (plus trajectory CSV with --out)
* sweep        - (n, epsilon) cells x seeds, per-run reports and aggregates
* verify       - acceptance table over previously written report JSONs
* equivalence  - exhaustive and randomized engine comparison

Every command is deterministic in (flags, base seed); re-running a sweep
reproduces the directory byte for byte except sweep_meta.json, the one file
that carries a timestamp.

Exit codes: 0 success/pass, 1 verify or equivalence failure, 2 usage or
configuration error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .diagnostics import (RunReport, aggregate, atomic_write_text,
                          checkpoint_schedule, write_aggregate_csv,
                          write_seed_table_csv, write_trajectory_csv)
from .errors import ConfigError, InvariantViolation
from .fast_engine import run_fast
from .oracle import (RANDOM_SIZES, equivalence_sweep,
                     random_equivalence_trials)
from .randomness import materialize_graph

MAX_SEED = (1 << 64) - 1
EPSILON_DESIGN_BAND = 0.5


@dataclass
class RunConfig:
    """One run's configuration: exactly one of epsilon and p is given."""
    n: int
    epsilon: float | None
    p: float | None
    seed: int
    checkpoint_stride: int | None = None

    @property
    def edge_probability(self):
        """p as given, or p = (1 + epsilon) / n: the single place the
        duality is computed; the report echoes it."""
        if self.epsilon is None:
            return self.p
        return (1.0 + self.epsilon) / self.n

    def validate(self):
        """Check the fields and return self. Changes nothing, so a config
        validates, and runs, any number of times."""
        if self.n < 1:
            raise ConfigError(f"n must be >= 1, got {self.n}")
        if (self.epsilon is None) == (self.p is None):
            raise ConfigError("exactly one of epsilon and p must be given")
        if self.epsilon is not None:
            if not 0.0 < self.epsilon < 1.0:
                raise ConfigError(
                    f"epsilon must be in (0, 1), got {self.epsilon!r}")
        p = self.edge_probability
        if not 0.0 <= p <= 1.0:
            raise ConfigError(f"p must be in [0, 1], got {p!r}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ConfigError(f"seed must be a 64-bit integer, got {self.seed}")
        if self.checkpoint_stride is not None and self.checkpoint_stride < 1:
            raise ConfigError(
                f"checkpoint stride must be >= 1, got {self.checkpoint_stride}")
        return self


def _warn_design_band(epsilon):
    """One stderr line when epsilon is past the design band; `run` calls it
    once, `sweep` once per cell."""
    if epsilon is not None and epsilon > EPSILON_DESIGN_BAND:
        print(f"warning: epsilon={epsilon} is outside the design band "
              f"(0, {EPSILON_DESIGN_BAND}]; the supercritical "
              "approximations degrade", file=sys.stderr)


def execute_run(config):
    """Materialize the graph for `config` and run the fast engine.

    Returns (RunReport, samples). An epsilon whose reference moment m2 does
    not fit in the pair space is a ConfigError, as is a stride that yields
    too many checkpoints.
    """
    cfg = config.validate()
    cps = checkpoint_schedule(cfg.n, cfg.epsilon, cfg.checkpoint_stride)
    p = cfg.edge_probability
    graph = materialize_graph(cfg.n, p, cfg.seed)
    res = run_fast(graph, cps, epsilon=cfg.epsilon, p=p, seed=cfg.seed)
    return res.report, res.samples


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def cmd_run(args):
    cfg = RunConfig(n=args.n, epsilon=args.epsilon, p=args.p,
                    seed=args.seed, checkpoint_stride=args.checkpoint_stride)
    _warn_design_band(cfg.validate().epsilon)
    report, samples = execute_run(cfg)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        report_path = os.path.join(args.out, "report.json")
        atomic_write_text(report_path, report.to_json())
        write_trajectory_csv(samples, os.path.join(args.out, "trajectory.csv"))
        print(f"wrote {report_path} and trajectory.csv "
              f"({len(samples)} checkpoints)")
    else:
        sys.stdout.write(report.to_json())
    return 0


def cmd_sweep(args):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    cells = [(n, eps) for n in args.n for eps in args.epsilon]
    total = len(cells) * args.seeds
    if total > args.budget:
        raise ConfigError(
            f"sweep of {len(cells)} cells x {args.seeds} seeds = {total} "
            f"runs exceeds the budget of {args.budget}; raise --budget "
            "to confirm")
    # Every check that can fail runs before the first run starts. Runs go
    # in sorted cell order, and each report is written as it arrives.
    configs, dirs = [], []
    for n, eps in sorted(cells):
        configs += [RunConfig(n, eps, p=None, seed=args.seed + i).validate()
                    for i in range(args.seeds)]
        checkpoint_schedule(n, eps)
        name = _cell_dir_name(n, eps)
        if name in dirs:
            raise ConfigError(f"two cells map to the directory {name}; "
                              "give distinct (n, epsilon) cells")
        dirs.append(name)
        _warn_design_band(eps)

    def results():
        if args.jobs == 1:
            yield from map(execute_run, configs)
            return
        from multiprocessing import Pool
        with Pool(min(args.jobs, len(configs))) as pool:
            yield from pool.imap(execute_run, configs)
    os.makedirs(args.out, exist_ok=True)
    group = []
    for cfg, (report, _samples) in zip(configs, results()):
        cell_dir = os.path.join(args.out, _cell_dir_name(cfg.n, cfg.epsilon))
        os.makedirs(cell_dir, exist_ok=True)
        path = os.path.join(cell_dir, f"report-seed{cfg.seed}.json")
        atomic_write_text(path, report.to_json())
        group.append(report)
        if len(group) < args.seeds:
            continue
        write_seed_table_csv(group, os.path.join(cell_dir, "seeds.csv"))
        agg = aggregate(group)
        write_aggregate_csv(agg, os.path.join(cell_dir, "aggregate.csv"))
        atomic_write_text(os.path.join(cell_dir, "aggregate.json"),
                          json.dumps(agg.to_dict(), indent=2, sort_keys=True)
                          + "\n")
        print(f"cell n={cfg.n} eps={cfg.epsilon:g}: {len(group)} seeds -> "
              f"{cell_dir}")
        group = []
    # Written last: their absence marks an unfinished sweep.
    atomic_write_text(os.path.join(args.out, "plot.gnuplot"),
                      _gnuplot_script(dirs))
    meta = {"created_unix": time.time(), "package_version": __version__,
            "base_seed": args.seed, "seeds": args.seeds,
            "cells": [list(c) for c in cells]}
    atomic_write_text(os.path.join(args.out, "sweep_meta.json"),
                      json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_verify(args):
    paths = []
    for path in args.reports:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                if (root == path and "sweep_meta.json" not in files
                        and any(d.startswith("cell-") for d in dirs)):
                    raise ConfigError(f"{path}: unfinished sweep; pass its "
                                      "report files to verify them anyway")
                for name in sorted(files):
                    if name.startswith("report") and name.endswith(".json"):
                        paths.append(os.path.join(root, name))
        else:
            paths.append(path)
    if not paths:
        raise ConfigError("no report files given")
    reports = []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as f:
                reports.append(RunReport.from_json(f.read()))
        except (OSError, json.JSONDecodeError, TypeError, ConfigError) as exc:
            raise ConfigError(f"cannot read report {path}: {exc}") from exc
    rows = evaluate_criteria(reports)
    width = max(len(r.criterion) for r in rows)
    failed = False
    for row in rows:
        margin = "" if row.margin is None else f" margin={row.margin:+.6g}"
        print(f"{row.status:<4} {row.criterion:<{width}} "
              f"[{row.cell}]{margin}  {row.detail}")
        failed = failed or row.status == "FAIL"
    print(f"verify: {sum(r.status == 'PASS' for r in rows)} pass, "
          f"{sum(r.status == 'FAIL' for r in rows)} fail, "
          f"{sum(r.status == 'SKIP' for r in rows)} skip "
          f"over {len(reports)} reports")
    return 1 if failed else 0


def cmd_equivalence(args):
    if args.random_trials < 0:
        raise ConfigError(f"--random-trials must be >= 0, got {args.random_trials}")
    if not 0 <= args.seed <= MAX_SEED:
        raise ConfigError(f"seed must be a 64-bit integer, got {args.seed}")
    # Trial i draws seed + i, which must stay a 64-bit seed too.
    trials = args.random_trials * len(RANDOM_SIZES)
    if args.seed + trials - 1 > MAX_SEED:
        raise ConfigError(f"--seed {args.seed} with {trials} random trials "
                          "draws seeds past 2**64 - 1")
    res = equivalence_sweep(args.n_max, out_dir=args.out)
    print(f"enumeration to n={args.n_max}: {res.graphs_checked} graphs, "
          f"{len(res.mismatches)} mismatches")
    mismatches = res.mismatches
    if args.random_trials:
        res2 = random_equivalence_trials(trials, seed=args.seed,
                                         out_dir=args.out)
        print(f"random trials: {res2.graphs_checked} graphs "
              f"({args.random_trials} per size in {list(RANDOM_SIZES)}), "
              f"{len(res2.mismatches)} mismatches")
        mismatches = res.mismatches + res2.mismatches
    for entry in mismatches[:5]:
        print(f"mismatch {entry['label']}: {entry['mismatches'][0]}")
    return 1 if mismatches else 0


# ----------------------------------------------------------------------
# verification rows
# ----------------------------------------------------------------------

@dataclass
class CriterionRow:
    criterion: str
    cell: str
    status: str        # PASS | FAIL | SKIP
    margin: float | None
    detail: str


def _row(criterion, cell, ok, margin, detail):
    return CriterionRow(criterion, cell, "PASS" if ok else "FAIL",
                        margin, detail)


def evaluate_criteria(reports):
    """Acceptance table over run reports, grouped into (n, epsilon) cells.

    Pure over the report contents: nothing is re-simulated. Rows whose
    inputs are absent (no epsilon, missing checkpoint fields) come out SKIP.
    Thresholds follow the package acceptance suite; the fraction rule for
    the per-seed ledger bracket is ceil(0.95 k) of k seeds.
    """
    cells = {}
    for r in reports:
        key = (r.config.get("n"), r.config.get("epsilon"))
        cells.setdefault(key, []).append(r)
    rows = []
    stack_devs = {}
    for (n, eps), group in sorted(
            cells.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0.0)):
        k = len(group)
        cell = f"n={n} eps={eps} seeds={k}"
        if eps is None:
            rows.append(CriterionRow("stack_at_m1", cell, "SKIP", None,
                                     "config has no epsilon"))
            continue
        e2n = eps * eps * n
        e3n = eps ** 3 * n
        fluct = math.sqrt(math.log(n) / n)

        us = [r.u_at_m1 for r in group if r.u_at_m1 is not None]
        if us:
            mean_u = math.fsum(us) / len(us)
            dev = abs(mean_u / e2n - 1.0)
            stack_devs[eps] = dev
            rows.append(_row("stack_at_m1", cell, dev <= 5 * eps,
                             5 * eps - dev,
                             f"mean u_at_m1={mean_u:.1f}, eps^2 n={e2n:.1f}, "
                             f"deviation={dev:.4f}"))
        else:
            rows.append(CriterionRow("stack_at_m1", cell, "SKIP", None,
                                     "no u_at_m1 in reports"))

        mxs = [r.max_U for r in group if r.max_U is not None]
        if mxs:
            mean_mx = math.fsum(mxs) / len(mxs)
            dev = abs(mean_mx / e2n - 1.0)
            rows.append(_row("max_stack", cell, dev <= 5 * eps,
                             5 * eps - dev,
                             f"mean max_U={mean_mx:.1f}, deviation={dev:.4f}"))
        pair_ok = [r for r in group
                   if r.longest_forest_path is not None and r.max_U is not None]
        if pair_ok:
            worst = min(r.longest_forest_path - (r.max_U - 1) for r in pair_ok)
            bad = sum(r.longest_forest_path < r.max_U - 1 for r in pair_ok)
            rows.append(_row("forest_path_vs_stack", cell, bad == 0,
                             float(worst),
                             f"min(longest_forest_path - (max_U - 1)) = {worst}"))

        brk = [r for r in group
               if r.u_at_m1 is not None and r.q_UT_at_m1 is not None]
        if brk:
            need = math.ceil(0.95 * len(brk))
            ok_n = sum(
                (r.u_at_m1 / 2 - 8 * e3n <= r.q_UT_at_m1 / n
                 <= (1 + eps) * r.u_at_m1 / 2) for r in brk)
            rows.append(_row("ledger_bracket", cell, ok_n >= need,
                             float(ok_n - need),
                             f"{ok_n}/{len(brk)} seeds inside, "
                             f"need {need}"))
            resid = max(abs(r.u_at_m1 - (e2n / 2 + r.q_UT_at_m1 / n))
                        for r in brk)
            rows.append(_row("stack_identity", cell, resid <= 10 * e3n,
                             10 * e3n - resid,
                             f"worst |u - (eps^2 n/2 + q_UT/n)| = {resid:.2f}, "
                             f"bound {10 * e3n:.2f}"))

        exs = [r.excess_total for r in group if r.excess_total is not None]
        if exs:
            worst = max(exs)
            rows.append(_row("excess_bound", cell, worst <= 6 * e3n,
                             6 * e3n - worst,
                             f"max excess_total={worst}, bound {6 * e3n:.2f}"))

        t1s = [r.T_p_at_m1 for r in group if r.T_p_at_m1 is not None]
        if t1s:
            lo = 1 + eps ** 3 - 5 * fluct
            worst = min(t1s)
            rows.append(_row("criticality_m1", cell, worst >= lo,
                             worst - lo,
                             f"min T_p_at_m1={worst:.6f}, bound {lo:.6f}"))
        t2s = [r.T_p_at_m2 for r in group if r.T_p_at_m2 is not None]
        if t2s:
            hi = 1 - eps ** 4 + 4 * fluct
            worst = max(t2s)
            rows.append(_row("criticality_m2", cell, worst <= hi,
                             hi - worst,
                             f"max T_p_at_m2={worst:.6f}, bound {hi:.6f}"))

        fgs = [r.first_giant_entry_m for r in group
               if r.first_giant_entry_m is not None]
        if fgs:
            # eps-refined onset budget: the plain n ln^2 n guard has a fat
            # per-seed tail at fixed eps (large non-giant components can
            # precede the giant in label order).
            headline = n * math.log(n) ** 2
            bound = headline / eps
            worst = max(fgs)
            inside = sum(f <= headline for f in fgs)
            rows.append(_row("giant_onset", cell, worst <= bound,
                             bound - worst,
                             f"max first_giant_entry_m={worst}, bound "
                             f"{bound:.3e} ({inside}/{len(fgs)} under the "
                             f"headline {headline:.3e})"))
    if len(stack_devs) >= 2:
        lo_eps = min(stack_devs)
        hi_eps = max(stack_devs)
        ok = stack_devs[lo_eps] < stack_devs[hi_eps]
        rows.append(_row("stack_trend", f"eps={lo_eps} vs eps={hi_eps}", ok,
                         stack_devs[hi_eps] - stack_devs[lo_eps],
                         f"deviation {stack_devs[lo_eps]:.4f} at "
                         f"eps={lo_eps} vs {stack_devs[hi_eps]:.4f} at "
                         f"eps={hi_eps}"))
    else:
        rows.append(CriterionRow("stack_trend", "all cells", "SKIP", None,
                                 "needs at least two epsilon cells"))
    return rows


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

def _cell_dir_name(n, eps):
    return f"cell-n{n}-eps{eps:g}"


def _gnuplot_script(cell_dirs):
    lines = ["# per-seed scatter of headline metrics; run from the sweep dir",
             "set datafile separator comma",
             "set key autotitle columnhead",
             "set terminal pngcairo size 900,600"]
    for d in cell_dirs:
        for metric in ("u_at_m1", "max_U", "excess_total"):
            lines.append(f'set output "{d}-{metric}.png"')
            lines.append(f'plot "{d}/seeds.csv" using "seed":"{metric}" '
                         f'with points pt 7 title "{d} {metric}"')
    return "\n".join(lines) + "\n"


def _int_list(text):
    return [int(x) for x in text.split(",") if x]


def _float_list(text):
    return [float(x) for x in text.split(",") if x]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dfs-frontier",
        description="Deterministic DFS exploration of G(n,p) in the "
                    "pair-query model, with diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="one seeded run")
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--epsilon", type=float)
    p_run.add_argument("--p", type=float)
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--checkpoint-stride", type=int)
    p_run.add_argument("--out", help="directory for report.json and "
                                     "trajectory.csv (default: stdout)")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="seeded sweep over cells")
    p_sweep.add_argument("--n", type=_int_list, required=True,
                         help="comma-separated vertex counts")
    p_sweep.add_argument("--epsilon", type=_float_list, required=True,
                         help="comma-separated epsilons")
    p_sweep.add_argument("--seeds", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=1,
                         help="base seed; run i uses base + i")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=1)
    p_sweep.add_argument("--budget", type=int, default=200,
                         help="maximum total runs")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="acceptance table over reports")
    p_verify.add_argument("reports", nargs="+",
                          help="report JSON files or sweep directories")
    p_verify.set_defaults(func=cmd_verify)

    p_eq = sub.add_parser("equivalence", help="engine comparison")
    p_eq.add_argument("--n-max", type=int, default=5)
    p_eq.add_argument("--random-trials", type=int, default=0,
                      help=f"random graphs per size in {list(RANDOM_SIZES)}")
    p_eq.add_argument("--seed", type=int, default=1)
    p_eq.add_argument("--out", help="directory for mismatch bundles")
    p_eq.set_defaults(func=cmd_equivalence)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        context = getattr(exc, "context", None)
        if context:
            print(f"context: {context}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
