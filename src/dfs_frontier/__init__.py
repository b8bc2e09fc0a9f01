"""Deterministic DFS exploration of G(n,p) in the Bernoulli pair-query
model: a transparent reference engine, a Fenwick-indexed fast engine, and
diagnostics for the supercritical stack/frontier picture."""

__version__ = "0.1.0"

from .diagnostics import (AggregateReport, ComponentCensus, MetricSummary,
                          Moments, RunReport, RunResult, aggregate,
                          checkpoint_schedule, component_census,
                          default_checkpoints, reference_moments)
from .errors import ConfigError, InvariantViolation, StreamExhausted
from .fast_engine import TIndex, run_fast
from .oracle import (equivalence_sweep, exact_longest_path,
                     ledger_recompute, random_equivalence_trials)
from .randomness import (BitStream, FixedBits, Graph, Xoshiro256StarStar,
                         materialize_graph, pair_count, read_graph_file,
                         splitmix64, write_graph_file)
from .reference_engine import QueryLedger, ledger_at, run_reference

__all__ = [
    "AggregateReport", "BitStream", "ComponentCensus", "ConfigError",
    "FixedBits", "Graph", "InvariantViolation", "MetricSummary", "Moments",
    "QueryLedger", "RunReport", "RunResult", "StreamExhausted", "TIndex",
    "Xoshiro256StarStar", "aggregate", "checkpoint_schedule",
    "component_census", "default_checkpoints", "equivalence_sweep",
    "exact_longest_path", "ledger_at", "ledger_recompute",
    "materialize_graph", "pair_count", "random_equivalence_trials",
    "read_graph_file", "reference_moments", "run_fast", "run_reference",
    "splitmix64", "write_graph_file",
]
