"""Performance subsystem: static-analysis caching for the simulator.

Repeated simulations of the same program (parameter sweeps, policy
ablations, Theorem-1 ensembles) share one content-keyed
:class:`AnalysisEntry` holding routes, competing-message sets, lookahead
capacities, the constraint labeling and the simulator's build plan — so
only the first run pays for static analysis. The key starts from the
program's :attr:`~repro.core.program.ArrayProgram.fingerprint`, which
covers message declaration order, so equal keys mean equal runs. Every
simulator reads an entry (a private one when it shares nothing), and a
program's default-array entry also answers its sweep shape and c*. See
:mod:`repro.perf.analysis_cache`.

The cache is one tier: the process-local LRU (:class:`AnalysisCache`).
Sweep workers are forked from the parent, so each starts with every
analysis the parent held when the sweep began.
"""

from repro.perf.analysis_cache import (
    AnalysisCache,
    AnalysisEntry,
    AnalysisKey,
    GLOBAL_ANALYSIS_CACHE,
    analysis_cache_stats,
    clear_analysis_cache,
    router_fingerprint,
    topology_fingerprint,
)


def reset_shm_cache_state() -> None:
    """No-op kept only because ``perfbench/workloads.py`` imports it.

    The shared-memory analysis tier it used to tear down is gone.
    ``perfbench/`` changes only together with its baselines; the next
    such change drops the import, and then this stub goes too.
    """


__all__ = [
    "AnalysisCache",
    "AnalysisEntry",
    "AnalysisKey",
    "GLOBAL_ANALYSIS_CACHE",
    "analysis_cache_stats",
    "clear_analysis_cache",
    "reset_shm_cache_state",
    "router_fingerprint",
    "topology_fingerprint",
]
