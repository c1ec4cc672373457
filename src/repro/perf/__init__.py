"""Performance subsystem: static-analysis caching for the simulator.

Repeated simulations of the same program (parameter sweeps, policy
ablations, Theorem-1 ensembles) share one content-keyed
:class:`AnalysisEntry` holding routes, competing-message sets, lookahead
capacities and the constraint labeling — so only the first run pays for
static analysis. See :mod:`repro.perf.analysis_cache`.

Lookups resolve through two tiers, cheapest first:

1. **memory** — the process-local LRU (:class:`AnalysisCache`). Sweep
   workers are forked from the parent, so each starts with every
   analysis the parent held when the sweep began;
2. **disk** — the persistent tier (:mod:`repro.perf.disk_cache`):
   export ``REPRO_ANALYSIS_DISK_CACHE=/path/to/dir`` or call
   :func:`configure_disk_cache` and every process sharing that
   directory — pool workers, restarted sweeps, separate sessions —
   reuses analyses computed by any other.
"""

from repro.perf.analysis_cache import (
    AnalysisCache,
    AnalysisEntry,
    AnalysisKey,
    GLOBAL_ANALYSIS_CACHE,
    analysis_cache_stats,
    clear_analysis_cache,
    program_fingerprint,
    router_fingerprint,
    topology_fingerprint,
)
from repro.perf.disk_cache import (
    DiskAnalysisCache,
    active_disk_cache,
    active_disk_cache_config,
    configure_disk_cache,
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
    "DiskAnalysisCache",
    "GLOBAL_ANALYSIS_CACHE",
    "active_disk_cache",
    "active_disk_cache_config",
    "analysis_cache_stats",
    "clear_analysis_cache",
    "configure_disk_cache",
    "program_fingerprint",
    "reset_shm_cache_state",
    "router_fingerprint",
    "topology_fingerprint",
]
