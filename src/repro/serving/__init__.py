"""Unified serving engine for fast online recommendation (Section IV).

One interface over the space transformation, pruning, retrieval
backends, incremental refresh, batching, caching, and query telemetry:

>>> from repro.serving import ServingEngine
>>> engine = ServingEngine(U, E, candidate_events, backend="ta")
>>> recs = engine.recommend_batch([3, 14, 15], n=10)
>>> engine.metrics.summary()["mean_seconds_total"]

Deadline-aware serving rides on the same engine: ``recommend_within``
serves one request under a budget via the degradation ladder
(``full -> pruned -> ivf -> truncated -> stale_cache``), and
:func:`recommend_many` drives any engine's ``recommend_within``
concurrently behind a bounded admission queue with explicit load
shedding — see :mod:`repro.serving.lifecycle`,
:mod:`repro.serving.faults`, DESIGN.md §8 and docs/OPERATIONS.md.

Scale-out and streaming ride on the same surface:
:class:`ShardedServingEngine` partitions candidate partners into
contiguous rank shards with an exact top-n merge (see its module),
and every ``refresh`` publishes the next index as one immutable
:class:`IndexSnapshot`, so queries never block on a rebuild and see
the old version or the new one, never a mixture.  A
:class:`FoldInPump` batches post-training event arrivals into a live
engine (DESIGN.md §11, docs/OPERATIONS.md §10).

The legacy :class:`repro.online.EventPartnerRecommender` and
``repro.online.tasks`` APIs remain as thin facades over this engine.
"""

from repro.serving.backends import (
    BruteForceBackend,
    RetrievalBackend,
    ThresholdAlgorithmBackend,
    available_backends,
    create_backend,
    register_backend,
)
from repro.serving.engine import (
    DEFAULT_PRUNED_FRACTION,
    IndexSnapshot,
    Recommendation,
    ServingEngine,
)
from repro.serving.faults import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    fault_point,
    install,
    parse_faults,
    uninstall,
)
from repro.serving.lifecycle import (
    RUNGS,
    SHED_DEADLINE_EXPIRED,
    SHED_QUEUE_FULL,
    SHED_RUNGS_EXHAUSTED,
    AdmissionController,
    LadderPolicy,
    RequestContext,
    RequestOutcome,
    recommend_many,
)
from repro.serving.sharded import ShardedServingEngine, merge_sharded_topn
from repro.serving.streaming import (
    DoubleBufferedEngine,
    FoldInPump,
    StalenessRecord,
)
from repro.serving.telemetry import (
    BuildStats,
    MetricsRegistry,
    QueryStats,
    percentile,
)

__all__ = [
    "AdmissionController",
    "BruteForceBackend",
    "BuildStats",
    "DEFAULT_PRUNED_FRACTION",
    "DoubleBufferedEngine",
    "FaultPlan",
    "FoldInPump",
    "FaultSpec",
    "IndexSnapshot",
    "InjectedFault",
    "LadderPolicy",
    "MetricsRegistry",
    "QueryStats",
    "RUNGS",
    "Recommendation",
    "RequestContext",
    "RequestOutcome",
    "RetrievalBackend",
    "SHED_DEADLINE_EXPIRED",
    "SHED_QUEUE_FULL",
    "SHED_RUNGS_EXHAUSTED",
    "ServingEngine",
    "ShardedServingEngine",
    "StalenessRecord",
    "ThresholdAlgorithmBackend",
    "merge_sharded_topn",
    "active_plan",
    "available_backends",
    "create_backend",
    "fault_point",
    "install",
    "parse_faults",
    "percentile",
    "recommend_many",
    "register_backend",
    "uninstall",
]
