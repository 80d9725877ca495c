"""Sharded graph tier: consistent-hash partitioning over many graph servers.

The subsystem has two halves behind the unchanged two-method
:class:`~repro.api.backend.GraphBackend` protocol:

* **Partitioning** (:mod:`repro.cluster.partition`) — a deterministic
  consistent-hash :class:`HashRing` (stable across runs; configurable virtual
  nodes) and :func:`partition_snapshot`, which splits a PR-3 CSR snapshot
  into per-shard snapshot directories plus a versioned ``cluster.json``
  manifest.  Each shard directory is independently servable by ``repro.cli
  serve``.
* **Routing** (:mod:`repro.cluster.backend`) — :class:`ShardedBackend`
  presents N shard servers as one backend: per-node fetches route by ring
  lookup, batches split into per-shard sub-batches dispatched concurrently
  over keep-alive connections and re-merged in request order, metadata and
  node-id enumeration federate across shards, and failures carry per-shard
  attribution (:class:`~repro.exceptions.ShardError`).  Replicated layouts
  (``partition_snapshot(..., replicas=k)``) add transparent failover: reads
  rotate round-robin across live replicas, a failing shard sits out a
  deterministic cool-down, and :func:`repartition` re-balances an on-disk
  cluster incrementally while bumping the manifest epoch that every shard
  republishes on ``/info``.

Because all policy lives in middleware above the backend protocol, every
kernel, middleware layer and the :class:`~repro.engine.WalkScheduler` walk a
sharded cluster *bit-identically* to a local run — the conformance suite in
``tests/test_backend_conformance.py`` asserts it.  CLI:
``repro.cli partition`` and ``repro.cli serve-cluster``.
"""

from .backend import (
    CLUSTER_URL_SCHEME,
    DEFAULT_FAILOVER_COOLDOWN,
    ShardedBackend,
    cluster_from_urls,
    load_cluster,
    open_cluster,
    parse_cluster_url,
    read_cluster_manifest,
)
from .partition import (
    CLUSTER_FORMAT,
    CLUSTER_MANIFEST_NAME,
    CLUSTER_READ_VERSIONS,
    CLUSTER_VERSION,
    DEFAULT_VNODES,
    SHARD_FORMAT,
    SHARD_MANIFEST_NAME,
    SHARD_VERSION,
    HashRing,
    ShardSliceBackend,
    load_shard,
    node_key,
    partition_snapshot,
    read_shard_manifest,
    repartition,
)

__all__ = [
    "CLUSTER_FORMAT",
    "CLUSTER_MANIFEST_NAME",
    "CLUSTER_READ_VERSIONS",
    "CLUSTER_URL_SCHEME",
    "CLUSTER_VERSION",
    "DEFAULT_FAILOVER_COOLDOWN",
    "DEFAULT_VNODES",
    "HashRing",
    "SHARD_FORMAT",
    "SHARD_MANIFEST_NAME",
    "SHARD_VERSION",
    "ShardSliceBackend",
    "ShardedBackend",
    "cluster_from_urls",
    "load_cluster",
    "load_shard",
    "node_key",
    "open_cluster",
    "parse_cluster_url",
    "partition_snapshot",
    "read_cluster_manifest",
    "read_shard_manifest",
    "repartition",
]
