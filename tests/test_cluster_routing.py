"""Differential tests of cluster routing against reference copies.

The ring answers a route with one index into a per-replica-factor table, and
``ShardedBackend`` chooses a healthy read's replica with one index into that
route.  Both must make exactly the choices of the straightforward
implementations they replaced, which are kept here as oracles:

* ``reference_shards_of`` — the per-call successor walk over the sorted ring
  points, keyed by the canonical ``json.dumps`` encoding of the id;
* ``ReferenceReplicaChooser`` — the candidate-list replica choice with its
  round-robin cursor and failover cool-down, plus the single-read and
  batched-read loops that drive it.

Any drift changes which shard a node is stored on or read from, and with it
the sub-batches a frontier batch splits into.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from typing import Dict, List, Set, Tuple

import numpy as np
import pytest

from repro.api.backend import RawRecord
from repro.cluster import HashRing, ShardedBackend, node_key
from repro.exceptions import ClusterError, ShardError


def reference_key(node) -> bytes:
    if isinstance(node, np.integer):
        node = int(node)
    return json.dumps(node, sort_keys=True, separators=(",", ":")).encode("utf-8")


def reference_hash(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


def reference_points(shards: int, vnodes: int) -> Tuple[List[int], List[int]]:
    points = sorted(
        (reference_hash(f"shard:{shard}:vnode:{vnode}".encode("ascii")), shard)
        for shard in range(shards)
        for vnode in range(vnodes)
    )
    return [point for point, _ in points], [owner for _, owner in points]


def reference_shards_of(points, node, k: int) -> Tuple[int, ...]:
    """The successor walk, run from scratch for every call."""
    hashes, owners = points
    position = bisect.bisect_right(hashes, reference_hash(reference_key(node)))
    found: List[int] = []
    for offset in range(len(owners)):
        owner = owners[(position + offset) % len(owners)]
        if owner not in found:
            found.append(owner)
            if len(found) == k:
                break
    return tuple(found)


def _ids(count: int = 120) -> list:
    return (
        list(range(-20, count))
        + [2 ** 64 + i for i in range(10)]
        + [-(2 ** 70) - i for i in range(10)]
        + [f"user-{i}" for i in range(count)]
        + ["", "é", "5"]
        + [np.int64(i) for i in range(0, count, 7)]
        + [np.int32(-i) for i in range(1, 20)]
        + [np.uint64(2 ** 63 + i) for i in range(5)]
        + [1.5, -0.0, True, False, None]
    )


def _past_the_top(points, wanted: int = 5) -> list:
    """Ids whose hash lies above the top ring point (they wrap to the first)."""
    top = points[0][-1]
    found = []
    for node in range(200_000):
        if reference_hash(reference_key(node)) > top:
            found.append(node)
            if len(found) == wanted:
                break
    return found


class TestRingTable:
    @pytest.mark.parametrize("vnodes", [1, 4, 64])
    @pytest.mark.parametrize("shards", [1, 2, 3, 4, 5])
    def test_table_matches_the_successor_walk(self, shards, vnodes):
        points = reference_points(shards, vnodes)
        ring = HashRing(shards, vnodes=vnodes)
        wrapping = _past_the_top(points)
        assert wrapping, "no id hashes past the top ring point"
        for k in range(1, shards + 1):
            for node in _ids() + wrapping:
                assert ring.shards_of(node, k) == reference_shards_of(
                    points, node, k
                ), (node, k)
            assert all(
                ring.shard_of(node) == reference_shards_of(points, node, 1)[0]
                for node in wrapping
            )

    def test_equal_routes_are_one_shared_tuple(self):
        ring = HashRing(3, vnodes=4)
        routes = [ring.shards_of(node, 2) for node in range(500)]
        first = {}
        assert all(first.setdefault(route, route) is route for route in routes)

    @pytest.mark.parametrize("node", [
        0, 7, -1, -(2 ** 63), 2 ** 64, 2 ** 200 + 1, -(2 ** 200),
        np.int8(-5), np.int64(-(2 ** 63)), np.uint64(2 ** 64 - 1),
        "x", "5", "ünï", 1.0, 0.1, float("nan"), True, None, [1, "a"],
        {"b": 1, "a": [2, 3]},
    ])
    def test_node_key_is_the_canonical_json(self, node):
        assert node_key(node) == reference_key(node)

    def test_ints_beyond_the_digit_limit_raise_a_typed_error(self):
        huge = 10 ** 5000
        with pytest.raises(ClusterError, match="routed"):
            node_key(huge)
        with pytest.raises(ClusterError, match="routed"):
            HashRing(3).shards_of(huge, 1)
        with pytest.raises(ClusterError, match="routed"):
            node_key([huge])


# ----------------------------------------------------------------------
# Replica choice
# ----------------------------------------------------------------------
class ReferenceReplicaChooser:
    """The candidate-list replica choice, with its own health state."""

    def __init__(self, points, replicas: int, cooldown: float, clock) -> None:
        self.points = points
        self.replicas = replicas
        self.cooldown = cooldown
        self.clock = clock
        self.dead_at: Dict[int, float] = {}
        self.rr = 0

    def is_live(self, shard: int) -> bool:
        dead_since = self.dead_at.get(shard)
        if dead_since is None:
            return True
        if self.clock() - dead_since >= self.cooldown:
            del self.dead_at[shard]
            return True
        return False

    def mark_dead(self, shard: int) -> None:
        self.dead_at[shard] = self.clock()

    def pick(self, node, tried=()):
        route = reference_shards_of(self.points, node, self.replicas)
        candidates = [s for s in route if s not in tried]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        live = [s for s in candidates if self.is_live(s)]
        pool = live or candidates
        choice = pool[self.rr % len(pool)]
        self.rr += 1
        return choice

    def read(self, shards, node):
        tried: Set[int] = set()
        while True:
            shard = self.pick(node, tried)
            if shard is None:
                return "exhausted"
            try:
                return shards[shard].fetch(node)
            except RuntimeError:
                self.mark_dead(shard)
                tried.add(shard)

    def fetch_many(self, shards, order):
        records = [None] * len(order)
        pending = list(range(len(order)))
        tried: Dict[int, Set[int]] = {}
        while pending:
            sub_positions: Dict[int, List[int]] = {}
            for position in pending:
                shard = self.pick(order[position], tried.get(position, ()))
                if shard is None:
                    return "exhausted"
                sub_positions.setdefault(shard, []).append(position)
            pending = []
            for shard, positions in sub_positions.items():
                try:
                    batch = shards[shard].fetch_many([order[p] for p in positions])
                except RuntimeError:
                    self.mark_dead(shard)
                    for position in positions:
                        tried.setdefault(position, set()).add(shard)
                    pending.extend(positions)
                else:
                    for position, record in zip(positions, batch):
                        records[position] = record
        return records


class LoggingShard:
    """An in-process shard that logs every request and fails while down."""

    def __init__(self, index: int, log: list, down: Set[int]) -> None:
        self.index = index
        self.log = log
        self.down = down
        self.name = f"fake-{index}"

    def _serve(self, nodes):
        self.log.append((self.index, tuple(nodes)))
        if self.index in self.down:
            raise RuntimeError(f"shard {self.index} is down")
        return [RawRecord(node, (), {}) for node in nodes]

    def fetch(self, node):
        return self._serve([node])[0]

    def fetch_many(self, nodes):
        return self._serve(nodes)

    def close(self) -> None:
        pass


#: (shards, replicas): unreplicated, partial and full replication.
LAYOUTS = [(3, 1), (3, 2), (5, 2), (4, 3), (3, 3)]
COOLDOWN = 10.0


def _pair(shards: int, replicas: int):
    now = [0.0]
    clock = lambda: now[0]  # noqa: E731
    down: Set[int] = set()
    logs: Tuple[list, list] = ([], [])
    cluster = ShardedBackend(
        [LoggingShard(i, logs[0], down) for i in range(shards)],
        HashRing(shards), replicas=replicas,
        failover_cooldown=COOLDOWN, clock=clock,
    )
    reference = ReferenceReplicaChooser(
        reference_points(shards, 64), replicas, COOLDOWN, clock
    )
    reference_shards = [LoggingShard(i, logs[1], down) for i in range(shards)]
    return cluster, reference, reference_shards, now, down, logs


def _dead(reference: ReferenceReplicaChooser) -> List[int]:
    return sorted(s for s in list(reference.dead_at) if not reference.is_live(s))


def _nodes(rng, count: int) -> list:
    nodes = []
    for value in rng.integers(0, 5000, size=count):
        kind = int(value) % 3
        nodes.append(
            int(value) if kind == 0 else np.int64(value) if kind == 1 else f"n{value}"
        )
    return nodes


class TestReplicaChoice:
    @pytest.mark.parametrize("shards,replicas", LAYOUTS)
    def test_choices_match_the_reference_for_any_tried_set(self, shards, replicas):
        cluster, reference, _, now, _, _ = _pair(shards, replicas)
        rng = np.random.default_rng(shards * 10 + replicas)

        def compare(nodes):
            for node in nodes:
                route = cluster.shards_of(node)
                tried = ()
                if rng.random() < 0.5:  # any subset of the route, even all of it
                    size = int(rng.integers(0, len(route) + 1))
                    tried = {int(s) for s in rng.permutation(route)[:size]}
                assert cluster._pick_shard(route, tried) == reference.pick(node, tried)
                assert cluster._rr == reference.rr

        compare(_nodes(rng, 300))  # healthy
        for shard in (0, shards - 1):
            cluster._mark_dead(shard)
            reference.mark_dead(shard)
        now[0] = COOLDOWN / 2
        compare(_nodes(rng, 300))  # inside the cool-down
        assert cluster.dead_shards == _dead(reference) == [0, shards - 1]
        now[0] = COOLDOWN * 2
        compare(_nodes(rng, 300))  # cool-down expired: probed again
        assert cluster.dead_shards == _dead(reference) == []

    @pytest.mark.parametrize("shards,replicas", LAYOUTS)
    def test_reads_and_sub_batches_match_the_reference(self, shards, replicas):
        cluster, reference, reference_shards, now, down, logs = _pair(shards, replicas)
        rng = np.random.default_rng(100 + shards * 10 + replicas)

        def phase(rounds: int) -> None:
            for _ in range(rounds):
                batch = _nodes(rng, int(rng.integers(1, 24)))
                try:
                    got = cluster.fetch_many(batch)
                except ShardError:
                    got = "exhausted"
                assert got == reference.fetch_many(reference_shards, batch)
                node = batch[0]
                try:
                    got = cluster.fetch(node)
                except ShardError:
                    got = "exhausted"
                assert got == reference.read(reference_shards, node)
                # Same requests, to the same shards, in the same order.
                assert logs[0] == logs[1]
                assert cluster._rr == reference.rr
                assert cluster.dead_shards == _dead(reference)

        phase(30)  # healthy
        down.add(1)
        phase(30)  # shard 1 fails; reads fail over inside its cool-down
        down.clear()
        now[0] = COOLDOWN / 2
        phase(20)  # recovered, but still deprioritised
        now[0] = COOLDOWN * 3
        phase(20)  # cool-down expired: shard 1 is probed again
        if replicas == 3:
            down.update({0, 2})
            phase(20)  # two of three replicas down
        assert any(len(entry[1]) > 1 for entry in logs[0])
