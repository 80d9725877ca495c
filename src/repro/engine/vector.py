"""Array-native walk engine: advance a whole ensemble per round in vector ops.

The scalar :class:`~repro.engine.scheduler.WalkScheduler` amortises the
*query* cost of an ensemble (one deduplicated ``query_many`` batch per round)
but still pays one Python-level kernel call and rng draw per walker per step.
For 10k–1M-walker ensembles over a CSR graph that interpreter loop is the
bottleneck: the adjacency arrays are already in memory (or memory-mapped) and
a whole round of transitions is a handful of numpy gathers.

This module is the opt-in columnar execution mode:

* :class:`VectorWalkState` holds the ensemble's positions as arrays of CSR
  indices (``current`` / ``previous`` / round counter);
* vector kernels (:class:`VectorSRWKernel`, :class:`VectorNBSRWKernel`,
  :class:`VectorMHRWKernel`, :class:`VectorCNRWKernel`) advance every walker
  with batched draws from **one** ``numpy.random.Generator`` — SRW is a
  single uniform gather, MHRW a vectorised degree-ratio compare, NB-SRW an
  index-shift over the flattened neighbor rows, and CNRW the same uniform
  pick re-ranked over unmarked row slots for the walkers whose circulation
  history constrains the hop (no per-walker Python loop).  A bucket is
  stored lazily: its first mark as a single slot number, and a slot bitmap
  in one array pool only once the edge is taken a second time;
* :class:`VectorScheduler` validates that the stack is vectorisable (an
  array-capable :class:`~repro.api.backend.CSRBackend` /
  ``MmapCSRBackend`` core, optionally an unbounded cache and a budget layer),
  short-circuits per-node :class:`~repro.api.interface.NodeView` construction
  entirely, and **bills the shared** :class:`~repro.api.middleware.QueryStats`
  **exactly as the scalar scheduler's** ``query_many`` **batches would** —
  including the partial-then-reject accounting of a budget dying mid-round.

Non-vectorisable configurations (remote / sharded / warehouse backends,
bounded LRU caches, rate limits, neighbor shuffling, tracing, kernels without
an array-native rule such as GNRW, CNRW or NB-SRW over a hand-built CSR
that lists a neighbor twice in one row) raise the typed
:class:`~repro.exceptions.VectorizationError`;
``SamplingSession.run_ensemble(mode="vector")`` catches it and falls back to
the scalar lockstep path with a warning.

Determinism: the vector engine is an **explicitly separate seed lineage**
(``repro.rng.lineage_rng(seed, "vector")``).  Under a fixed seed a vector run
is bit-identical across repeated runs, across the CSR and mmap-CSR backends,
and across process fan-out — but it intentionally does *not* reproduce the
scalar golden paths, which remain the conformance reference.
"""

from __future__ import annotations

import time
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import obs
from ..api.backend import CSRBackend
from ..api.interface import SocialNetworkAPI
from ..api.middleware import BackendAPI, BudgetLayer, CacheLayer, QueryStats, iter_layers
from ..exceptions import DeadEndError, InvalidStartNodeError, VectorizationError
from ..rng import SeedLike, lineage_rng
from ..types import NodeId
from ..walks.base import WalkResult, implicit_step_cap

#: ``previous`` value of a walker that has not moved yet (CSR indices are
#: always non-negative, so -1 can never collide with a real position).
NO_PREVIOUS = -1

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass
class VectorWalkState:
    """The positions of a whole ensemble, as arrays of CSR indices.

    Attributes:
        current: ``int64[num_walkers]`` — where each walker is.
        previous: ``int64[num_walkers]`` — where each walker was one round
            ago (:data:`NO_PREVIOUS` before the first transition).
        step: Rounds advanced so far (shared: the ensemble is in lockstep).
    """

    current: np.ndarray
    previous: np.ndarray
    step: int = 0

    @classmethod
    def place(cls, starts: np.ndarray) -> "VectorWalkState":
        """Position the ensemble at ``starts`` (CSR indices) as fresh walks."""
        current = np.asarray(starts, dtype=np.int64).copy()
        previous = np.full(current.size, NO_PREVIOUS, dtype=np.int64)
        return cls(current=current, previous=previous, step=0)

    @property
    def num_walkers(self) -> int:
        return int(self.current.size)

    def advance(self, targets: np.ndarray) -> None:
        """Move every walker to its target, shifting current to previous."""
        self.previous = self.current
        self.current = targets
        self.step += 1


class VectorKernel:
    """Array-native transition rule: one call advances every walker.

    Subclasses implement :meth:`advance`; kernels with per-walker history
    (CNRW) allocate it in :meth:`begin`, and kernels refuse graphs or
    ensemble sizes they cannot serve in :meth:`check` (CNRW, NB-SRW).
    Randomness discipline: a kernel draws batched vectors from the rng it is
    passed, in a fixed number of calls per round, so a fixed vector-lineage
    seed reproduces the ensemble bit for bit.
    """

    #: Human-readable kernel name, overridden by subclasses.
    name = "vector-kernel"

    def check(self, backend: CSRBackend, num_walkers: int) -> None:
        """Raise :class:`VectorizationError` if this rule cannot serve the run.

        Called before anything is billed, so a refusal leaves the stack
        untouched for a scalar fallback.
        """

    def begin(self, num_walkers: int) -> None:
        """Reset per-walker history for a fresh run of ``num_walkers``."""

    def advance(
        self,
        state: VectorWalkState,
        indptr: np.ndarray,
        indices: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Return every walker's next CSR index (callers check dead ends)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}(name={self.name!r})"


def _uniform_pick(
    starts: np.ndarray, degs: np.ndarray, indices: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Gather one uniform neighbor per walker from the CSR rows.

    ``min(floor(u * deg), deg - 1)`` guards against ``u * deg`` rounding up
    to ``deg`` for u close to 1 at large degrees.
    """
    offsets = np.minimum((u * degs).astype(np.int64), degs - 1)
    return indices[starts + offsets]


class VectorSRWKernel(VectorKernel):
    """Memoryless uniform-neighbor rule: one batched draw per round."""

    name = "srw"

    def advance(self, state, indptr, indices, rng):
        cur = state.current
        starts = indptr[cur]
        degs = indptr[cur + 1] - starts
        return _uniform_pick(starts, degs, indices, rng.random(cur.size))


class VectorMHRWKernel(VectorKernel):
    """Metropolis-Hastings rule as a vectorised degree-ratio compare.

    Two batched draws per round (proposal, acceptance — always both drawn so
    the stream position is walker-independent).  Proposal degrees come
    straight from ``indptr`` — the same free metadata the scalar kernel peeks
    on a CSR stack, so nothing extra is billed.
    """

    name = "mhrw"

    def advance(self, state, indptr, indices, rng):
        cur = state.current
        n = cur.size
        u_proposal = rng.random(n)
        u_accept = rng.random(n)
        starts = indptr[cur]
        degs = indptr[cur + 1] - starts
        proposal = _uniform_pick(starts, degs, indices, u_proposal)
        proposal_degs = indptr[proposal + 1] - indptr[proposal]
        # accept iff u < min(1, deg/proposal_deg)  <=>  u * proposal_deg < deg
        # (a zero-degree proposal is rejected defensively, like the scalar
        # kernel's stay-in-place fallback on inconsistent data).
        accept = (proposal_degs > 0) & (u_accept * proposal_degs < degs)
        return np.where(accept, proposal, cur)


class VectorNBSRWKernel(VectorKernel):
    """Non-backtracking rule via an index shift over the flattened rows.

    Each round costs O(sum of current-node degrees): the rows of the current
    frontier are flattened once to locate the previous node's position, then
    a draw over ``degree - 1`` slots is shifted past it.  Row order is
    preserved, matching the scalar kernel's order-preserving filter.  The
    shift skips one slot, so :meth:`check` refuses rows that list a
    neighbor twice (the scalar kernel excludes every slot holding the
    previous node).
    """

    name = "nbsrw"

    def check(self, backend: CSRBackend, num_walkers: int) -> None:
        _require_simple_rows(backend, "NB-SRW vector kernel skips one row slot per hop")

    def advance(self, state, indptr, indices, rng):
        cur = state.current
        prev = state.previous
        n = cur.size
        starts = indptr[cur]
        degs = indptr[cur + 1] - starts
        u = rng.random(n)
        if state.step == 0:
            # No previous node anywhere: plain uniform pick.
            return _uniform_pick(starts, degs, indices, u)
        # Locate previous within each walker's row (check() admits only rows
        # where it occurs at most once).  walker[j] is the walker owning flat
        # slot j, local[j] its position within that walker's row.
        ends = np.cumsum(degs)
        total = int(ends[-1])
        row_offset = np.repeat(ends - degs, degs)
        local = np.arange(total, dtype=np.int64) - row_offset
        flat = np.repeat(starts, degs) + local
        walker = np.repeat(np.arange(n, dtype=np.int64), degs)
        hit = np.nonzero(indices[flat] == prev[walker])[0]
        prev_pos = np.full(n, -1, dtype=np.int64)
        prev_pos[walker[hit]] = local[hit]
        excluded = (prev >= 0) & (degs > 1) & (prev_pos >= 0)
        effective = degs - excluded.astype(np.int64)
        k = np.minimum((u * effective).astype(np.int64), effective - 1)
        k += (excluded & (k >= prev_pos)).astype(np.int64)
        return indices[starts + k]


class VectorCNRWKernel(VectorKernel):
    """Circulated-neighbors rule with array-native circulation history.

    A ``b(u, v)`` bucket marks the slots of the current node's CSR row
    already taken in this circulation.  A dict maps a bucket id (walker ×
    incoming CSR slot for ``recurrence="edge"``, walker × current node for
    ``"node"``) to the bucket, in one of two tiers:

    * a bucket holding one mark is just that mark: the entry
      ``-2 - slot`` (``-1`` is the lookup's "no bucket"), with no bitmap;
    * a bucket holding two or more marks is a handle (``>= 0``) into
      per-bucket ``base`` / ``count`` / ``size`` / ``key`` arrays, its
      bitmap a segment of one flat ``bool`` pool.

    Most departures take a fresh edge and most fresh edges are never taken
    again, so the bitmap is paid for only on a second departure.  One
    round:

    1. draws one uniform per walker and takes the unconstrained pick
       ``min(floor(u * deg), deg - 1)``;
    2. looks up every walker's bucket in one C-level ``dict.get`` pass;
    3. re-picks each walker holding a bucket as the
       ``min(floor(u * r), r - 1)``-th unmarked slot of its row (``r`` =
       unmarked slots; row order) with the same uniform, so a bucket-free
       round equals SRW: via a cumsum rank over the flattened bitmaps, or
       as ``k + (k >= first)`` in O(1) past a single mark;
    4. scatters the new marks and counts and drops every completed bucket
       (a full circulation resets it; a two-slot row completes on its
       second mark), gives each other second mark's bucket its bitmap, and
       enters each fresh edge's first mark.

    Dead buckets' pool slots are reclaimed by compaction whenever the pool
    must grow while at least half of it is dead, so memory stays
    proportional to the live bitmap buckets.  Slot marks equal neighbor
    marks only on rows that list no neighbor twice; :meth:`check` refuses
    any other graph with :class:`VectorizationError`.
    """

    name = "cnrw"

    def __init__(self, recurrence: str = "edge") -> None:
        if recurrence not in ("edge", "node"):
            raise ValueError("recurrence must be 'edge' or 'node'")
        self.recurrence = recurrence
        if recurrence == "node":
            self.name = "cnrw-node"
        self.begin(0)

    def _key_span(self, indptr: np.ndarray, indices: np.ndarray) -> int:
        """Distinct per-walker bucket keys: incoming slots + "none", or nodes."""
        return int(indices.size) + 1 if self.recurrence == "edge" else int(indptr.size) - 1

    def check(self, backend: CSRBackend, num_walkers: int) -> None:
        _require_simple_rows(backend, "CNRW vector kernel marks circulation by row slot")
        _require_key_range(num_walkers, self._key_span(backend.indptr, backend.indices))

    def begin(self, num_walkers: int) -> None:
        self._buckets: Dict[int, int] = {}
        self._incoming = np.full(num_walkers, NO_PREVIOUS, dtype=np.int64)
        self._key_base = np.empty(0, dtype=np.int64)
        self._marks = np.zeros(0, dtype=bool)
        self._base = np.empty(0, dtype=np.int64)
        self._size = np.empty(0, dtype=np.int64)
        self._count = np.empty(0, dtype=np.int64)
        self._key = np.empty(0, dtype=np.int64)
        self._handles = 0  # handles issued since the last compaction
        self._used = 0  # pool slots issued since the last compaction
        self._live_slots = 0  # pool slots owned by live buckets

    def advance(self, state, indptr, indices, rng):
        cur = state.current
        n = cur.size
        starts = indptr[cur]
        degs = indptr[cur + 1] - starts
        u = rng.random(n)
        offsets = np.minimum((u * degs).astype(np.int64), degs - 1)
        if self._key_base.size != n:
            span = self._key_span(indptr, indices)
            _require_key_range(n, span)
            self._key_base = np.arange(n, dtype=np.int64) * span
        if self.recurrence == "edge":
            ids = self._key_base + (self._incoming + 1)
        else:
            ids = self._key_base + cur
        buckets = self._buckets
        entries = np.fromiter(
            map(buckets.get, ids.tolist(), repeat(-1)), dtype=np.int64, count=n
        )
        held = np.flatnonzero(entries >= 0)
        if held.size:
            h = entries[held]
            size = self._size[h]
            left = size - self._count[h]
            k = np.minimum((u[held] * left).astype(np.int64), left - 1)
            picks = self._kth_unmarked(self._base[h], size, k)
            offsets[held] = picks
            self._marks[self._base[h] + picks] = True
            self._count[h] += 1
            done = h[self._count[h] == size]
            if done.size:
                deque(map(buckets.__delitem__, self._key[done].tolist()), maxlen=0)
                self._count[done] = 0
                self._live_slots -= int(self._size[done].sum())
        single = np.flatnonzero(entries < -1)
        if single.size:
            # One mark at row slot `first`: the k-th unmarked slot skips it.
            first = -2 - entries[single]
            size = degs[single]
            k = np.minimum((u[single] * (size - 1)).astype(np.int64), size - 2)
            picks = k + (k >= first)
            offsets[single] = picks
            closed = size == 2
            if closed.any():
                deque(map(buckets.__delitem__, ids[single[closed]].tolist()), maxlen=0)
            grown = ~closed
            if grown.any():
                self._allocate(ids[single[grown]], size[grown], first[grown], picks[grown])
        fresh = np.flatnonzero((entries == -1) & (degs > 1))
        if fresh.size:
            buckets.update(zip(ids[fresh].tolist(), (-2 - offsets[fresh]).tolist()))
        slots = starts + offsets
        self._incoming = slots
        return indices[slots]

    def _kth_unmarked(
        self, base: np.ndarray, size: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        """Row-local slot of each bucket's ``k``-th unmarked slot (row order)."""
        ends = np.cumsum(size)
        row_start = ends - size
        local = np.arange(int(ends[-1]), dtype=np.int64) - np.repeat(row_start, size)
        free = ~self._marks[np.repeat(base, size) + local]
        rank = np.cumsum(free)
        free_before = rank[row_start] - free[row_start]
        return local[free & (rank == np.repeat(free_before + k + 1, size))]

    def _allocate(
        self, ids: np.ndarray, size: np.ndarray, first: np.ndarray, second: np.ndarray
    ) -> None:
        """Give each single-mark bucket a bitmap holding its two marks."""
        m = ids.size
        need = int(size.sum())
        self._reserve(m, need)
        h = slice(self._handles, self._handles + m)
        base = self._used + np.cumsum(size) - size
        self._base[h] = base
        self._size[h] = size
        self._count[h] = 2
        self._key[h] = ids
        self._marks[base + first] = True
        self._marks[base + second] = True
        self._buckets.update(zip(ids.tolist(), range(h.start, h.stop)))
        self._handles += m
        self._used += need
        self._live_slots += need

    def _reserve(self, handles: int, slots: int) -> None:
        """Make room for ``handles`` more buckets owning ``slots`` more slots."""
        if (
            self._handles + handles <= self._size.size
            and self._used + slots <= self._marks.size
        ):
            return
        if 2 * self._live_slots <= self._used:
            self._compact()
        wanted = self._handles + handles
        if wanted > self._size.size:
            capacity = 2 * wanted
            for name in ("_base", "_size", "_count", "_key"):
                grown = np.zeros(capacity, dtype=np.int64)
                grown[: self._handles] = getattr(self, name)[: self._handles]
                setattr(self, name, grown)
        wanted = self._used + slots
        if wanted > self._marks.size:
            grown = np.zeros(2 * wanted, dtype=bool)
            grown[: self._used] = self._marks[: self._used]
            self._marks = grown

    def _compact(self) -> None:
        """Slide the live buckets to the front of the pool and renumber them."""
        live = np.flatnonzero(self._count[: self._handles] > 0)
        size = self._size[live]
        base = np.cumsum(size) - size
        total = int(size.sum())
        local = np.arange(total, dtype=np.int64) - np.repeat(base, size)
        kept = self._marks[np.repeat(self._base[live], size) + local]
        self._marks[:total] = kept
        self._marks[total: self._used] = False
        m = live.size
        self._count[:m] = self._count[live]
        self._key[:m] = self._key[live]
        self._size[:m] = size
        self._base[:m] = base
        # Renumber in place: the single-mark entries have no handle to move.
        self._buckets.update(zip(self._key[:m].tolist(), range(m)))
        self._handles = m
        self._used = total


def _require_simple_rows(backend: CSRBackend, why: str) -> None:
    """Refuse a backend whose rows list a neighbor twice."""
    if not backend.simple_rows:
        raise VectorizationError(
            f"backend {backend.name!r} lists a neighbor twice in one row; the "
            f"{why}, which needs rows without repeats — dedupe the CSR or use "
            "the scalar scheduler"
        )


def _require_key_range(num_walkers: int, span: int) -> None:
    """Refuse ensembles whose bucket ids would overflow int64.

    A bucket id is ``walker * span + key`` with ``0 <= key < span``, so the
    largest is ``num_walkers * span - 1``.
    """
    if num_walkers * span > _INT64_MAX + 1:
        raise VectorizationError(
            f"{num_walkers} walkers x {span} bucket keys per walker overflow "
            "the CNRW kernel's int64 bucket ids; split the ensemble or use "
            "the scalar scheduler"
        )


#: Kernel factory names the vector engine can serve (normalised spellings).
VECTOR_KERNEL_NAMES = ("srw", "nbsrw", "mhrw", "cnrw", "cnrw_node")


def make_vector_kernel(name: str, **options) -> VectorKernel:
    """Build the array-native kernel for a walker factory name.

    Raises :class:`VectorizationError` for kernels without an array-native
    rule (GNRW variants, NB-CNRW, weighted choice) or unsupported options, so
    callers can fall back to the scalar path.
    """
    key = name.replace("-", "_").lower()
    recurrence = options.pop("recurrence", None)
    if options:
        raise VectorizationError(
            f"walker options {sorted(options)} are not supported by the "
            f"vector engine; drop them or run mode='scalar'"
        )
    if key == "srw":
        return VectorSRWKernel()
    if key in ("nbsrw", "nb_srw"):
        return VectorNBSRWKernel()
    if key == "mhrw":
        return VectorMHRWKernel()
    if key == "cnrw":
        return VectorCNRWKernel(recurrence if recurrence is not None else "edge")
    if key == "cnrw_node":
        return VectorCNRWKernel("node")
    raise VectorizationError(
        f"kernel {name!r} has no array-native implementation (vectorisable: "
        f"{', '.join(VECTOR_KERNEL_NAMES)}); use the scalar scheduler"
    )


@dataclass
class VectorEnsembleResult:
    """Everything one vector run produced, in columnar form.

    ``paths[r, i]`` is walker ``i``'s CSR index after round ``r`` (row 0 is
    the starts; a run killed by the budget while billing the starts has zero
    rows).  ``sample_rounds`` holds ``(round_index, unique_queries_after)``
    for every round that emitted samples.  Per-walker results exist only when
    :meth:`to_walk_results` is called, and even then as the scalar drivers'
    columnar records: no :class:`~repro.types.Sample` or
    :class:`~repro.types.Transition` is built unless a caller reads
    ``samples`` / ``transitions`` off a result.
    """

    paths: np.ndarray
    sample_rounds: List[Tuple[int, int]]
    unique_queries: int
    total_queries: int
    stopped_by_budget: bool
    backend: CSRBackend

    @property
    def num_walkers(self) -> int:
        return int(self.paths.shape[1])

    @property
    def steps(self) -> int:
        return max(0, int(self.paths.shape[0]) - 1)

    def fingerprint(self) -> int:
        """CRC32 over the path matrix (endian-pinned): the golden identity."""
        data = np.ascontiguousarray(self.paths, dtype="<i8").tobytes()
        return zlib.crc32(data) & 0xFFFFFFFF

    def path_of(self, walker: int) -> List[NodeId]:
        """Walker ``walker``'s visited node ids (including the start)."""
        return self.backend.to_node_ids(self.paths[:, walker])

    def visit_counts(self) -> np.ndarray:
        """Per-node visit counts pooled over the whole ensemble."""
        n_nodes = len(self.backend)
        if self.paths.size == 0:
            return np.zeros(n_nodes, dtype=np.int64)
        return np.bincount(self.paths.ravel(), minlength=n_nodes)

    def to_walk_results(self) -> List[WalkResult]:
        """One scalar-compatible, columnar :class:`WalkResult` per walker."""
        indptr = self.backend.indptr
        attributes = self.backend.node_attributes
        rows = [round_index for round_index, _ in self.sample_rounds]
        sampled = self.paths[rows]
        degrees = (indptr[sampled + 1] - indptr[sampled]).T.tolist()
        results: List[WalkResult] = []
        for w in range(self.num_walkers):
            path = self.backend.to_node_ids(self.paths[:, w])
            records = []
            for (round_index, query_cost), degree in zip(self.sample_rounds, degrees[w]):
                node = path[round_index]
                records.append((node, degree, attributes.get(node) or {}, round_index, query_cost))
            results.append(
                WalkResult(
                    path=path,
                    sample_records=records,
                    unique_queries=self.unique_queries,
                    total_queries=self.total_queries,
                    stopped_by_budget=self.stopped_by_budget,
                )
            )
        return results


class VectorScheduler:
    """Advance an ensemble with array kernels over a vectorisable stack.

    Construction validates the stack: the innermost backend must be a
    :class:`CSRBackend` (the mmap snapshot backend subclasses it), and the
    only middleware the engine can honour is an *unbounded* cache (memoised
    billing, exactly like the scalar scheduler) and a budget layer (enforced
    with the same partial-then-reject accounting).  Anything else — trace,
    rate-limit, shuffle, bounded LRU, remote/sharded/warehouse backends —
    raises :class:`VectorizationError`; ``run_ensemble(mode="vector")``
    catches it and falls back to the scalar path with a warning.

    Billing mirrors the scalar scheduler's batched semantics on the shared
    :class:`QueryStats`: with an unbounded cache each distinct node is billed
    once per run (``unique == total == |distinct visited|``); without a cache
    each round's deduplicated frontier is re-billed.  The engine bypasses the
    cache itself (it never materialises views), so construct it over a fresh
    or reset stack — nodes a *prior scalar* crawl already cached are billed
    as cache hits (``total`` only) on their first vector touch only if this
    scheduler saw them before, not if only the cache layer did.
    """

    def __init__(self, api: SocialNetworkAPI) -> None:
        self.api = api
        self._memoising = False
        self._budget = None
        self._stats: Optional[QueryStats] = None
        self._backend: Optional[CSRBackend] = None
        for layer in iter_layers(api):
            if isinstance(layer, CacheLayer):
                if getattr(layer.cache, "capacity", None) is not None:
                    raise VectorizationError(
                        "a bounded LRU cache re-bills evicted revisits; the "
                        "vector engine cannot reproduce per-eviction billing "
                        "— use an unbounded cache or the scalar scheduler"
                    )
                self._memoising = True
            elif isinstance(layer, BudgetLayer):
                self._budget = layer.budget
            elif isinstance(layer, BackendAPI):
                backend = layer.backend
                if not isinstance(backend, CSRBackend):
                    raise VectorizationError(
                        f"backend {backend.name!r} is not array-capable; the "
                        "vector engine needs direct indptr/indices access "
                        "(CSRBackend or a CSR snapshot) — remote, sharded, "
                        "warehouse and in-memory backends stay on the scalar "
                        "path"
                    )
                self._backend = backend
                self._stats = layer.stats
            else:
                name = getattr(layer, "layer_name", type(layer).__name__)
                raise VectorizationError(
                    f"middleware layer {name!r} is not vectorisable (the "
                    "vector engine bypasses per-node view construction); "
                    "remove it or use the scalar scheduler"
                )
        if self._backend is None:
            raise VectorizationError(
                "the stack has no BackendAPI core to serve array queries from"
            )
        # Nodes this scheduler has billed (memoising stacks only): the
        # array-level mirror of "the cache below holds this node", so a
        # second run over the same stack bills revisits as cache hits.
        self._seen = (
            np.zeros(len(self._backend), dtype=bool) if self._memoising else None
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def check(self, kernel: VectorKernel, num_walkers: int) -> None:
        """Raise :class:`VectorizationError` if ``kernel`` cannot run here.

        :meth:`run` calls it before billing anything; callers that want to
        fall back to the scalar path can call it up front.
        """
        kernel.check(self._backend, num_walkers)

    def run(
        self,
        kernel: Union[str, VectorKernel],
        starts: Sequence[NodeId],
        steps: Optional[int] = None,
        seed: SeedLike = None,
        burn_in: int = 0,
        thinning: int = 1,
    ) -> VectorEnsembleResult:
        """Run one walker per start node and return the columnar result.

        Args:
            kernel: A :class:`VectorKernel` or a walker factory name
                (``"srw"``, ``"nbsrw"``, ``"mhrw"``, ``"cnrw"``,
                ``"cnrw_node"``).
            starts: One start node id per walker.
            steps: Rounds to advance, or ``None`` to walk until the stack's
                finite query budget is exhausted.
            seed: Vector-lineage seed (see :func:`repro.rng.lineage_rng`);
                fixed seeds make the run bit-identical across repeats,
                backends and process fan-out.
            burn_in / thinning: Sample emission policy, as in the scalar
                scheduler.

        Budget exhaustion is never an error: the truncated result comes back
        with ``stopped_by_budget=True`` and the exact partial-then-reject
        billing of the scalar path (``unique == limit``,
        ``total == limit + 1`` when a round's frontier exceeded what was
        left).
        """
        if isinstance(kernel, str):
            kernel = make_vector_kernel(kernel)
        if thinning < 1:
            raise ValueError("thinning must be at least 1")
        if burn_in < 0:
            raise ValueError("burn_in must be non-negative")
        starts = list(starts)
        if not starts:
            raise ValueError("starts must name at least one walker")
        backend = self._backend
        indptr = backend.indptr
        indices = backend.indices
        if steps is None:
            if self._budget is None or self._budget.unlimited:
                raise ValueError(
                    "schedule would never terminate: provide steps or an API "
                    "with a finite query budget"
                )
            max_rounds = implicit_step_cap(self._budget.limit)
            budget_driven = True
        else:
            if steps < 0:
                raise ValueError("steps must be non-negative")
            max_rounds = steps
            budget_driven = False

        start_indices = backend.to_indices(starts)
        n = start_indices.size
        self.check(kernel, n)
        rng = lineage_rng(seed, "vector")
        stats = self._stats
        if self._memoising:
            # Per-run frontier memo (the scalar scheduler's `views` dict):
            # resets every run, while `_seen` persists as the cache mirror.
            self._memo = np.zeros(len(backend), dtype=bool)
        sample_rounds: List[Tuple[int, int]] = []
        stopped = False

        # Round 0: bill the starts (one shared batch, like the scalar path).
        if not self._bill(start_indices):
            return VectorEnsembleResult(
                paths=np.empty((0, n), dtype=np.int64),
                sample_rounds=[],
                unique_queries=stats.unique,
                total_queries=stats.total,
                stopped_by_budget=True,
                backend=backend,
            )
        start_degs = indptr[start_indices + 1] - indptr[start_indices]
        if (start_degs == 0).any():
            bad = int(start_indices[int(np.argmax(start_degs == 0))])
            raise InvalidStartNodeError(
                f"start node {backend.to_node_ids([bad])[0]!r} has no "
                "neighbors; walks require degree >= 1"
            )
        state = VectorWalkState.place(start_indices)
        kernel.begin(n)
        rows: List[np.ndarray] = [state.current.copy()]
        if burn_in == 0:
            sample_rounds.append((0, stats.unique))

        registry = obs.metrics()
        for round_index in range(1, max_rounds + 1):
            round_started = time.perf_counter() if registry is not None else 0.0
            if budget_driven and self._budget.exhausted:
                stopped = True
                break
            cur = state.current
            degs = indptr[cur + 1] - indptr[cur]
            if not degs.all():
                dead = int(cur[int(np.argmax(degs == 0))])
                raise DeadEndError(backend.to_node_ids([dead])[0])
            targets = kernel.advance(state, indptr, indices, rng)
            state.advance(targets)
            rows.append(targets)
            if not self._bill(targets):
                # The frontier fetch died mid-round: the step is kept (the
                # scalar lockstep appends the target before fetching) but no
                # sample is emitted for it.
                stopped = True
                break
            if registry is not None:
                registry.observe(
                    "repro_vector_round_ms",
                    (time.perf_counter() - round_started) * 1000.0,
                )
            if round_index >= burn_in and (round_index - burn_in) % thinning == 0:
                sample_rounds.append((round_index, stats.unique))

        if registry is not None:
            registry.set_gauge("repro_vector_walkers", n)
            registry.set_gauge("repro_vector_unique_queries", stats.unique)
            registry.set_gauge("repro_vector_total_queries", stats.total)
            if stats.total:
                registry.set_gauge(
                    "repro_vector_dedupe_ratio", 1.0 - (stats.unique / stats.total)
                )
        return VectorEnsembleResult(
            paths=np.vstack(rows),
            sample_rounds=sample_rounds,
            unique_queries=stats.unique,
            total_queries=stats.total,
            stopped_by_budget=stopped,
            backend=backend,
        )

    # ------------------------------------------------------------------
    # Billing
    # ------------------------------------------------------------------
    def _bill(self, frontier: np.ndarray) -> bool:
        """Bill one round's frontier exactly as the scalar batches would.

        Memoising (unbounded cache below): nodes this scheduler already
        billed are cache hits (``total`` only, and only on their first
        occurrence per run — the scalar frontier skips memoised nodes
        entirely after that); never-seen distinct nodes bill ``unique`` and
        ``total`` once.  Non-memoising: every round's deduplicated frontier
        re-bills.  Returns ``False`` when the budget died, after spending
        whatever remained (``unique += r``) and counting the rejected
        attempt (``total += r + 1``) — the scalar sequential-degrade
        accounting.
        """
        stats = self._stats
        hits = 0
        if self._memoising:
            seen = self._seen
            candidates = frontier[~self._memo[frontier]]
            if candidates.size == 0:
                return True
            distinct = np.unique(candidates)
            self._memo[distinct] = True
            cached = seen[distinct]
            hits = int(cached.sum())
            fresh = distinct[~cached]
        else:
            fresh = np.unique(frontier)
        k = int(fresh.size)
        budget = self._budget
        if budget is not None and not budget.can_spend(k):
            remaining = budget.remaining or 0
            budget.spend(remaining)
            stats.unique += remaining
            # Cache hits a sequential replay would have served, the billed
            # partial fetch, then the rejected attempt that raised.
            stats.total += hits + remaining + 1
            if self._memoising:
                self._seen[fresh[:remaining]] = True
            return False
        if budget is not None and k:
            budget.spend(k)
        stats.unique += k
        stats.total += hits + k
        if self._memoising:
            self._seen[fresh] = True
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"VectorScheduler(backend={self._backend!r}, "
            f"memoising={self._memoising})"
        )
