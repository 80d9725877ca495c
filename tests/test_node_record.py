"""The one node record: what a backend fetch builds is what a query returns.

``RawRecord`` (a backend's answer) and ``NodeView`` (a query's answer) are
one immutable class, :class:`~repro.types.NodeRecord`, and the middleware
hands a backend's records up unchanged.  These tests pin the record's value
semantics, that backends stay picklable after their read paths ran, and
that a billed fetch on the scalar miss path builds exactly one record.  The
attribute-isolation contract is checked for every backend kind in
``tests/test_backend_conformance.py``.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro import NodeView as TopLevelNodeView
from repro import SamplingSession, WalkScheduler, build_api
from repro.api import CSRBackend, InMemoryBackend, NodeView, RawRecord
from repro.graphs import load_dataset
from repro.storage import load_snapshot, save_snapshot
from repro.types import NodeRecord
from repro.walks import make_walker


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook_like", seed=3)


class TestOneType:
    def test_both_names_are_one_class(self):
        assert RawRecord is NodeView is NodeRecord is TopLevelNodeView

    def test_positional_and_keyword_construction_agree(self):
        positional = NodeRecord(4, (1, 2), {"age": 3})
        keyword = NodeRecord(node=4, neighbors=(1, 2), attributes={"age": 3})
        assert positional == keyword
        assert (positional.node, positional.neighbors, positional.attributes) == (4, (1, 2), {"age": 3})
        assert positional.degree == 2

    def test_compares_by_value(self):
        assert NodeRecord(1, (2,), {"a": 1}) == NodeRecord(1, (2,), {"a": 1})
        assert NodeRecord(1, (2,), {"a": 1}) != NodeRecord(1, (2,), {"a": 2})
        assert NodeRecord(1, (2,)) != NodeRecord(1, (3,))

    def test_default_attributes_are_a_fresh_dict_per_record(self):
        first, second = NodeRecord(1, ()), NodeRecord(2, ())
        assert first.attributes == {} and second.attributes == {}
        first.attributes["x"] = 1
        assert second.attributes == {}

    @pytest.mark.parametrize("field", ["node", "neighbors", "attributes", "degree", "other"])
    def test_field_assignment_raises(self, field):
        record = NodeRecord(1, (2, 3), {})
        with pytest.raises(AttributeError):
            setattr(record, field, 9)
        assert record == NodeRecord(1, (2, 3), {})

    def test_pickle_and_copy_round_trip(self):
        record = NodeRecord("u", ("v", 3), {"age": 1.5, "tags": ["a"]})
        for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
            assert clone == record
            assert type(clone) is NodeRecord
            assert clone.degree == 2


class TestBackendsPickleAfterReads:
    """The ``jobs=`` fan-out pickles backends that may already have served reads."""

    @pytest.fixture(params=["csr", "mmap"])
    def backend(self, request, graph, tmp_path):
        csr = CSRBackend.from_graph(graph)
        if request.param == "csr":
            return csr
        return load_snapshot(save_snapshot(csr, tmp_path / "snap"))

    def test_pickles_and_fetches_after_a_fetch(self, backend, graph):
        nodes = graph.nodes()[:5]
        before = [backend.fetch(node) for node in nodes]
        assert backend.metadata(nodes[0])["degree"] == graph.degree(nodes[0])
        clone = pickle.loads(pickle.dumps(backend))
        assert [clone.fetch(node) for node in nodes] == before
        assert clone.fetch_many(nodes) == before
        assert clone.metadata(nodes[1]) == backend.metadata(nodes[1])
        assert [backend.fetch(node) for node in nodes] == before

    def test_identity_ids_pickle_after_fetch_many(self):
        backend = CSRBackend.from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        records = backend.fetch_many([2, 0])
        clone = pickle.loads(pickle.dumps(backend))
        assert clone.fetch_many([2, 0]) == records
        assert clone.metadata(2) == {"degree": 3, "attributes": {}}
        assert type(clone.metadata(2)["degree"]) is int


@pytest.fixture
def constructions(monkeypatch):
    """Count :class:`NodeRecord` constructions while a test runs."""
    counts = {"records": 0}
    build = NodeRecord.__new__

    def counting(cls, *args, **kwargs):
        counts["records"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(NodeRecord, "__new__", counting)
    return counts


class TestOneRecordPerBilledFetch:
    @pytest.mark.parametrize("kernel", ["srw", "cnrw", "gnrw_by_degree", "mhrw"])
    def test_budget_crawl_builds_one_record_per_unique_query(self, graph, constructions, kernel):
        api = build_api(CSRBackend.from_graph(graph), budget=300)
        walker = make_walker(kernel, api=api, seed=1)
        result = walker.run(graph.nodes()[0], max_steps=None)
        assert result.stopped_by_budget and api.unique_queries == 300
        assert constructions["records"] == api.unique_queries

    def test_memory_backend_and_session_crawl(self, graph, constructions):
        session = SamplingSession(graph, seed=2).budget(300).walker("srw", seed=2)
        session.run(max_steps=None)
        assert constructions["records"] == session.api.unique_queries == 300

    def test_batched_ensemble_builds_one_record_per_unique_query(self, graph, constructions):
        api = build_api(CSRBackend.from_graph(graph))
        walkers = [make_walker("cnrw", api=api, seed=seed) for seed in range(16)]
        WalkScheduler(api).run(walkers, graph.nodes()[:16], steps=30)
        assert api.unique_queries > 16
        assert constructions["records"] == api.unique_queries

    def test_shuffled_stack_builds_the_shuffled_record_too(self, graph, constructions):
        api = build_api(InMemoryBackend(graph), budget=50, shuffle_neighbors=True, seed=4)
        make_walker("srw", api=api, seed=4).run(graph.nodes()[0], max_steps=None)
        # One record from the backend and one re-ordered copy per billed fetch.
        assert constructions["records"] == 2 * api.unique_queries == 100
