"""Unit tests for the walker factory/registry."""

from __future__ import annotations

import pytest

from repro.api import build_api
from repro.exceptions import InvalidConfigurationError
from repro.walks import (
    CirculatedNeighborsRandomWalk,
    GroupByNeighborsRandomWalk,
    MetropolisHastingsRandomWalk,
    NonBacktrackingCNRW,
    NonBacktrackingRandomWalk,
    SimpleRandomWalk,
    available_walkers,
    make_walker,
    register_walker,
)


class TestRegistry:
    def test_all_paper_walkers_available(self):
        names = available_walkers()
        for expected in ("srw", "mhrw", "nbsrw", "cnrw", "gnrw", "gnrw_by_degree",
                         "gnrw_by_md5", "gnrw_by_attribute", "nbcnrw", "cnrw_node"):
            assert expected in names

    def test_unknown_walker(self, api):
        with pytest.raises(InvalidConfigurationError):
            make_walker("definitely_not_a_walker", api=api)

    def test_case_insensitive(self, api):
        assert isinstance(make_walker("SRW", api=api), SimpleRandomWalk)
        assert isinstance(make_walker("CnRw", api=api), CirculatedNeighborsRandomWalk)

    def test_register_custom_walker(self, api):
        @register_walker("test_custom_walker")
        def _build(api, seed=None, **_):
            return SimpleRandomWalk(api, seed=seed)

        walker = make_walker("test_custom_walker", api=api)
        assert isinstance(walker, SimpleRandomWalk)


class TestConstruction:
    def test_types(self, api):
        assert isinstance(make_walker("srw", api=api), SimpleRandomWalk)
        assert isinstance(make_walker("mhrw", api=api), MetropolisHastingsRandomWalk)
        assert isinstance(make_walker("nbsrw", api=api), NonBacktrackingRandomWalk)
        assert isinstance(make_walker("nb-srw", api=api), NonBacktrackingRandomWalk)
        assert isinstance(make_walker("cnrw", api=api), CirculatedNeighborsRandomWalk)
        assert isinstance(make_walker("gnrw", api=api), GroupByNeighborsRandomWalk)
        assert isinstance(make_walker("nbcnrw", api=api), NonBacktrackingCNRW)

    def test_cnrw_variants(self, api):
        edge = make_walker("cnrw", api=api)
        node = make_walker("cnrw_node", api=api)
        assert edge.recurrence == "edge"
        assert node.recurrence == "node"

    def test_gnrw_by_degree_grouping(self, api):
        walker = make_walker("gnrw_by_degree", api=api)
        assert "degree" in walker.grouping.name

    def test_gnrw_by_md5_custom_groups(self, api):
        walker = make_walker("gnrw_by_md5", api=api, num_groups=7)
        assert walker.grouping.num_groups == 7

    def test_gnrw_by_attribute_requires_attribute(self, api):
        with pytest.raises(InvalidConfigurationError):
            make_walker("gnrw_by_attribute", api=api)
        walker = make_walker("gnrw_by_attribute", api=api, group_attribute="age")
        assert walker.grouping.attribute == "age"

    def test_gnrw_with_group_attribute_shortcut(self, api):
        walker = make_walker("gnrw", api=api, group_attribute="age")
        assert walker.grouping.attribute == "age"

    def test_seed_is_threaded(self, attributed_graph):
        a = make_walker("cnrw", api=build_api(attributed_graph), seed=11)
        b = make_walker("cnrw", api=build_api(attributed_graph), seed=11)
        assert a.run(0, max_steps=40).path == b.run(0, max_steps=40).path

    def test_explicit_grouping_overrides_name(self, api):
        from repro.walks import HashGrouping

        walker = make_walker("gnrw_by_degree", api=api, grouping=None)
        assert "degree" in walker.grouping.name
        walker2 = make_walker("gnrw", api=api, grouping=HashGrouping(5))
        assert walker2.grouping.num_groups == 5
