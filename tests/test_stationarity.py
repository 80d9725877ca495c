"""Statistical validation of the paper's theory (Theorems 1, 2, 3, 4).

These tests are slower than unit tests (they run many walks) but they are the
heart of the reproduction: CNRW and GNRW must sample from the same stationary
distribution as SRW while achieving a lower (or equal) variance, and on the
barbell graph CNRW must cross the bridge more readily than SRW.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import build_api
from repro.estimation import AggregateQuery, asymptotic_variance_across_chains, reweighted_mean
from repro.graphs import barbell_graph, clustered_cliques_graph, load_dataset
from repro.metrics import (
    empirical_distribution,
    l2_distance,
    theoretical_distribution,
    total_variation_distance,
)
from repro.walks import (
    CirculatedNeighborsRandomWalk,
    GroupByNeighborsRandomWalk,
    NonBacktrackingRandomWalk,
    SimpleRandomWalk,
)
from repro.walks.grouping import DegreeGrouping


@pytest.fixture(scope="module")
def test_graph():
    """A small clustered graph: small enough for exact distribution checks,
    ill-conditioned enough for history-aware walks to matter."""
    return clustered_cliques_graph((5, 8, 12), seed=3)


def visit_distribution(walker_cls, graph, steps, walks, seed_base, **kwargs):
    """Pool the visit counts of several independent walks into a distribution."""
    visits = []
    nodes = graph.nodes()
    for index in range(walks):
        walker = walker_cls(build_api(graph), seed=seed_base + index, **kwargs)
        start = nodes[index % len(nodes)]
        visits.extend(walker.run(start, max_steps=steps).path)
    return empirical_distribution(visits, support=nodes)


class TestTheorem1And4SameStationaryDistribution:
    """SRW, CNRW and GNRW converge to pi(v) = deg(v)/2|E| (Figure 8)."""

    STEPS = 4000
    WALKS = 4

    @pytest.mark.parametrize(
        "walker_cls,kwargs",
        [
            (SimpleRandomWalk, {}),
            (CirculatedNeighborsRandomWalk, {}),
            (GroupByNeighborsRandomWalk, {}),
            (NonBacktrackingRandomWalk, {}),
        ],
        ids=["srw", "cnrw", "gnrw", "nbsrw"],
    )
    def test_visit_distribution_close_to_pi(self, test_graph, walker_cls, kwargs):
        empirical = visit_distribution(
            walker_cls, test_graph, self.STEPS, self.WALKS, seed_base=100, **kwargs
        )
        theoretical = theoretical_distribution(test_graph)
        assert total_variation_distance(theoretical, empirical) < 0.08
        assert l2_distance(theoretical, empirical) < 0.05

    def test_cnrw_and_srw_distributions_agree(self, test_graph):
        """The two empirical distributions are as close to each other as to pi."""
        srw = visit_distribution(SimpleRandomWalk, test_graph, self.STEPS, self.WALKS, 200)
        cnrw = visit_distribution(
            CirculatedNeighborsRandomWalk, test_graph, self.STEPS, self.WALKS, 300
        )
        assert total_variation_distance(srw, cnrw) < 0.08

    def test_gnrw_grouping_choice_does_not_change_distribution(self, test_graph):
        by_degree = visit_distribution(
            GroupByNeighborsRandomWalk,
            test_graph,
            self.STEPS,
            self.WALKS,
            400,
            grouping=DegreeGrouping(),
        )
        theoretical = theoretical_distribution(test_graph)
        assert total_variation_distance(theoretical, by_degree) < 0.08


class TestTheorem2LowerVariance:
    """CNRW's estimator variance is no larger than SRW's (Theorem 2)."""

    CHAINS = 60
    STEPS = 400

    def _chain_estimates(self, walker_cls, graph, query, seed_base, **kwargs):
        estimates = []
        nodes = graph.nodes()
        for index in range(self.CHAINS):
            walker = walker_cls(build_api(graph), seed=seed_base + index, **kwargs)
            start = nodes[index % len(nodes)]
            result = walker.run(start, max_steps=self.STEPS)
            estimates.append(reweighted_mean(result.samples, query).value)
        return estimates

    def test_cnrw_variance_not_larger_than_srw(self, test_graph):
        query = AggregateQuery.average_attribute("age") if "age" in test_graph.attribute_names() else AggregateQuery.average_degree()
        query = AggregateQuery.average_degree()
        srw = self._chain_estimates(SimpleRandomWalk, test_graph, query, 1000)
        cnrw = self._chain_estimates(CirculatedNeighborsRandomWalk, test_graph, query, 2000)
        srw_var = asymptotic_variance_across_chains(srw, self.STEPS)
        cnrw_var = asymptotic_variance_across_chains(cnrw, self.STEPS)
        # Allow 20% statistical slack: the theorem is <=, not <.
        assert cnrw_var <= srw_var * 1.2

    def test_cnrw_mse_not_larger_than_srw_on_clustered_graph(self, test_graph):
        truth = test_graph.average_degree()
        query = AggregateQuery.average_degree()
        srw = self._chain_estimates(SimpleRandomWalk, test_graph, query, 3000)
        cnrw = self._chain_estimates(CirculatedNeighborsRandomWalk, test_graph, query, 4000)
        srw_mse = float(np.mean([(value - truth) ** 2 for value in srw]))
        cnrw_mse = float(np.mean([(value - truth) ** 2 for value in cnrw]))
        assert cnrw_mse <= srw_mse * 1.2

    def test_gnrw_variance_not_larger_than_srw(self):
        graph = load_dataset("yelp_like", seed=5, scale=0.08)
        query = AggregateQuery.average_degree()
        srw = self._chain_estimates(SimpleRandomWalk, graph, query, 5000)
        gnrw = self._chain_estimates(
            GroupByNeighborsRandomWalk, graph, query, 6000, grouping=DegreeGrouping()
        )
        srw_var = asymptotic_variance_across_chains(srw, self.STEPS)
        gnrw_var = asymptotic_variance_across_chains(gnrw, self.STEPS)
        assert gnrw_var <= srw_var * 1.2


class TestTheorem3BarbellEscape:
    """CNRW escapes a barbell clique at least as readily as SRW."""

    def _crossing_rate(self, walker_cls, clique_size, trials, steps, seed_base):
        graph = barbell_graph(clique_size)
        other_side = set(range(clique_size, 2 * clique_size))
        crossings = 0
        for trial in range(trials):
            walker = walker_cls(build_api(graph), seed=seed_base + trial)
            result = walker.run(trial % clique_size, max_steps=steps)
            if any(node in other_side for node in result.path):
                crossings += 1
        return crossings / trials

    def test_cnrw_crosses_at_least_as_often(self):
        srw_rate = self._crossing_rate(SimpleRandomWalk, 8, trials=150, steps=150, seed_base=10_000)
        cnrw_rate = self._crossing_rate(
            CirculatedNeighborsRandomWalk, 8, trials=150, steps=150, seed_base=20_000
        )
        assert cnrw_rate >= srw_rate * 0.9

    def test_crossing_rate_decreases_with_clique_size(self):
        small = self._crossing_rate(SimpleRandomWalk, 5, trials=80, steps=80, seed_base=30_000)
        large = self._crossing_rate(SimpleRandomWalk, 15, trials=80, steps=80, seed_base=40_000)
        assert large <= small
