"""End-to-end integration tests across the whole public API."""

from __future__ import annotations

import pytest

import repro
from repro import (
    AggregateQuery,
    QueryBudget,
    build_api,
    estimate,
    ground_truth,
    load_dataset,
    make_walker,
    relative_error,
)
from repro.api import TraceLayer, twitter_policy
from repro.api.ratelimit import SimulatedClock
from repro.experiments import (
    WalkerSpec,
    figure11,
    render_report,
    report_to_markdown,
    table1,
    theorem3_escape,
)
from repro.experiments.figures import figure7_facebook, figure9


class TestReadmeQuickstart:
    def test_quickstart_flow(self):
        """The exact flow advertised in the package docstring / README."""
        graph = load_dataset("facebook_like", seed=1, scale=0.2)
        api = build_api(graph, budget=QueryBudget(300))
        walker = make_walker("cnrw", api=api, seed=1)
        result = walker.run(api.random_node(seed=1), max_steps=None)
        answer = estimate(result.samples, AggregateQuery.average_degree())
        truth = ground_truth(graph, AggregateQuery.average_degree())
        assert result.unique_queries <= 300
        assert relative_error(answer.value, truth) < 0.5

    def test_version_exposed(self):
        assert repro.__version__ == "1.0.0"


class TestCrawlSimulation:
    def test_rate_limited_crawl_reports_wall_clock(self):
        graph = load_dataset("facebook_like", seed=2, scale=0.1)
        clock = SimulatedClock()
        api = build_api(
            graph, budget=QueryBudget(40), rate_limit=twitter_policy(), clock=clock
        )
        walker = make_walker("cnrw", api=api, seed=2)
        result = walker.run(graph.nodes()[0], max_steps=None)
        assert result.stopped_by_budget
        # 40 unique queries at 15 per 15 minutes needs at least one full window.
        assert clock.now >= 15 * 60

    def test_trace_layer_tracks_walker_queries(self):
        graph = load_dataset("facebook_like", seed=3, scale=0.1)
        api = TraceLayer(build_api(graph, budget=QueryBudget(30)))
        walker = make_walker("gnrw_by_degree", api=api, seed=3)
        result = walker.run(graph.nodes()[0], max_steps=None)
        assert len(api.trace) >= result.unique_queries
        assert set(api.trace.fresh_nodes).issubset(set(result.path))


class TestAggregateWorkflows:
    def test_conditional_aggregate_estimation(self):
        graph = load_dataset("yelp_like", seed=4, scale=0.08)
        query = AggregateQuery(
            kind=repro.AggregateKind.AVERAGE,
            measure="reviews_count",
            predicate=lambda node, attrs: attrs.get("age", 0) > 25,
            name="avg reviews of older users",
        )
        truth = ground_truth(graph, query)
        api = build_api(graph, budget=QueryBudget(400))
        walker = make_walker("gnrw_by_attribute", api=api, seed=4, group_attribute="reviews_count")
        result = walker.run(graph.nodes()[0], max_steps=None)
        answer = estimate(result.samples, query)
        assert relative_error(answer.value, truth) < 1.0

    def test_count_aggregate_with_population_size(self):
        graph = load_dataset("yelp_like", seed=5, scale=0.08)
        # Count the nodes whose reviews_count exceeds the population median,
        # so the predicate matches a meaningful fraction at any graph scale.
        from repro.graphs import attribute_values
        import numpy as np

        threshold = float(np.median(list(attribute_values(graph, "reviews_count").values())))
        predicate = lambda node, attrs: attrs.get("reviews_count", 0) > threshold  # noqa: E731
        query = AggregateQuery.count(predicate)
        truth = ground_truth(graph, query)
        api = build_api(graph, budget=QueryBudget(500))
        walker = make_walker("cnrw", api=api, seed=5)
        result = walker.run(graph.nodes()[0], max_steps=None)
        answer = estimate(
            result.samples, query, population_size=graph.number_of_nodes
        )
        assert truth > 0
        assert relative_error(answer.value, truth) < 1.0


class TestFigurePipelines:
    """Miniature runs of the figure definitions: structure + qualitative shape."""

    def test_table1_structure(self):
        summaries = table1(seed=0, scale=0.2, datasets=("clustered", "barbell"))
        names = [summary.name for summary in summaries]
        assert names == ["clustered", "barbell"]
        assert all(summary.nodes > 0 for summary in summaries)

    def test_figure7_facebook_small_run(self):
        report = figure7_facebook(seed=1, scale=0.12, trials=3, budgets=(20, 50))
        assert set(report.keys()) == {"relative_error", "kl_divergence", "l2_distance"}
        table = report.get("relative_error")
        assert set(table.labels()) == {"SRW", "NB-SRW", "CNRW", "GNRW"}
        rendered = render_report(report)
        assert "figure7" in rendered
        markdown = report_to_markdown(report)
        assert markdown.startswith("###")

    def test_figure9_small_run_has_two_reports(self):
        reports = figure9(seed=1, scale=0.1, trials=2, budgets=(50, 100))
        assert len(reports) == 2
        for report in reports:
            labels = set(report.get("relative_error").labels())
            assert labels == {"SRW", "GNRW_By_Degree", "GNRW_By_MD5", "GNRW_By_ReviewsCount"}

    def test_figure11_small_run(self):
        report = figure11(seed=1, sizes=(4, 6), budget=20, trials=3)
        table = report.get("relative_error")
        assert table.x_values() == [4.0, 6.0]

    def test_theorem3_small_run(self):
        report = theorem3_escape(seed=1, clique_sizes=(6,), steps=80, trials=20)
        table = report.get("crossing_probability")
        assert set(table.labels()) == {"SRW", "CNRW"}


class TestCustomWalkerSpecRoundTrip:
    def test_spec_built_walker_matches_direct_construction(self):
        graph = load_dataset("facebook_like", seed=6, scale=0.1)
        spec = WalkerSpec.make("cnrw", label="CNRW")
        from repro.experiments.runner import run_single_trial

        outcome = run_single_trial(
            graph, spec, AggregateQuery.average_degree(), budget=40, seed=1
        )
        assert outcome["estimate"] is not None
        assert outcome["unique_queries"] <= 40


class TestDropInReplacementContract:
    """CNRW/GNRW are drop-in replacements: same interface, same distribution."""

    @pytest.mark.parametrize("name", ["srw", "nbsrw", "cnrw", "gnrw_by_degree", "nbcnrw"])
    def test_every_walker_supports_the_same_api(self, name):
        graph = load_dataset("facebook_like", seed=7, scale=0.1)
        api = build_api(graph, budget=QueryBudget(60))
        walker = make_walker(name, api=api, seed=7)
        result = walker.run(graph.nodes()[0], max_steps=None, burn_in=5, thinning=2)
        assert result.unique_queries <= 60
        assert all(sample.step_index >= 5 for sample in result.samples)
        answer = estimate(result.samples, AggregateQuery.average_degree())
        assert answer.value > 0
