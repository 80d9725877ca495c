"""Tests for the transition-kernel layer of the walk engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro import build_api
from repro.walks import make_walker
from repro.walks.kernels import (
    CNRWKernel,
    GNRWKernel,
    MHRWKernel,
    NBCNRWKernel,
    NBSRWKernel,
    SRWKernel,
    TransitionKernel,
    WalkState,
    uniform_choice,
)

ALL_WALKERS = ["srw", "mhrw", "nbsrw", "cnrw", "cnrw_node", "nbcnrw", "gnrw_by_degree", "gnrw_by_md5"]


class TestWalkState:
    def test_place_and_advance(self):
        state = WalkState()
        assert state.current is None and state.previous is None
        state.place(5)
        assert (state.current, state.previous, state.step_index) == (5, None, 0)
        state.advance(7)
        assert (state.current, state.previous, state.step_index) == (7, 5, 1)
        state.advance(5)
        assert (state.current, state.previous, state.step_index) == (5, 7, 2)
        state.clear()
        assert (state.current, state.previous, state.step_index) == (None, None, 0)

    def test_place_resets_history_fields(self):
        state = WalkState(current=1, previous=2, step_index=9)
        state.place(3)
        assert (state.current, state.previous, state.step_index) == (3, None, 0)


class TestKernelWiring:
    @pytest.mark.parametrize("name,kernel_type", [
        ("srw", SRWKernel),
        ("mhrw", MHRWKernel),
        ("nbsrw", NBSRWKernel),
        ("cnrw", CNRWKernel),
        ("nbcnrw", NBCNRWKernel),
        ("gnrw_by_degree", GNRWKernel),
    ])
    def test_walkers_carry_their_kernel(self, attributed_graph, name, kernel_type):
        walker = make_walker(name, api=build_api(attributed_graph), seed=0)
        assert isinstance(walker.kernel, kernel_type)

    def test_cnrw_recurrence_variants(self, attributed_graph):
        edge = make_walker("cnrw", api=build_api(attributed_graph), seed=0)
        node = make_walker("cnrw_node", api=build_api(attributed_graph), seed=0)
        assert edge.kernel.recurrence == "edge"
        assert node.kernel.recurrence == "node"

    def test_history_property_is_kernel_history(self, attributed_graph):
        walker = make_walker("cnrw", api=build_api(attributed_graph), seed=0)
        assert walker.history is walker.kernel.history

    def test_base_kernel_is_abstract(self):
        with pytest.raises(NotImplementedError):
            TransitionKernel().choose(WalkState(), None, np.random.default_rng(0))

    def test_kernel_reset_clears_history(self, facebook_small):
        walker = make_walker("cnrw", api=build_api(facebook_small), seed=1)
        walker.run(facebook_small.nodes()[0], max_steps=30)
        assert walker.kernel.history.tracked_edges > 0
        walker.kernel.reset()
        assert walker.kernel.history.tracked_edges == 0


class TestUniformChoice:
    def test_matches_legacy_draw(self):
        items = [10, 20, 30, 40]
        a = uniform_choice(np.random.default_rng(3), items)
        rng = np.random.default_rng(3)
        b = items[int(rng.integers(0, len(items)))]
        assert a == b

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            uniform_choice(np.random.default_rng(0), [])


class TestKernelDrivenParity:
    """A kernel fed views externally must replay the walker's own choices."""

    @pytest.mark.parametrize("name", ALL_WALKERS)
    def test_manual_drive_matches_run(self, facebook_small, name):
        start = facebook_small.nodes()[0]
        reference = make_walker(name, api=build_api(facebook_small), seed=13)
        expected = reference.run(start, max_steps=40).path

        api = build_api(facebook_small)
        walker = make_walker(name, api=api, seed=13)
        kernel, rng, state = walker.kernel, walker.rng, walker.state
        kernel.reset()
        state.place(start)
        path = [start]
        for _ in range(40):
            view = api.query(state.current)
            target = kernel.choose(state, view, rng)
            kernel.observe(state, target, view)
            state.advance(target)
            path.append(target)
        assert path == expected

    def test_shared_kernel_state_survives_step_with_view(self, facebook_small):
        """step_with_view and step are interchangeable mid-walk."""
        start = facebook_small.nodes()[0]
        expected = make_walker("cnrw", api=build_api(facebook_small), seed=4).run(
            start, max_steps=20
        ).path

        api = build_api(facebook_small)
        walker = make_walker("cnrw", api=api, seed=4)
        walker.reset()
        walker.start(start)
        path = [start]
        for index in range(20):
            if index % 2 == 0:
                transition = walker.step()
            else:
                transition = walker.step_with_view(api.query(walker.current))
            path.append(transition.target)
        assert path == expected
