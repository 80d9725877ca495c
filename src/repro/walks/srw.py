"""Simple Random Walk (SRW) — the memoryless order-1 baseline.

Definition 2 of the paper: at node ``v`` the next node is chosen uniformly at
random from ``N(v)``.  Its stationary distribution is
``pi(v) = deg(v) / 2|E|`` on a connected non-bipartite graph.

The transition rule itself lives in :class:`~repro.walks.kernels.SRWKernel`;
this class binds it to the classic one-walker driver.
"""

from __future__ import annotations

from .base import RandomWalk
from .kernels import SRWKernel, WeightedChoiceKernel


class SimpleRandomWalk(RandomWalk):
    """Memoryless uniform-neighbor random walk (the paper's SRW baseline)."""

    name = "SRW"

    def __init__(self, api, seed=None) -> None:
        super().__init__(api, seed=seed, kernel=SRWKernel())


class WeightedRandomWalk(RandomWalk):
    """Random walk with transition probability proportional to an edge weight.

    Not evaluated in the paper, but several of the sampling designs the paper
    aims to be a drop-in replacement for (e.g. stratified weighted walks) use
    non-uniform neighbor selection.  The weight of moving to neighbor ``w`` is
    ``weight_fn(current_view, w)``; uniform weights reduce to SRW.
    """

    name = "WRW"

    def __init__(self, api, weight_fn, seed=None) -> None:
        super().__init__(api, seed=seed, kernel=WeightedChoiceKernel(weight_fn))
