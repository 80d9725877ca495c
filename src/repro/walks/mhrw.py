"""Metropolis-Hastings Random Walk (MHRW) targeting the uniform distribution.

MHRW modifies SRW with an accept/reject step so the stationary distribution
becomes uniform over nodes instead of degree-proportional: a move from ``v``
to a uniformly proposed neighbor ``w`` is accepted with probability
``min(1, deg(v) / deg(w))`` and otherwise the walk stays at ``v`` (a
self-transition).

The paper includes MHRW only to confirm prior findings ([7], [11]) that it
mixes much more slowly than SRW-based samplers for aggregate estimation — it
is the worst curve in Figure 6.  The acceptance rule (including the free
inline-metadata degree lookup) lives in
:class:`~repro.walks.kernels.MHRWKernel`.
"""

from __future__ import annotations

from .base import RandomWalk
from .kernels import MHRWKernel


class MetropolisHastingsRandomWalk(RandomWalk):
    """Uniform-target Metropolis-Hastings walk (the paper's MHRW baseline)."""

    name = "MHRW"

    def __init__(self, api, seed=None) -> None:
        super().__init__(api, seed=seed, kernel=MHRWKernel(api))
