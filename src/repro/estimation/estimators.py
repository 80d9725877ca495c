"""Estimators turning walk samples into aggregate estimates.

SRW, NB-SRW, CNRW and GNRW all sample nodes with probability proportional to
degree, so plain sample means are biased towards high-degree nodes.  The
standard correction is importance reweighting with weights ``1/deg(v)``
(a Hansen-Hurwitz / respondent-driven-sampling style ratio estimator):

* AVG(f)        ≈ sum(f(v)/deg(v)) / sum(1/deg(v))
* COUNT(filter) ≈ |V| * AVG(indicator)      (needs a population size)
* SUM(f)        ≈ |V| * AVG(f)
* PROPORTION    ≈ AVG(indicator)

MHRW samples uniformly, so its estimates are plain sample means — both paths
are implemented so the experiment harness can treat every walker identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..exceptions import InsufficientSamplesError, InvalidConfigurationError
from ..types import Sample, SampleRecord
from .aggregates import AggregateKind, AggregateQuery


@dataclass(frozen=True)
class Estimate:
    """An aggregate estimate plus basic uncertainty information."""

    value: float
    sample_size: int
    standard_error: Optional[float] = None

    def confidence_interval(self, z: float = 1.96):
        """Return a normal-approximation confidence interval (lo, hi)."""
        if self.standard_error is None:
            return (self.value, self.value)
        half = z * self.standard_error
        return (self.value - half, self.value + half)


def _validate_samples(samples: Sequence) -> None:
    if not samples:
        raise InsufficientSamplesError("no samples provided")


def _records(samples: Sequence[Sample]) -> List[SampleRecord]:
    return [
        (sample.node, sample.degree, sample.attributes, sample.step_index, sample.query_cost)
        for sample in samples
    ]


def reweighted_mean(
    samples: Sequence[Sample],
    query: AggregateQuery,
) -> Estimate:
    """Degree-reweighted (ratio) estimator for degree-proportional samples.

    This is the estimator used with SRW/NB-SRW/CNRW/GNRW samples.  For
    conditional aggregates the filter is applied inside the ratio so both the
    numerator and the denominator are restricted to matching nodes.
    """
    return _reweighted_mean(_records(samples), query)


def _reweighted_mean(records: Sequence[SampleRecord], query: AggregateQuery) -> Estimate:
    _validate_samples(records)
    numerator = 0.0
    denominator = 0.0
    ratios: List[float] = []
    weights: List[float] = []
    for node, degree, attributes, _, _ in records:
        if degree <= 0:
            # A degree-0 node can never be reached by a walk; skip defensively.
            continue
        weight = 1.0 / degree
        if query.kind is AggregateKind.PROPORTION:
            value = 1.0 if query.matches(node, attributes) else 0.0
        elif query.predicate is not None and not query.matches(node, attributes):
            value = 0.0
            if query.kind is AggregateKind.AVERAGE:
                # Conditional averages ignore non-matching nodes entirely.
                continue
        else:
            value = query.measure_value(node, attributes, degree)
        numerator += weight * value
        denominator += weight
        ratios.append(value)
        weights.append(weight)
    if denominator <= 0:
        raise InsufficientSamplesError("no usable samples after filtering")
    mean = numerator / denominator
    std_error = _ratio_standard_error(ratios, weights, mean)
    return Estimate(value=mean, sample_size=len(ratios), standard_error=std_error)


def uniform_mean(samples: Sequence[Sample], query: AggregateQuery) -> Estimate:
    """Plain sample mean for uniformly distributed samples (MHRW)."""
    return _uniform_mean(_records(samples), query)


def _uniform_mean(records: Sequence[SampleRecord], query: AggregateQuery) -> Estimate:
    _validate_samples(records)
    values: List[float] = []
    for node, degree, attributes, _, _ in records:
        if query.kind is AggregateKind.PROPORTION:
            values.append(1.0 if query.matches(node, attributes) else 0.0)
        elif query.predicate is not None and not query.matches(node, attributes):
            if query.kind is AggregateKind.AVERAGE:
                continue
            values.append(0.0)
        else:
            values.append(query.measure_value(node, attributes, degree))
    if not values:
        raise InsufficientSamplesError("no usable samples after filtering")
    array = np.asarray(values, dtype=float)
    mean = float(array.mean())
    std_error = float(array.std(ddof=1) / np.sqrt(len(array))) if len(array) > 1 else None
    return Estimate(value=mean, sample_size=len(array), standard_error=std_error)


def estimate(
    samples: Sequence[Sample],
    query: AggregateQuery,
    uniform_samples: bool = False,
    population_size: Optional[int] = None,
) -> Estimate:
    """Estimate an aggregate from walk samples.

    Args:
        samples: Samples collected by a walk.
        query: The aggregate specification.
        uniform_samples: ``True`` for MHRW samples (uniform stationary
            distribution), ``False`` for degree-proportional samplers.
        population_size: Total number of users ``|V|``, required for SUM and
            COUNT aggregates (a third party typically knows or estimates it
            out of band).
    """
    return estimate_records(_records(samples), query, uniform_samples, population_size)


def estimate_records(
    records: Sequence[SampleRecord],
    query: AggregateQuery,
    uniform_samples: bool = False,
    population_size: Optional[int] = None,
) -> Estimate:
    """:func:`estimate` over a walk's :data:`~repro.types.SampleRecord`
    column (``WalkResult.sample_records``), building no ``Sample``."""
    if uniform_samples:
        base = _uniform_mean(records, query)
    else:
        base = _reweighted_mean(records, query)
    if query.kind in (AggregateKind.AVERAGE, AggregateKind.PROPORTION):
        return base
    if population_size is None:
        raise InvalidConfigurationError(
            f"{query.kind.value} aggregates need population_size to scale the mean"
        )
    scale = float(population_size)
    scaled_error = base.standard_error * scale if base.standard_error is not None else None
    return Estimate(value=base.value * scale, sample_size=base.sample_size, standard_error=scaled_error)


def _ratio_standard_error(
    values: Sequence[float], weights: Sequence[float], mean: float
) -> Optional[float]:
    """Delta-method standard error of the weighted ratio estimator."""
    n = len(values)
    if n < 2:
        return None
    values_arr = np.asarray(values, dtype=float)
    weights_arr = np.asarray(weights, dtype=float)
    weight_mean = weights_arr.mean()
    if weight_mean == 0:
        return None
    residuals = weights_arr * (values_arr - mean)
    variance = residuals.var(ddof=1) / (n * weight_mean**2)
    return float(np.sqrt(max(0.0, variance)))


class RunningEstimator:
    """Online (streaming) version of the degree-reweighted AVG estimator.

    Lets long crawls update an aggregate estimate after every sample without
    retaining the full sample list — the "local processing overhead is linear
    in the sample size" regime described in the paper's introduction.
    """

    def __init__(self, query: AggregateQuery, uniform_samples: bool = False) -> None:
        if query.kind not in (AggregateKind.AVERAGE, AggregateKind.PROPORTION):
            raise InvalidConfigurationError("RunningEstimator supports AVG/PROPORTION only")
        self.query = query
        self.uniform_samples = uniform_samples
        self._numerator = 0.0
        self._denominator = 0.0
        self._count = 0

    def update(self, sample: Sample) -> None:
        """Incorporate one sample."""
        if sample.degree <= 0:
            return
        if self.query.kind is AggregateKind.PROPORTION:
            value = 1.0 if self.query.matches(sample.node, sample.attributes) else 0.0
        else:
            if self.query.predicate is not None and not self.query.matches(
                sample.node, sample.attributes
            ):
                return
            value = self.query.measure_value(sample.node, sample.attributes, sample.degree)
        weight = 1.0 if self.uniform_samples else 1.0 / sample.degree
        self._numerator += weight * value
        self._denominator += weight
        self._count += 1

    def update_many(self, samples: Iterable[Sample]) -> None:
        for sample in samples:
            self.update(sample)

    @property
    def sample_size(self) -> int:
        return self._count

    @property
    def value(self) -> float:
        if self._denominator <= 0:
            raise InsufficientSamplesError("no usable samples yet")
        return self._numerator / self._denominator

    def estimate(self) -> Estimate:
        return Estimate(value=self.value, sample_size=self._count)
