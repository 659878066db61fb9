"""Composite quality-complexity objective and its per-title normalized form.

The raw objective trades perceptual quality against the natural log of the
decoding time per frame, weighted by a coefficient ``alpha``. For ladder
optimization both terms are min-max normalized over *all* records of a title
(every resolution, chroma format, and target), so the normalized objective is
``q' - alpha * d'`` with both terms in [0, 1].

The log base is fixed to ``e``; any other base only rescales alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BoundsMismatch, EmptyDataset, NonPositiveDecodeTime
from .measurements import MeasurementRecord, TitleDataset

BOUNDS_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Alpha:
    """Quality/complexity trade-off weight; dimensionless, >= 0.

    The evaluation protocol sweeps [0, 1] and the CLI rejects values above 1;
    the library itself only requires non-negativity.
    """

    value: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and self.value >= 0):
            raise ValueError(f"alpha must be finite and >= 0, got {self.value!r}")


def as_alpha(alpha: "Alpha | float") -> Alpha:
    return alpha if isinstance(alpha, Alpha) else Alpha(float(alpha))


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-title extrema of quality and log decode time."""

    q_min: float
    q_max: float
    log_d_min: float
    log_d_max: float

    def __post_init__(self):
        if self.q_min > self.q_max:
            raise ValueError("q_min must be <= q_max")
        if self.log_d_min > self.log_d_max:
            raise ValueError("log_d_min must be <= log_d_max")


def bounds_for(dataset: TitleDataset) -> NormalizationBounds:
    """Extrema over every record of the title (all resolutions, chromas, targets)."""
    if not dataset.records:
        raise EmptyDataset(f"no records for title {dataset.title_id!r}")
    qs = [r.quality.value for r in dataset.records]
    lds = [r.log_decode_time for r in dataset.records]
    return NormalizationBounds(min(qs), max(qs), min(lds), max(lds))


def composite_raw(q: float, decode_time: float, alpha: Alpha | float) -> float:
    """Unnormalized objective: ``q - alpha * ln(decode_time)``."""
    if not decode_time > 0:
        raise NonPositiveDecodeTime(f"decode_time must be > 0, got {decode_time!r}")
    return q - as_alpha(alpha).value * math.log(decode_time)


def normalized_quality(q: float, bounds: NormalizationBounds) -> float:
    """Quality mapped to [0, 1]; defined as 0 when the bounds are degenerate."""
    span = bounds.q_max - bounds.q_min
    if span == 0:
        return 0.0
    return (q - bounds.q_min) / span


def normalized_log_time(decode_time: float, bounds: NormalizationBounds) -> float:
    """ln(decode time) mapped to [0, 1]; defined as 0 when bounds are degenerate."""
    if not decode_time > 0:
        raise NonPositiveDecodeTime(f"decode_time must be > 0, got {decode_time!r}")
    span = bounds.log_d_max - bounds.log_d_min
    if span == 0:
        return 0.0
    return (math.log(decode_time) - bounds.log_d_min) / span


def composite_normalized(
    record: MeasurementRecord,
    bounds: NormalizationBounds,
    alpha: Alpha | float,
) -> float:
    """Normalized objective ``q' - alpha * d'`` for one record.

    The record must lie within ``bounds`` (tolerance ``1e-9``); constant terms
    from degenerate bounds are mapped to 0, which cannot affect an argmax.
    """
    check_in_bounds(record, bounds)
    q_norm = normalized_quality(record.quality.value, bounds)
    return q_norm - as_alpha(alpha).value * normalized_log_time(record.decode_time, bounds)


def check_in_bounds(record: MeasurementRecord, bounds: NormalizationBounds) -> None:
    """Raise BoundsMismatch unless the record lies within ``bounds`` (tolerance ``1e-9``)."""
    q = record.quality.value
    ld = record.log_decode_time
    if q < bounds.q_min - BOUNDS_TOLERANCE or q > bounds.q_max + BOUNDS_TOLERANCE:
        raise BoundsMismatch(
            f"quality {q!r} outside bounds [{bounds.q_min}, {bounds.q_max}]"
        )
    if ld < bounds.log_d_min - BOUNDS_TOLERANCE or ld > bounds.log_d_max + BOUNDS_TOLERANCE:
        raise BoundsMismatch(
            f"log decode time {ld!r} outside bounds "
            f"[{bounds.log_d_min}, {bounds.log_d_max}]"
        )
