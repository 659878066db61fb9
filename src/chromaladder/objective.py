"""The paper's composite quality-complexity objective, per-title normalized.

A candidate trades perceptual quality against the natural log of its
decoding time per frame, weighted by a coefficient ``alpha``. Both terms are
min-max normalized over *all* records of a title (every resolution, chroma
format, and target), so the objective is ``q' - alpha * d'`` with both terms
in [0, 1]. ``bounds_for`` takes a title's extrema and ``_scaled`` is the one
min-max map: ``normalized_terms`` applies it to every record of a title (the
ladder builders' q' and d'), and ``normalized_quality``,
``normalized_log_time`` and ``composite_normalized`` to one value or record.

The log base is fixed to ``e``; any other base only rescales alpha.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .errors import BoundsMismatch, NonPositiveDecodeTime
from .measurements import MeasurementRecord, TitleDataset

BOUNDS_TOLERANCE = 1e-9

_QUALITY = operator.attrgetter("quality.value")


def checked_alpha(alpha: float) -> float:
    """``float(alpha)``, the quality/complexity trade-off weight: dimensionless
    and >= 0, else ``ValueError``.

    The evaluation protocol sweeps [0, 1] and the CLI rejects values above 1;
    the library itself only requires non-negativity.
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    return alpha


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


def bounds_for(dataset: TitleDataset, log_times: Sequence[float] | None = None
               ) -> NormalizationBounds:
    """Extrema over every record of the title (all resolutions, chromas, targets).

    ``log_times``, when given, are the records' ``log_decode_time`` in record
    order, for a caller that needs them as well.
    """
    qs = list(map(_QUALITY, dataset.records))
    if log_times is None:
        log_times = [r.log_decode_time for r in dataset.records]
    return NormalizationBounds(min(qs), max(qs), min(log_times), max(log_times))


def _scaled(values: Sequence[float], lo: float, hi: float) -> list[float]:
    """``values`` mapped from [lo, hi] onto [0, 1]; all 0 when ``lo == hi``."""
    span = hi - lo
    if span == 0:
        return [0.0] * len(values)
    return [(v - lo) / span for v in values]


def normalized_terms(dataset: TitleDataset, bounds: NormalizationBounds,
                     log_times: Sequence[float]) -> tuple[list[float], list[float]]:
    """``(q', d')``: each record's normalized quality and log decode time
    under ``bounds``, one entry per record in record order. ``log_times`` are
    the records' ``log_decode_time`` in record order.
    """
    return (_scaled(list(map(_QUALITY, dataset.records)), bounds.q_min, bounds.q_max),
            _scaled(log_times, bounds.log_d_min, bounds.log_d_max))


def normalized_quality(q: float, bounds: NormalizationBounds) -> float:
    """Quality mapped to [0, 1]; defined as 0 when the bounds are degenerate."""
    return _scaled((q,), bounds.q_min, bounds.q_max)[0]


def normalized_log_time(decode_time: float, bounds: NormalizationBounds) -> float:
    """ln(decode time) mapped to [0, 1]; defined as 0 when bounds are degenerate."""
    if not decode_time > 0:
        raise NonPositiveDecodeTime(f"decode_time must be > 0, got {decode_time!r}")
    return _scaled((math.log(decode_time),), bounds.log_d_min, bounds.log_d_max)[0]


def composite_normalized(
    record: MeasurementRecord,
    bounds: NormalizationBounds,
    alpha: float,
) -> float:
    """Normalized objective ``q' - alpha * d'`` for one record.

    The record must lie within ``bounds`` (tolerance ``1e-9``), else
    ``BoundsMismatch``; constant terms from degenerate bounds are mapped to 0,
    which cannot affect an argmax.
    """
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
    return normalized_quality(q, bounds) - checked_alpha(alpha) * normalized_log_time(
        record.decode_time, bounds)
