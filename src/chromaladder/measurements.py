"""Measurement data model, dataset ingest/serialization, and candidate filtering.

A measurement is one decoded operating point: a (title, resolution, chroma
format, target bitrate) tuple together with the bitrate the encoder actually
produced, a perceptual quality score, and the mean decoding time per frame.
Datasets are immutable after parsing; every operation here is a pure function.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import (
    DuplicateRecord,
    MalformedRow,
    MixedQualityMetric,
    NonPositiveValue,
)

CSV_HEADER = (
    "title",
    "height",
    "chroma",
    "target_kbps",
    "actual_kbps",
    "metric",
    "quality",
    "decode_s_per_frame",
)


class ChromaFormat(Enum):
    """Chroma subsampling format, ordered by color fidelity.

    Each member carries two plain attributes: ``fidelity_rank`` (0 for 4:2:0
    up to 2 for 4:4:4) and ``chroma_density``, the chroma samples per luma
    sample with both chroma planes counted.
    """

    fidelity_rank: int
    chroma_density: Fraction

    C420 = "420", 0, Fraction(1, 2)
    C422 = "422", 1, Fraction(1, 1)
    C444 = "444", 2, Fraction(2, 1)

    def __new__(cls, tag: str, fidelity_rank: int, chroma_density: Fraction):
        member = object.__new__(cls)
        member._value_ = tag
        member.fidelity_rank = fidelity_rank
        member.chroma_density = chroma_density
        return member


class QualityMetric(Enum):
    CVVDP_JOD = "cvvdp"
    YUVPSNR_DB = "psnr"


# Plausible value ranges per metric; values outside trigger warnings, not errors.
PLAUSIBLE_RANGE = {
    QualityMetric.CVVDP_JOD: (0.0, 10.0),
    QualityMetric.YUVPSNR_DB: (0.0, math.inf),
}


@dataclass(frozen=True)
class Resolution:
    """Spatial resolution in luma lines; width is metadata only."""

    height: int
    width: int | None = None

    def __post_init__(self):
        if self.height <= 0:
            raise NonPositiveValue("height")
        if self.width is not None and self.width <= 0:
            raise NonPositiveValue("width")

    @property
    def pixel_width(self) -> int:
        """Stated width, or the 16:9 width derived from the height."""
        if self.width is not None:
            return self.width
        return round(self.height * 16 / 9)


@dataclass(frozen=True)
class QualityScore:
    metric: QualityMetric
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"quality value must be finite, got {self.value!r}")

    def plausible(self) -> bool:
        lo, hi = PLAUSIBLE_RANGE[self.metric]
        return lo <= self.value <= hi


@dataclass(frozen=True)
class MeasurementRecord:
    """One measured operating point of one title."""

    title_id: str
    resolution: Resolution
    chroma: ChromaFormat
    target_bitrate: float  # kbps
    actual_bitrate: float  # kbps
    quality: QualityScore
    decode_time: float  # seconds per frame

    def __post_init__(self):
        for name, value in (
            ("target_kbps", self.target_bitrate),
            ("actual_kbps", self.actual_bitrate),
            ("decode_s_per_frame", self.decode_time),
        ):
            if not (math.isfinite(value) and value > 0):
                raise NonPositiveValue(name, context=f"title {self.title_id!r}")

    @property
    def key(self) -> tuple:
        """Uniqueness key within a dataset."""
        return (self.title_id, self.resolution, self.chroma, self.target_bitrate)

    @property
    def log_decode_time(self) -> float:
        return math.log(self.decode_time)


@dataclass(frozen=True)
class TitleDataset:
    """All measurements of one source title, plus its distinct target bitrates."""

    title_id: str
    records: tuple[MeasurementRecord, ...]
    bitrate_targets: tuple[float, ...]

    def __post_init__(self):
        if any(b2 <= b1 for b1, b2 in zip(self.bitrate_targets, self.bitrate_targets[1:])):
            raise ValueError("bitrate_targets must be strictly increasing")
        metrics = {r.quality.metric for r in self.records}
        if len(metrics) > 1:
            raise MixedQualityMetric(self.title_id)
        seen = set()
        for r in self.records:
            if r.title_id != self.title_id:
                raise ValueError(
                    f"record title {r.title_id!r} does not match dataset {self.title_id!r}"
                )
            if r.key in seen:
                raise DuplicateRecord(r.key)
            seen.add(r.key)

    @classmethod
    def from_records(cls, records: Iterable[MeasurementRecord]) -> "TitleDataset":
        recs = sorted(records, key=_record_order)
        if not recs:
            raise ValueError("from_records needs at least one record")
        targets = tuple(sorted({r.target_bitrate for r in recs}))
        return cls(recs[0].title_id, tuple(recs), targets)

    @classmethod
    def _from_checked(cls, title_id: str, records: list[MeasurementRecord]) -> "TitleDataset":
        """``from_records(records)`` for records already known to belong to
        ``title_id``, to share one metric and to repeat no key: it skips the
        checks of ``__post_init__``. ``records`` is sorted in place."""
        records.sort(key=_record_order)
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "title_id", title_id)
        object.__setattr__(dataset, "records", tuple(records))
        object.__setattr__(dataset, "bitrate_targets",
                           tuple(sorted({r.target_bitrate for r in records})))
        return dataset

    @property
    def metric(self) -> QualityMetric | None:
        return self.records[0].quality.metric if self.records else None


def _record_order(record: MeasurementRecord) -> tuple:
    return (record.target_bitrate, record.resolution.height, record.chroma.fidelity_rank)


# -- parsing ----------------------------------------------------------------

_CHROMA_BY_TAG = {c.value: c for c in ChromaFormat}
_METRIC_BY_TAG = {m.value: m for m in QualityMetric}
_JSON_KEYS = frozenset(CSV_HEADER)


def parse_dataset(source: str | TextIO, fmt: str = "auto") -> list[TitleDataset]:
    """Parse a CSV or JSON measurement stream into per-title datasets.

    ``fmt`` is one of ``csv``, ``json``, ``auto``; auto-detection treats
    content starting with ``[`` or ``{`` as JSON. One leading UTF-8 byte order
    mark, as spreadsheet exports write, is dropped. Titles are returned sorted
    lexicographically; records within a title sorted by (target, height,
    chroma fidelity).

    Every row is checked in input order and the first bad one raises
    ``MalformedRow`` (or ``NonPositiveValue``). Then the first record, in
    input order, that repeats an earlier record's key raises
    ``DuplicateRecord``, and only then the first title, in order of
    appearance, with two quality metrics raises ``MixedQualityMetric``.
    """
    text = source if isinstance(source, str) else source.read()
    text = text.removeprefix("\ufeff")
    if fmt == "auto":
        fmt = "json" if text.lstrip()[:1] in ("[", "{") else "csv"
    if fmt == "csv":
        rows = _rows_from_csv(text)
    elif fmt == "json":
        rows = _rows_from_json(text)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return _group_records(_records(rows))


def _rows_from_csv(text: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``(row number, values in CSV_HEADER order)`` of each data row. Blank
    lines are skipped and not counted; the header is row 0."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise MalformedRow(0, "empty input, header required")
    got = [name.strip() for name in header]
    if sorted(got) != sorted(CSV_HEADER):
        raise MalformedRow(0, f"header must contain exactly {','.join(CSV_HEADER)}; got {','.join(got)}")
    in_header_order = operator.itemgetter(*(got.index(name) for name in CSV_HEADER))
    row = 0
    for values in reader:
        if not values:
            continue
        row += 1
        if len(values) != len(got):
            raise MalformedRow(row, "wrong number of fields")
        yield row, in_header_order(values)


def _rows_from_json(text: str) -> Iterator[tuple[int, tuple]]:
    """``(row number, values in CSV_HEADER order)`` of each array entry."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRow(0, f"invalid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise MalformedRow(0, "JSON input must be an array of objects")
    in_header_order = operator.itemgetter(*CSV_HEADER)
    for row, obj in enumerate(data, start=1):
        if not isinstance(obj, dict):
            raise MalformedRow(row, "array entry is not an object")
        if obj.keys() != _JSON_KEYS:
            raise MalformedRow(row, f"object keys must be exactly {','.join(CSV_HEADER)}")
        yield row, in_header_order(obj)


def _records(rows: Iterable[tuple[int, Sequence]]) -> list[MeasurementRecord]:
    """The record of each ``(row number, values in CSV_HEADER order)``.

    Values are CSV strings or JSON values. A title must be a string and a
    number must not be a JSON ``true``/``false``; numbers may be numeric
    strings. Records of one height share one ``Resolution``.
    """
    resolutions: dict[int, Resolution] = {}
    records = []
    for row, (title, height, chroma, target, actual, metric, quality, decode) in rows:
        if not isinstance(title, str):
            raise MalformedRow(row, f"title {title!r} is not a string")
        title = title.strip()
        if not title:
            raise MalformedRow(row, "empty title")
        try:
            height_px = int(str(height).strip())
        except ValueError:
            raise MalformedRow(row, f"height {height!r} is not an integer") from None
        chroma_tag = str(chroma).strip()
        chroma_format = _CHROMA_BY_TAG.get(chroma_tag)
        if chroma_format is None:
            raise MalformedRow(row, f"chroma {chroma_tag!r} not one of 420/422/444")
        metric_tag = str(metric).strip()
        quality_metric = _METRIC_BY_TAG.get(metric_tag)
        if quality_metric is None:
            raise MalformedRow(row, f"metric {metric_tag!r} not one of cvvdp/psnr")
        target_kbps = _number(row, "target_kbps", target)
        actual_kbps = _number(row, "actual_kbps", actual)
        value = _number(row, "quality", quality)
        decode_s = _number(row, "decode_s_per_frame", decode)
        try:
            score = QualityScore(quality_metric, value)
        except ValueError as exc:
            raise MalformedRow(row, str(exc)) from None
        resolution = resolutions.get(height_px)
        if resolution is None:
            resolution = Resolution(height_px)
            try:
                # Reports carry the 16:9 width, a float quotient of the height.
                resolution.pixel_width
            except OverflowError:
                raise MalformedRow(row, "height is an integer too large for a float") from None
            resolutions[height_px] = resolution
        records.append(MeasurementRecord(
            title, resolution, chroma_format, target_kbps, actual_kbps, score, decode_s))
    return records


def _number(row: int, name: str, value) -> float:
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
        except OverflowError:
            # A JSON integer past the float range; its digits are not echoed.
            raise MalformedRow(row, f"{name} is an integer too large for a float") from None
    raise MalformedRow(row, f"{name} {value!r} is not a number")


def _group_records(records: Sequence[MeasurementRecord]) -> list[TitleDataset]:
    seen = set()
    by_title: dict[str, list[MeasurementRecord]] = {}
    for rec in records:
        # Parsed resolutions have no width, so the height stands in for the
        # Resolution of ``rec.key``.
        key = (rec.title_id, rec.resolution.height, rec.chroma.fidelity_rank, rec.target_bitrate)
        if key in seen:
            raise DuplicateRecord(rec.key)
        seen.add(key)
        by_title.setdefault(rec.title_id, []).append(rec)
    for title, recs in by_title.items():
        metric = recs[0].quality.metric
        if any(r.quality.metric is not metric for r in recs):
            raise MixedQualityMetric(title)
    return [TitleDataset._from_checked(t, by_title[t]) for t in sorted(by_title)]


# -- serialization ----------------------------------------------------------


def serialize_dataset(datasets: Iterable[TitleDataset], fmt: str = "csv") -> str:
    """Serialize datasets back to the CSV or JSON wire form (round-trip exact)."""
    rows = []
    for ds in sorted(datasets, key=lambda d: d.title_id):
        for r in ds.records:
            rows.append(r)
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow(
                [
                    r.title_id,
                    r.resolution.height,
                    r.chroma.value,
                    repr(r.target_bitrate),
                    repr(r.actual_bitrate),
                    r.quality.metric.value,
                    repr(r.quality.value),
                    repr(r.decode_time),
                ]
            )
        return out.getvalue()
    if fmt == "json":
        objs = [
            {
                "title": r.title_id,
                "height": r.resolution.height,
                "chroma": int(r.chroma.value),
                "target_kbps": r.target_bitrate,
                "actual_kbps": r.actual_bitrate,
                "metric": r.quality.metric.value,
                "quality": r.quality.value,
                "decode_s_per_frame": r.decode_time,
            }
            for r in rows
        ]
        return json.dumps(objs, indent=2) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# -- candidate filtering ----------------------------------------------------


def candidates_for(
    dataset: TitleDataset,
    target: float,
    tolerance: float,
    *,
    cross_target: bool = False,
) -> list[MeasurementRecord]:
    """Records usable as the rung at ``target`` kbps.

    A record qualifies when its actual bitrate lies within
    ``[target*(1-tolerance), target*(1+tolerance)]`` and (unless
    ``cross_target``) it was encoded for exactly this target. Result order is
    deterministic: resolution ascending, then chroma fidelity, then target.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    if not target > 0:
        raise ValueError("target must be > 0")
    lo = target * (1.0 - tolerance)
    hi = target * (1.0 + tolerance)
    out = [
        r
        for r in dataset.records
        if (cross_target or r.target_bitrate == target) and lo <= r.actual_bitrate <= hi
    ]
    out.sort(
        key=lambda r: (r.resolution.height, r.chroma.fidelity_rank, r.target_bitrate)
    )
    return out


def dataset_warnings(dataset: TitleDataset, tolerance: float = 0.10) -> list[str]:
    """Non-fatal data-quality findings: implausible scores, uncovered targets."""
    warns = []
    for r in dataset.records:
        if not r.quality.plausible():
            lo, hi = PLAUSIBLE_RANGE[r.quality.metric]
            warns.append(
                f"{r.title_id}: quality {r.quality.value!r} outside plausible "
                f"[{lo}, {hi}] for {r.quality.metric.value} "
                f"({r.resolution.height}p/{r.chroma.value} @ {r.target_bitrate:g} kbps)"
            )
    for t in dataset.bitrate_targets:
        if not candidates_for(dataset, t, tolerance):
            warns.append(
                f"{dataset.title_id}: no encode within ±{tolerance:.0%} of "
                f"{t:g} kbps; this rung will be absent"
            )
    return warns
