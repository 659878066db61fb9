"""Measurement data model, dataset ingest/serialization, and candidate filtering.

A measurement is one decoded operating point: a (title, resolution, chroma
format, target bitrate) tuple together with the bitrate the encoder actually
produced, a perceptual quality score, and the mean decoding time per frame.
Datasets are immutable after parsing; every operation here is a pure function.

Ingest makes one checked pass over the rows of all its sources and groups
them by (title, metric), so datasets do not depend on how rows are split over
files. A row whose title, height, chroma and metric repeat raw values of an
earlier row, and whose numbers convert with ``float()`` and are in range,
fills the slots of its frozen records directly; every other row goes through
``_row_record``, the one definition of a valid row and of its errors. Each
dataset's records are kept by (target, height, chroma fidelity), so the
parser finds repeated keys and sorts in C, and ``candidates_for`` finds a
target's candidates as one run of the sorted records.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator, Sequence, TextIO

from .errors import (
    DuplicateRecord,
    EmptyDataset,
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

    Each member carries a plain ``fidelity_rank``: 0 for 4:2:0 up to 2 for
    4:4:4.
    """

    fidelity_rank: int

    C420 = "420", 0
    C422 = "422", 1
    C444 = "444", 2

    def __new__(cls, tag: str, fidelity_rank: int):
        member = object.__new__(cls)
        member._value_ = tag
        member.fidelity_rank = fidelity_rank
        return member


class QualityMetric(Enum):
    CVVDP_JOD = "cvvdp"
    YUVPSNR_DB = "psnr"


# Plausible value ranges per metric; values outside trigger warnings, not errors.
PLAUSIBLE_RANGE = {
    QualityMetric.CVVDP_JOD: (0.0, 10.0),
    QualityMetric.YUVPSNR_DB: (0.0, math.inf),
}


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class QualityScore:
    metric: QualityMetric
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"quality value must be finite, got {self.value!r}")

    def plausible(self) -> bool:
        lo, hi = PLAUSIBLE_RANGE[self.metric]
        return lo <= self.value <= hi


@dataclass(frozen=True, slots=True)
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
            if not 0.0 < value < math.inf:
                raise NonPositiveValue(name, f"title {self.title_id!r}", finite=True)

    @property
    def key(self) -> tuple:
        """Uniqueness key within a dataset."""
        return (self.title_id, self.resolution, self.chroma, self.target_bitrate)

    @property
    def log_decode_time(self) -> float:
        return math.log(self.decode_time)


@dataclass(frozen=True)
class TitleDataset:
    """All measurements of one source title (at least one, else
    ``EmptyDataset``), plus its distinct target bitrates."""

    title_id: str
    records: tuple[MeasurementRecord, ...]
    bitrate_targets: tuple[float, ...]

    def __post_init__(self):
        if not self.records:
            raise EmptyDataset(f"no records for title {self.title_id!r}")
        if any(b2 <= b1 for b1, b2 in zip(self.bitrate_targets, self.bitrate_targets[1:])):
            raise ValueError("bitrate_targets must be strictly increasing")
        order = list(map(_record_order, self.records))
        if not all(map(operator.le, order, order[1:])):
            raise ValueError("records must be in (target, height, chroma fidelity) order")
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
                raise DuplicateRecord(r)
            seen.add(r.key)

    @classmethod
    def from_records(cls, records: Iterable[MeasurementRecord]) -> "TitleDataset":
        recs = sorted(records, key=_record_order)
        if not recs:
            raise ValueError("from_records needs at least one record")
        targets = tuple(sorted({r.target_bitrate for r in recs}))
        return cls(recs[0].title_id, tuple(recs), targets)

    @classmethod
    def _from_checked(cls, title_id: str, records: tuple[MeasurementRecord, ...],
                      bitrate_targets: tuple[float, ...]) -> "TitleDataset":
        """The dataset of records already known to belong to ``title_id``, to
        be in ``from_records`` order, to share one metric and to repeat no
        key, and of their distinct targets in order: it skips the checks of
        ``__post_init__``."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "title_id", title_id)
        object.__setattr__(dataset, "records", records)
        object.__setattr__(dataset, "bitrate_targets", bitrate_targets)
        return dataset

    @property
    def metric(self) -> QualityMetric:
        return self.records[0].quality.metric


def _record_order(record: MeasurementRecord) -> tuple:
    return (record.target_bitrate, record.resolution.height, record.chroma.fidelity_rank)


# -- parsing ----------------------------------------------------------------

_CHROMA_BY_TAG = {c.value: c for c in ChromaFormat}
_METRIC_BY_TAG = {m.value: m for m in QualityMetric}
_JSON_KEYS = frozenset(CSV_HEADER)


def parse_dataset(source: str | TextIO | Iterable[str | TextIO]) -> list[TitleDataset]:
    """Parse CSV or JSON measurements into per-(title, metric) datasets.

    ``source`` is a string or text stream, or an iterable of them, parsed as
    one row stream in order; each is read only when the parse reaches it and
    dropped once its rows are read. A source starting with ``[`` or ``{`` is
    JSON, any other CSV: a CSV header starts with a column name. One leading
    UTF-8 byte order mark per source, as spreadsheet exports write, is
    dropped. Datasets are sorted by title, then metric tag; records within a
    dataset by (target, height, chroma fidelity). A title measured in both
    metrics gives two datasets, in one source or across sources.

    Every row of every source is checked in input order and the first bad
    one raises ``MalformedRow`` (or ``NonPositiveValue``; both name the row
    within its source). Only then does the first record, in input order,
    whose (title, metric, height, chroma, target) repeats an earlier one's
    raise ``DuplicateRecord``, wherever its copies are.
    """
    sources = (source,) if isinstance(source, str) or hasattr(source, "read") else source
    # chain drops each source's rows before it reads the next source, so one
    # source at a time is in memory.
    return _datasets_from_rows(chain.from_iterable(map(_source_rows, sources)))


def source_records(source: str | TextIO) -> Iterator[MeasurementRecord]:
    """The records of one source in row order, each row checked as
    ``parse_dataset`` checks it, neither grouped nor checked for repeats."""
    resolutions: dict[int, Resolution] = {}
    for row, values in _source_rows(source):
        yield _row_record(row, values, resolutions)


def _source_rows(source: str | TextIO) -> Iterator[tuple[int, Sequence]]:
    text = (source if isinstance(source, str) else source.read()).removeprefix("\ufeff")
    return _rows_from_json(text) if text.lstrip()[:1] in ("[", "{") else _rows_from_csv(text)


def _rows_from_csv(text: str) -> Iterator[tuple[int, tuple[str, ...]]]:
    """``(row number, values in CSV_HEADER order)`` of each data row. Blank
    lines are skipped and not counted; the header is row 0."""
    # Read as UTF-8 bytes: a StringIO would copy the text at four bytes per
    # character. Lines end at "\n" alone, as in a StringIO, and every string
    # survives the round trip.
    lines = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogatepass")),
                             encoding="utf-8", errors="surrogatepass", newline="\n")
    del text  # this generator holds the parse's only reference to it
    reader = csv.reader(lines)
    row = 0  # the row being read: the header, then each data row
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedRow(0, "empty input, header required")
        got = [name.strip() for name in header]
        if sorted(got) != sorted(CSV_HEADER):
            raise MalformedRow(0, f"header must contain exactly {','.join(CSV_HEADER)}; got {','.join(got)}")
        in_header_order = operator.itemgetter(*(got.index(name) for name in CSV_HEADER))
        width = len(got)
        row = 1
        for values in filter(None, reader):
            if len(values) != width:
                raise MalformedRow(row, "wrong number of fields")
            yield row, in_header_order(values)
            row += 1
    except csv.Error as exc:
        # Such as a bare "\r" inside an unquoted field.
        raise MalformedRow(row, f"invalid CSV: {exc}") from None


def _rows_from_json(text: str) -> Iterator[tuple[int, tuple]]:
    """``(row number, values in CSV_HEADER order)`` of each array entry."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedRow(0, f"invalid JSON: {exc}") from exc
    del text  # this generator holds the parse's only reference to it
    if not isinstance(data, list):
        raise MalformedRow(0, "JSON input must be an array of objects")
    in_header_order = operator.itemgetter(*CSV_HEADER)
    data.reverse()  # popped from the end, each entry goes once its row is read
    for row, obj in enumerate(map(data.pop, repeat(-1, len(data))), start=1):
        if not isinstance(obj, dict):
            raise MalformedRow(row, "array entry is not an object")
        if obj.keys() != _JSON_KEYS:
            raise MalformedRow(row, f"object keys must be exactly {','.join(CSV_HEADER)}")
        yield row, in_header_order(obj)


def _row_record(row: int, values: Sequence, resolutions: dict[int, Resolution]
                ) -> MeasurementRecord:
    """The record of one row, ``values`` in CSV_HEADER order: the one
    definition of a valid row and of which of its errors is raised.

    Values are CSV strings or JSON values. A title must be a string and a
    number must not be a JSON ``true``/``false``; numbers may be numeric
    strings. The record's ``Resolution`` is taken from, or put in,
    ``resolutions`` by height.
    """
    title, height, chroma, target, actual, metric, quality, decode = values
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
    if height_px <= 0:
        raise NonPositiveValue("height", row=row)
    resolution = resolutions.get(height_px)
    if resolution is None:
        resolution = Resolution(height_px)
        try:
            # Reports carry the 16:9 width, a float quotient of the height.
            resolution.pixel_width
        except OverflowError:
            raise MalformedRow(row, "height is an integer too large for a float") from None
        resolutions[height_px] = resolution
    for name, number in (("target_kbps", target_kbps), ("actual_kbps", actual_kbps),
                         ("decode_s_per_frame", decode_s)):
        if not 0.0 < number < math.inf:
            raise NonPositiveValue(name, f"title {title!r}", row=row, finite=True)
    return MeasurementRecord(
        title, resolution, chroma_format, target_kbps, actual_kbps, score, decode_s)


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


# The slots of the parsed records, filled as ``_row_record``'s constructors
# would fill them without running their checks again.
_SET_METRIC = QualityScore.metric.__set__
_SET_VALUE = QualityScore.value.__set__
_SET_TITLE = MeasurementRecord.title_id.__set__
_SET_RESOLUTION = MeasurementRecord.resolution.__set__
_SET_CHROMA = MeasurementRecord.chroma.__set__
_SET_TARGET = MeasurementRecord.target_bitrate.__set__
_SET_ACTUAL = MeasurementRecord.actual_bitrate.__set__
_SET_QUALITY = MeasurementRecord.quality.__set__
_SET_DECODE = MeasurementRecord.decode_time.__set__
_FIRST = operator.itemgetter(0)


def _datasets_from_rows(rows: Iterable[tuple[int, Sequence]]) -> list[TitleDataset]:
    """The datasets of ``(row number, values in CSV_HEADER order)`` rows, in
    (title, metric) order, with the errors and precedence that
    ``parse_dataset`` states.

    A row is accepted without ``_row_record`` when its (title, metric),
    height and chroma are raw values that an earlier row had, and its four
    numbers convert with ``float()`` and are in range; ``_row_record`` would
    accept it and build an equal record. Every other row goes through
    ``_row_record``. The caches are keyed on the raw value, and by its type
    for height and chroma: as dict keys, the invalid JSON ``1080.0`` and
    ``true`` equal the valid ``1080`` and ``1``. Each (title, metric) keeps
    its records in a dict by sort key, which finds repeated keys and sorts
    them.
    """
    inf = math.inf
    new = object.__new__
    resolutions: dict[int, Resolution] = {}
    groups: dict = {}  # (raw title, raw metric) -> (title, metric, records by sort key)
    heights: dict[type, dict] = {}  # type -> raw height -> Resolution
    chromas: dict[type, dict] = {}  # type -> raw chroma -> ChromaFormat
    datasets: dict[tuple[str, str], tuple] = {}  # (title, metric tag) -> groups' entry
    duplicate = None
    for row, values in rows:
        title, height, chroma, target, actual, metric, quality, decode = values
        try:
            t, m, group = groups[title, metric]
            res = heights[height.__class__][height]
            c = chromas[chroma.__class__][chroma]
            tk, ak, q, dk = float(target), float(actual), float(quality), float(decode)
        except (KeyError, TypeError, ValueError, OverflowError):
            fast = False
        else:
            # float() takes a bool; only JSON rows carry one.
            fast = (0.0 < tk < inf and 0.0 < ak < inf and 0.0 < dk < inf and -inf < q < inf
                    and target.__class__ is not bool and actual.__class__ is not bool
                    and quality.__class__ is not bool and decode.__class__ is not bool)
        if fast:
            score = new(QualityScore)
            _SET_METRIC(score, m)
            _SET_VALUE(score, q)
            rec = new(MeasurementRecord)
            _SET_TITLE(rec, t)
            _SET_RESOLUTION(rec, res)
            _SET_CHROMA(rec, c)
            _SET_TARGET(rec, tk)
            _SET_ACTUAL(rec, ak)
            _SET_QUALITY(rec, score)
            _SET_DECODE(rec, dk)
        else:
            rec = _row_record(row, values, resolutions)
            t, res, c, tk = rec.title_id, rec.resolution, rec.chroma, rec.target_bitrate
            m = rec.quality.metric
            entry = datasets.get((t, m.value))
            if entry is None:
                entry = datasets[t, m.value] = (t, m, {})
            t, m, group = groups[title, metric] = entry
            heights.setdefault(height.__class__, {})[height] = res
            chromas.setdefault(chroma.__class__, {})[chroma] = c
        if group.setdefault((tk, res.height, c.fidelity_rank), rec) is not rec and duplicate is None:
            duplicate = rec
    if duplicate is not None:
        raise DuplicateRecord(duplicate)
    out = []
    for t, m, group in map(datasets.__getitem__, sorted(datasets)):
        keys = sorted(group)
        out.append(TitleDataset._from_checked(
            t, tuple(map(group.__getitem__, keys)), tuple(dict.fromkeys(map(_FIRST, keys)))))
    return out


# -- serialization ----------------------------------------------------------


def csv_line_writer() -> Callable[[Sequence], str]:
    """A function that returns one row as CSV text ending in ``"\n"``. Each
    field is quoted on its own, so rows can be joined from parts, and a field
    that holds ``"\r"`` or ``"\n"`` is quoted on every interpreter: csv
    quotes the characters of its line terminator (Python 3.13 quotes both
    whatever the terminator), so lines are written ending in ``"\r\n"`` and
    end in ``"\n"`` when returned."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\r\n")

    def line(row: Sequence) -> str:
        writer.writerow(row)
        text = out.getvalue()
        out.seek(0)
        out.truncate()
        return text[:-2] + "\n"

    return line


def serialize_dataset(datasets: Iterable[TitleDataset], fmt: str = "csv") -> str:
    """Serialize datasets, in title order, back to the CSV or JSON wire form
    (round-trip exact)."""
    return "".join(serialized_pieces(sorted(datasets, key=_TITLE_ID), fmt))


# One record in CSV_HEADER order, given its title as the format writes it.
# Numbers are written by repr, as json writes them, and need no CSV quoting;
# a JSON record is an array entry as json.dumps(indent=2) writes it.
_CSV_RECORD = "{},{},{},{!r},{!r},{},{!r},{!r}\n"
_JSON_RECORD = (
    '\n  {{\n    "title": {},\n    "height": {},\n    "chroma": {},\n    "target_kbps": {!r},'
    '\n    "actual_kbps": {!r},\n    "metric": "{}",\n    "quality": {!r},'
    '\n    "decode_s_per_frame": {!r}\n  }}')
_TITLE_ID = operator.attrgetter("title_id")


def serialized_pieces(datasets: Iterable[TitleDataset], fmt: str) -> Iterator[str]:
    """The wire form of ``datasets`` in the order given, as the pieces that
    ``serialize_dataset`` joins: a head, one piece per dataset, made when it
    is reached, and a tail. Each record becomes text through one template,
    its title quoted once per dataset: by csv, or as json's ``ensure_ascii``
    string literal."""
    # Each format's head, the text between two records, its tail, and its
    # whole text when there is no record.
    if fmt == "csv":
        line = csv_line_writer()
        header = line(CSV_HEADER)
        head, template, between, tail, empty = header, _CSV_RECORD, "", "", header

        def quote(title: str) -> str:
            # Not alone in its row, where csv would quote an empty title.
            return line((title, ""))[:-2]
    elif fmt == "json":
        head, template, between, tail, empty = "[", _JSON_RECORD, ",", "\n]\n", "[]\n"
        quote = json.encoder.encode_basestring_ascii
    else:
        raise ValueError(f"unknown format {fmt!r}")
    written = False
    for ds in datasets:
        title = quote(ds.title_id)
        yield (between if written else head) + between.join([
            template.format(title, r.resolution.height, r.chroma.value, r.target_bitrate,
                            r.actual_bitrate, r.quality.metric.value, r.quality.value,
                            r.decode_time)
            for r in ds.records])
        written = True
    yield tail if written else empty


# -- candidate filtering ----------------------------------------------------

_TARGET = operator.attrgetter("target_bitrate")


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
    records = dataset.records
    if not cross_target:
        # Records are in (target, height, fidelity) order, so the target's
        # encodes are one run, already in the order returned.
        start = bisect_left(records, target, key=_TARGET)
        stop = bisect_right(records, target, start, key=_TARGET)
        return [r for r in records[start:stop] if lo <= r.actual_bitrate <= hi]
    out = [r for r in records if lo <= r.actual_bitrate <= hi]
    out.sort(key=lambda r: (r.resolution.height, r.chroma.fidelity_rank, r.target_bitrate))
    return out


def title_text(title: str) -> str:
    """A title as a one-line message prints it: as a JSON string literal if it
    holds a control character (below U+0020), so that each title keeps to its
    one line."""
    return json.encoder.encode_basestring(title) if any(c < " " for c in title) else title


def dataset_warnings(dataset: TitleDataset, tolerance: float = 0.10) -> list[str]:
    """Non-fatal data-quality findings, one line each: implausible scores and
    uncovered targets, with the tolerance in percent exactly as given."""
    warns = []
    title = title_text(dataset.title_id)
    for r in dataset.records:
        if not r.quality.plausible():
            lo, hi = PLAUSIBLE_RANGE[r.quality.metric]
            warns.append(
                f"{title}: quality {r.quality.value!r} outside plausible "
                f"[{lo}, {hi}] for {r.quality.metric.value} "
                f"({r.resolution.height}p/{r.chroma.value} @ {r.target_bitrate:g} kbps)"
            )
    uncovered = [t for t in dataset.bitrate_targets if not candidates_for(dataset, t, tolerance)]
    if uncovered:
        # Imported here: the ladder commands do not pay for loading it.
        from decimal import Decimal

        percent = format(Decimal(repr(tolerance)).scaleb(2), "f")
        warns += [f"{title}: no encode within ±{percent}% of {t:g} kbps; this rung will be absent"
                  for t in uncovered]
    return warns
