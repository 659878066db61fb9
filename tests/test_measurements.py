"""Data model, parsing, serialization, and candidate-window tests."""

import csv
import io
import json
import math
import weakref
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromaladder import (
    ChromaFormat,
    MeasurementRecord,
    QualityMetric,
    QualityScore,
    Resolution,
    TitleDataset,
    candidates_for,
    dataset_warnings,
    parse_dataset,
    serialize_dataset,
)
from chromaladder.errors import (
    DuplicateRecord,
    MalformedRow,
    MixedQualityMetric,
    NonPositiveValue,
)
from chromaladder import measurements
from chromaladder.measurements import CSV_HEADER
from helpers import (
    C420,
    C422,
    C444,
    grid_dataset,
    oracle_parse_dataset,
    oracle_serialize_dataset,
    record,
)

TEN_TARGETS = (600.0, 900.0, 1600.0, 2400.0, 3400.0, 4500.0, 5800.0, 8100.0, 11600.0, 16800.0)


def full_grid(title="movie"):
    return grid_dataset(
        lambda h, c, b: 5.0 + h / 2160 + c.fidelity_rank / 10 + b / 20000,
        lambda h, c, b: 0.01 * (h / 1080) * (1 + c.fidelity_rank),
        title=title,
        targets=TEN_TARGETS,
    )


class TestChromaFormat:
    def test_fidelity_is_a_strict_total_order(self):
        assert C420.fidelity_rank < C422.fidelity_rank < C444.fidelity_rank


class TestResolution:
    @pytest.mark.parametrize("height,width", [(1080, 1920), (2160, 3840), (540, 960), (720, 1280)])
    def test_width_derived_as_16_9(self, height, width):
        assert Resolution(height).pixel_width == width

    def test_explicit_width_kept(self):
        assert Resolution(1080, 1440).pixel_width == 1440
        assert Resolution(1080, 1).pixel_width == 1
        with pytest.raises(NonPositiveValue, match="width"):
            Resolution(1080, 0)

    def test_nonpositive_height_rejected(self):
        with pytest.raises(NonPositiveValue):
            Resolution(0)


class TestParsing:
    def test_sixty_row_grid_parses_to_one_dataset(self):
        text = serialize_dataset([full_grid()])
        datasets = parse_dataset(text)
        assert len(datasets) == 1
        assert len(datasets[0].records) == 60
        assert datasets[0].bitrate_targets == TEN_TARGETS

    def test_zero_decode_time_is_nonpositive_value(self):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "movie,1080,420,600,612,cvvdp,6.5,0\n"
        )
        with pytest.raises(NonPositiveValue):
            parse_dataset(text)

    @pytest.mark.parametrize("row,message", [
        ("m,1080,420,600,612,cvvdp,6.5,inf",
         "row 2: decode_s_per_frame must be finite and > 0 (title 'm')"),
        ("m,1080,420,nan,612,cvvdp,6.5,0.02",
         "row 2: target_kbps must be finite and > 0 (title 'm')"),
        ("m,1080,420,600,-612,cvvdp,6.5,0.02",
         "row 2: actual_kbps must be finite and > 0 (title 'm')"),
        ("m,0,420,600,612,cvvdp,6.5,0",
         "row 2: height must be > 0"),
    ])
    def test_nonpositive_value_names_its_row(self, row, message):
        text = HEADER_LINE + "m,2160,420,600,612,cvvdp,6.5,0.02\n\n" + row + "\n"
        with pytest.raises(NonPositiveValue) as exc:
            parse_dataset(text)
        assert (exc.value.row, str(exc.value)) == (2, message)

    def test_constructed_record_needs_finite_positive_numbers(self):
        with pytest.raises(NonPositiveValue, match="^decode_s_per_frame must be finite and > 0"):
            record(decode=math.inf)
        with pytest.raises(NonPositiveValue) as exc:
            Resolution(0)
        assert (exc.value.row, str(exc.value)) == (None, "height must be > 0")

    def test_dataset_records_must_be_in_order(self):
        low, high = record(target=600.0), record(target=900.0)
        assert TitleDataset("t", (low, high), (600.0, 900.0)).records == (low, high)
        with pytest.raises(ValueError, match="order"):
            TitleDataset("t", (high, low), (600.0, 900.0))

    @pytest.mark.parametrize("targets", [(600.0, 600.0), (900.0, 600.0)])
    def test_dataset_targets_must_strictly_increase(self, targets):
        with pytest.raises(ValueError, match="^bitrate_targets must be strictly increasing$"):
            TitleDataset("t", (record(),), targets)

    def test_dataset_records_must_carry_its_title(self):
        with pytest.raises(ValueError, match="^record title 't' does not match dataset 'u'$"):
            TitleDataset("u", (record("t"),), (600.0,))

    def test_dataset_needs_a_record(self):
        with pytest.raises(ValueError, match="^from_records needs at least one record$"):
            TitleDataset.from_records([])

    def test_dataset_of_two_metrics_rejected(self):
        # The parser splits them; a library caller's dataset is checked.
        with pytest.raises(MixedQualityMetric, match="'t'"):
            TitleDataset.from_records([record(), record(target=900.0, metric=QualityMetric.YUVPSNR_DB)])

    def test_duplicate_key_rejected(self):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "movie,2160,444,4500,4400,cvvdp,8.5,0.2\n"
            "movie,2160,444,4500,4600,cvvdp,8.6,0.21\n"
        )
        with pytest.raises(DuplicateRecord) as got:
            parse_dataset(text)
        assert got.value.key == ("movie", Resolution(2160), C444, 4500.0)
        with pytest.raises(DuplicateRecord):
            TitleDataset.from_records([record(), record(quality=8.0)])

    def test_title_in_both_metrics_gives_two_datasets(self):
        header = "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
        cvvdp = "movie,1080,420,600,612,cvvdp,6.5,0.02\n"
        psnr = "movie,1080,422,600,615,psnr,38.2,0.03\n"
        datasets = parse_dataset(header + cvvdp + psnr)
        assert [(ds.title_id, ds.metric) for ds in datasets] == [
            ("movie", QualityMetric.CVVDP_JOD), ("movie", QualityMetric.YUVPSNR_DB)]
        assert datasets == parse_dataset([header + psnr, header + cvvdp])

    def test_same_encode_in_both_metrics_is_not_a_duplicate(self):
        header = "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
        datasets = parse_dataset(header + "movie,1080,420,600,612,cvvdp,6.5,0.02\n"
                                 + "movie,1080,420,600,612,psnr,38.2,0.02\n")
        assert [len(ds.records) for ds in datasets] == [1, 1]

    def test_bad_header_reports_row_zero(self):
        with pytest.raises(MalformedRow) as exc:
            parse_dataset("title,height\nmovie,1080\n")
        assert exc.value.row == 0

    def test_non_numeric_field_reports_row(self):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "movie,1080,420,600,612,cvvdp,6.5,0.02\n"
            "movie,1080,422,600,oops,cvvdp,6.6,0.03\n"
        )
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(text)
        assert exc.value.row == 2

    def test_unknown_chroma_rejected(self):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "movie,1080,411,600,612,cvvdp,6.5,0.02\n"
        )
        with pytest.raises(MalformedRow):
            parse_dataset(text)

    def test_json_form_accepted(self):
        text = serialize_dataset([full_grid()], fmt="json")
        datasets = parse_dataset(text)
        assert len(datasets[0].records) == 60
        # One object per record, two-space indented.
        assert text.startswith('[\n  {\n    "title": "movie",\n    "height": 1080,\n')

    def test_titles_sorted_lexicographically(self):
        text = serialize_dataset([full_grid("zeta"), full_grid("alpha")])
        assert [d.title_id for d in parse_dataset(text)] == ["alpha", "zeta"]


HEADER_LINE = ",".join(CSV_HEADER) + "\n"


class TestJsonAndBom:
    def json_text(self, **changes):
        obj = {"title": "movie", "height": 1080, "chroma": 420, "target_kbps": 600.0,
               "actual_kbps": 612.0, "metric": "cvvdp", "quality": 6.5,
               "decode_s_per_frame": 0.02}
        good = dict(obj, height=2160)
        return json.dumps([good, {**obj, **changes}])

    @pytest.mark.parametrize("title", [None, 7, ["movie"]])
    def test_title_must_be_a_json_string(self, title):
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(self.json_text(title=title))
        assert exc.value.row == 2
        assert str(exc.value) == f"row 2: title {title!r} is not a string"

    @pytest.mark.parametrize("field", ["target_kbps", "actual_kbps", "quality",
                                       "decode_s_per_frame"])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_is_not_a_number(self, field, value):
        with pytest.raises(MalformedRow) as exc:
            parse_dataset(self.json_text(**{field: value}))
        assert str(exc.value) == f"row 2: {field} {value!r} is not a number"

    def test_numeric_strings_and_integer_chroma_accepted(self):
        text = self.json_text(height="1080", chroma=420, target_kbps="600", quality=" 6.5 ")
        (ds,) = parse_dataset(text)
        rec = ds.records[0]
        assert (rec.resolution.height, rec.chroma, rec.target_bitrate, rec.quality.value) == (
            1080, C420, 600.0, 6.5)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_leading_byte_order_mark_is_dropped(self, fmt):
        text = serialize_dataset([full_grid()], fmt=fmt)
        assert parse_dataset("\ufeff" + text) == parse_dataset(text)
        assert parse_dataset(io.StringIO("\ufeff" + text)) == parse_dataset(text)

    def test_only_one_byte_order_mark_is_dropped(self):
        with pytest.raises(MalformedRow) as exc:
            parse_dataset("\ufeff\ufeff" + HEADER_LINE)
        assert exc.value.row == 0


# Small value pools, so that records repeat within and across files and titles
# mix metrics; each file may carry bad cells and one malformed row.
GOOD_VALUES = {
    "title": ["a", "b", " c ", "c"],
    "height": ["1080", "2160", " 1 "],
    "chroma": ["420", "422", "444", " 420"],
    "target_kbps": ["600", "1200.0", "1e3"],
    "actual_kbps": ["610.5", "1190", " 7 "],
    "metric": ["cvvdp", "cvvdp", "cvvdp", "psnr", "psnr "],
    "quality": ["7.5", "6.25", "0", "-3.5", "1"],
    "decode_s_per_frame": ["0.02", "0.5", "1"],
}
BAD_CELLS = [
    ("title", ""), ("title", "  "),
    ("height", "x"), ("height", "0"), ("height", "-1080"), ("height", "1080.0"),
    ("chroma", "411"), ("chroma", "4:2:0"),
    ("metric", "vmaf"),
    ("target_kbps", "abc"), ("target_kbps", "0"), ("target_kbps", "nan"),
    ("target_kbps", "-inf"),
    ("actual_kbps", "inf"), ("actual_kbps", "-3"), ("actual_kbps", "0.0"),
    ("quality", "q"), ("quality", "nan"), ("quality", "inf"), ("quality", "-inf"),
    ("decode_s_per_frame", "0"), ("decode_s_per_frame", ""), ("decode_s_per_frame", "inf"),
    ("decode_s_per_frame", "-0.5"),
]
# Cells only JSON can carry. Some equal a valid cell of another type (1080.0
# and 1080, true and 1), which the parser's per-value caches must tell apart.
JSON_BAD_CELLS = [
    ("title", 7), ("title", None), ("title", ["a"]), ("title", True),
    ("height", 1080.0), ("height", True), ("height", [1080]), ("height", 10**400),
    ("chroma", 420.0), ("chroma", True), ("chroma", {"420": 1}),
    ("metric", ["cvvdp"]), ("metric", None),
    ("target_kbps", True), ("target_kbps", 10**400), ("actual_kbps", False),
    ("quality", True), ("quality", False), ("quality", None),
    ("decode_s_per_frame", True), ("decode_s_per_frame", {"s": 1}),
]


def _json_value(name, value):
    """A CSV cell as JSON would carry it: numbers as numbers where they parse."""
    try:
        if name in ("height", "chroma"):
            return int(value)
        if name not in ("title", "metric"):
            return float(value)
    except ValueError:
        pass
    return value


@st.composite
def ingest_files(draw):
    """One to three ``(byte order mark, text)`` measurement files."""
    files = []
    for _ in range(draw(st.integers(1, 3))):
        rows = draw(st.lists(st.fixed_dictionaries(
            {name: st.sampled_from(values) for name, values in GOOD_VALUES.items()}),
            max_size=8))
        as_json = draw(st.booleans())
        if as_json:
            # Each cell keeps its CSV string or becomes a JSON number, so one
            # file mixes "1080" and 1080.
            rows = [{name: value if draw(st.booleans()) else _json_value(name, value)
                     for name, value in row.items()} for row in rows]
        # A row may repeat an earlier row's raw title, height, chroma and
        # metric, so that its bad cells meet the parser's caches.
        for i in range(1, len(rows)):
            if draw(st.booleans()):
                rows[i].update((name, rows[draw(st.integers(0, i - 1))][name])
                               for name in ("title", "height", "chroma", "metric"))
        bad_cells = BAD_CELLS + JSON_BAD_CELLS if as_json else BAD_CELLS
        bads = draw(st.lists(st.tuples(st.integers(0, 7), st.sampled_from(bad_cells)), max_size=2))
        flaw = draw(st.sampled_from([None, None, "short", "long", "keys", "entry"]))
        flaw_at = draw(st.integers(0, 7))
        if not as_json:
            for at, (name, value) in bads:
                if at < len(rows):
                    rows[at][name] = value
            columns = list(CSV_HEADER)
            if draw(st.booleans()):
                columns = draw(st.permutations(CSV_HEADER))
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            pad = draw(st.booleans())
            writer.writerow([f" {c} " if pad else c for c in columns])
            for i, row in enumerate(rows):
                cells = [row[c] for c in columns]
                if i == flaw_at and flaw == "short":
                    cells = cells[:-1]
                elif i == flaw_at and flaw == "long":
                    cells.append("extra")
                if draw(st.booleans()):
                    out.write("\n")
                writer.writerow(cells)
            text = out.getvalue()
        else:
            objs = rows
            for at, (name, value) in bads:
                if at < len(objs):
                    objs[at][name] = value
            if flaw_at < len(objs) and flaw == "keys":
                objs[flaw_at].pop("quality")
            elif flaw_at < len(objs) and flaw == "entry":
                objs[flaw_at] = list(objs[flaw_at].values())
            text = json.dumps(objs)
        files.append((draw(st.booleans()), text))
    return files


def _outcome(call):
    try:
        return call()
    except Exception as exc:  # the outcome compared is the exception's type, row and text
        return type(exc), getattr(exc, "row", None), str(exc)


def _json_pair(**changes):
    """A JSON file of a valid row and of the row at a higher target with
    ``changes``."""
    row = {"title": "a", "height": 1, "chroma": 420, "target_kbps": 600, "actual_kbps": 610,
           "metric": "cvvdp", "quality": 7, "decode_s_per_frame": 0.02}
    return json.dumps([row, {**row, "target_kbps": 900, **changes}])


DUPLICATE_AND_MIXED = (
    HEADER_LINE
    + "b,1080,420,600,610,cvvdp,7,0.02\n"
    + "b,1080,422,600,612,psnr,38,0.02\n"
    + "a,1080,422,600,610,cvvdp,7,0.02\n"
    + "a,1080,420,1200,1210,psnr,38,0.02\n"
    + "a,1080,422,600,605,cvvdp,7,0.02\n"
)


class TestSinglePassIngest:
    """``parse_dataset`` and the CLI's file merge against the frozen
    row-by-row ingest in ``helpers``: equal datasets, or the same exception,
    row and message."""

    @settings(max_examples=400, deadline=None)
    @given(files=ingest_files())
    @example(files=[(False, "")])
    @example(files=[(False, "\n" + HEADER_LINE)])
    @example(files=[(True, "[]")])
    @example(files=[(False, "{}")])
    @example(files=[(False, "[{")])
    @example(files=[(False, DUPLICATE_AND_MIXED)])
    @example(files=[(False, DUPLICATE_AND_MIXED.replace("a,1080,422,600,605", "a,2160,422,600,605"))])
    @example(files=[(False, HEADER_LINE + "a,1080,420,600,610,cvvdp,7,0.02\n")] * 2)
    # A valid row, then one that differs from it in a cell only: each cell
    # equals a value the first row put in the parser's caches, or its number
    # converts but is out of range.
    @example(files=[(False, _json_pair(height=True))])
    @example(files=[(False, _json_pair(height=1.0))])
    @example(files=[(False, _json_pair(chroma=420.0))])
    @example(files=[(False, _json_pair(target_kbps=True))])
    @example(files=[(False, _json_pair(quality=False))])
    @example(files=[(False, _json_pair(decode_s_per_frame=math.inf))])
    @example(files=[(False, _json_pair(actual_kbps=-math.inf))])
    @example(files=[(False, _json_pair(actual_kbps=math.inf))])
    @example(files=[(False, _json_pair(quality=math.nan))])
    @example(files=[(False, _json_pair(quality=math.inf))])
    @example(files=[(False, _json_pair(decode_s_per_frame=0))])
    # Line breaks other than "\n", quoted newlines, characters outside the
    # ASCII and the Basic Multilingual Plane, and a lone surrogate.
    @example(files=[(False, HEADER_LINE + '"\u00e9\U0001f600\u2028t\x0bx",1080,420,600,610,cvvdp,7,1\r\n'
                     + '"two\nlines",1080,420,600,610,cvvdp,7,1\n'
                     + '\ud800,1080,420,600,610,cvvdp,7,1\n\x1c\n'
                     + 'a\rb,1080,420,600,610,cvvdp,7,1\n')])
    @example(files=[(False, HEADER_LINE + '\u00e9,1080,420,600,610,cvvdp,7,1\n'
                     + '"\u00e9",1080,420,900,910,cvvdp,7,1\r'
                     + '\u00e9\u2029,1080,420,600,610,cvvdp,7,1\n')])
    def test_matches_row_by_row_ingest(self, files):
        texts = ["\ufeff" + text if bom else text for bom, text in files]
        for text in texts:
            assert _outcome(lambda: parse_dataset(text)) == _outcome(
                lambda: oracle_parse_dataset(text))
        assert _outcome(lambda: parse_dataset(texts)) == _outcome(lambda: oracle_parse_dataset(texts))

    def test_duplicate_beats_an_earlier_mixed_metric(self):
        with pytest.raises(DuplicateRecord, match="title 'a', .*chroma 422"):
            parse_dataset(DUPLICATE_AND_MIXED)
        # Without the duplicate, each title's two metrics are two datasets.
        datasets = parse_dataset(
            DUPLICATE_AND_MIXED.replace("a,1080,422,600,605", "a,2160,422,600,605"))
        assert [(ds.title_id, ds.metric.value, len(ds.records)) for ds in datasets] == [
            ("a", "cvvdp", 2), ("a", "psnr", 1), ("b", "cvvdp", 1), ("b", "psnr", 1)]

    def test_row_error_in_a_later_source_beats_a_duplicate(self):
        row = "a,1080,420,600,610,cvvdp,7,0.02\n"
        with pytest.raises(MalformedRow, match="row 1: height"):
            parse_dataset([HEADER_LINE + row + row, HEADER_LINE + row.replace("1080", "x")])

    def test_each_source_is_read_when_reached_and_dropped_after_its_rows(self, monkeypatch):
        readers, real = [], measurements._rows_from_csv

        def csv_rows(text):
            rows = real(text)
            readers.append(weakref.ref(rows))
            return rows

        monkeypatch.setattr(measurements, "_rows_from_csv", csv_rows)
        alive = []

        def texts():
            for title in "ab":
                alive.append([reader() is not None for reader in readers])
                yield HEADER_LINE + f"{title},1080,420,600,610,cvvdp,7,0.02\n"

        assert [ds.title_id for ds in parse_dataset(texts())] == ["a", "b"]
        # The first text is read only when the parse starts, and its rows
        # are gone before the second is read.
        assert alive == [[], [False]]
        stream = io.StringIO(HEADER_LINE + "a,1080,420,600,610,psnr,38,0.02\n")
        (ds,) = parse_dataset(stream)
        assert ds.metric is QualityMetric.YUVPSNR_DB and stream.read() == ""

    def test_bare_carriage_return_in_a_field_is_a_malformed_row(self):
        text = HEADER_LINE + '"e",1080,420,900,910,cvvdp,7,1\rf,1080,420,600,610,cvvdp,7,1\n'
        with pytest.raises(MalformedRow, match="row 1: invalid CSV: new-line character"):
            parse_dataset(text)

    def test_parsed_records_share_one_resolution_per_height(self):
        (ds,) = parse_dataset(serialize_dataset([full_grid()]))
        assert len({id(r.resolution) for r in ds.records}) == 2


class TestRecordInvariants:
    """Parsed records fill their slots without the constructors; they must be
    the records the constructors build, frozen and hashable alike."""

    @staticmethod
    def parsed(fmt):
        ds = full_grid()
        recs = list(ds.records) + [record("movie", 720, target=t, quality=3.5, decode=0.01)
                                   for t in TEN_TARGETS[:2]]
        (parsed,) = parse_dataset(serialize_dataset([TitleDataset.from_records(recs)], fmt=fmt))
        return parsed

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parsed_record_is_the_constructed_record(self, fmt):
        records = self.parsed(fmt).records
        # One shared Resolution per height.
        assert len({id(rec.resolution) for rec in records}) == 3
        for rec in records:
            built = MeasurementRecord(
                rec.title_id, Resolution(rec.resolution.height), rec.chroma, rec.target_bitrate,
                rec.actual_bitrate, QualityScore(rec.quality.metric, rec.quality.value),
                rec.decode_time)
            assert rec == built and built == rec
            assert hash(rec) == hash(built)
            assert repr(rec) == repr(built)
            assert (hash(rec.quality), hash(rec.resolution)) == (
                hash(built.quality), hash(built.resolution))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_records_are_frozen_hashable_and_slotted(self, fmt):
        parsed = self.parsed(fmt).records[0]
        for rec in (parsed, record()):
            for obj, name in ((rec, "decode_time"), (rec, "title_id"), (rec.quality, "value"),
                              (rec.resolution, "height")):
                with pytest.raises(FrozenInstanceError):
                    setattr(obj, name, 1)
                with pytest.raises(FrozenInstanceError):
                    delattr(obj, name)
                assert not hasattr(obj, "__dict__")
            assert len({rec, rec.quality, rec.resolution}) == 3
        assert parsed == self.parsed(fmt).records[0] and parsed is not self.parsed(fmt).records[0]

    def test_replace_checks_a_parsed_record(self):
        rec = self.parsed("csv").records[0]
        assert replace(rec, decode_time=0.5).decode_time == 0.5
        with pytest.raises(NonPositiveValue):
            replace(rec, decode_time=0.0)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_parse_serialize_parse_identity(self, fmt):
        first = parse_dataset(serialize_dataset([full_grid()], fmt=fmt))
        second = parse_dataset(serialize_dataset(first, fmt=fmt))
        assert first == second

    def test_awkward_floats_survive(self):
        ds = TitleDataset.from_records(
            [record(target=600.1, actual=612.345678901234, quality=6.123456789012345, decode=0.0123456789)]
        )
        assert parse_dataset(serialize_dataset([ds])) == [ds]

    @settings(max_examples=100, deadline=None)
    @given(
        title=st.lists(st.sampled_from(["\r", "\n", "\r\n", '"', ",", " ", "é", "中文", "x"]),
                       min_size=1, max_size=6).map("".join).filter(lambda t: t.strip() == t != ""),
        fmt=st.sampled_from(["csv", "json"]),
    )
    def test_any_title_survives(self, title, fmt):
        ds = TitleDataset.from_records([record(title, target=600.0), record(title, target=900.0)])
        assert parse_dataset(serialize_dataset([ds], fmt)) == [ds]


# Titles that csv must quote and json must escape: quotes, commas, line
# breaks, control characters, non-ASCII text and a lone surrogate.
AWKWARD_CHARS = ['"', ",", "\r", "\n", " ", "\x00", "\x1f", "\x7f", "\x85", "\u2028", "é", "中文",
                 "😀", "\ud800"]
# Numbers as a library caller may give them: floats and ints.
POSITIVE = st.one_of(st.floats(0.0, math.inf, exclude_min=True, exclude_max=True),
                     st.integers(1, 10**20))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-10**6, 10**6))


@st.composite
def title_datasets(draw) -> list[TitleDataset]:
    """A few datasets, whose titles may repeat with another metric."""
    datasets = []
    for _ in range(draw(st.integers(0, 4))):
        title = draw(st.lists(st.one_of(st.sampled_from(AWKWARD_CHARS), st.characters()),
                              max_size=5).map("".join))
        metric = draw(st.sampled_from(QualityMetric))
        points = draw(st.lists(
            st.tuples(st.sampled_from([1, 1080, 2160]), st.sampled_from(ChromaFormat), POSITIVE,
                      POSITIVE, FINITE, POSITIVE),
            min_size=1, max_size=3, unique_by=lambda p: p[:3]))
        datasets.append(TitleDataset.from_records(
            MeasurementRecord(title, Resolution(h), c, target, actual, QualityScore(metric, q), d)
            for h, c, target, actual, q, d in points))
    return datasets


def _int_valued(title: str) -> TitleDataset:
    return TitleDataset.from_records([MeasurementRecord(
        title, Resolution(1080), C420, 600, 612, QualityScore(QualityMetric.CVVDP_JOD, 7), 1)])


class TestSerialization:
    """``serialize_dataset`` against the frozen one-dict-per-record
    serializer in ``helpers``: the same text, or the same exception (Python
    3.10's csv cannot write a NUL)."""

    @settings(max_examples=200, deadline=None)
    @given(datasets=title_datasets(), fmt=st.sampled_from(["csv", "json"]))
    @example(datasets=[], fmt="csv")
    @example(datasets=[], fmt="json")
    @example(datasets=[full_grid("zeta"), _int_valued(""), full_grid("alpha")], fmt="csv")
    @example(datasets=[full_grid("zeta"), _int_valued(""), full_grid("alpha")], fmt="json")
    @example(datasets=[_int_valued('a "b",\r\n\x00é😀\ud800')], fmt="csv")
    @example(datasets=[_int_valued('a "b",\r\n\x1fé😀\ud800')], fmt="json")
    def test_equals_one_dict_per_record(self, datasets, fmt):
        assert _outcome(lambda: serialize_dataset(datasets, fmt)) == _outcome(
            lambda: oracle_serialize_dataset(datasets, fmt))

    def test_unknown_format_rejected(self):
        for datasets in ([], [full_grid()]):
            with pytest.raises(ValueError, match="^unknown format 'xml'$"):
                serialize_dataset(datasets, "xml")


class TestCandidates:
    def test_window_arithmetic_ten_percent(self):
        ds = TitleDataset.from_records(
            [
                record(height=1080, target=4500, actual=4050.0),
                record(height=2160, target=4500, actual=4950.0),
                record(height=1080, chroma=C422, target=4500, actual=4049.9),
                record(height=2160, chroma=C422, target=4500, actual=4950.1),
            ]
        )
        got = candidates_for(ds, 4500.0, 0.10)
        assert [(r.resolution.height, r.chroma) for r in got] == [(1080, C420), (2160, C420)]

    def test_zero_tolerance_needs_exact_hit(self):
        ds = TitleDataset.from_records(
            [record(target=600, actual=600.0), record(chroma=C422, target=600, actual=600.2)]
        )
        got = candidates_for(ds, 600.0, 0.0)
        assert [r.chroma for r in got] == [C420]

    def test_full_pool_ordered_by_resolution_then_fidelity(self):
        ds = grid_dataset(
            lambda h, c, b: 6.0,
            lambda h, c, b: 0.05,
            targets=(600.0,),
            actual_fn=lambda h, c, b: b * (1 + 0.01 * c.fidelity_rank * (1 if h == 1080 else -1)),
        )
        got = candidates_for(ds, 600.0, 0.10)
        assert [(r.resolution.height, r.chroma) for r in got] == [
            (1080, C420),
            (1080, C422),
            (1080, C444),
            (2160, C420),
            (2160, C422),
            (2160, C444),
        ]

    @pytest.mark.parametrize("target,tolerance,message", [
        (600.0, -0.01, "tolerance must be >= 0"),
        (0.0, 0.10, "target must be > 0"),
        (math.nan, 0.10, "target must be > 0"),
    ])
    def test_window_arguments_checked(self, target, tolerance, message):
        for cross_target in (False, True):
            with pytest.raises(ValueError, match=f"^{message}$"):
                candidates_for(TitleDataset.from_records([record()]), target, tolerance,
                               cross_target=cross_target)

    def test_other_targets_excluded_without_cross_target(self):
        ds = TitleDataset.from_records(
            [record(target=600, actual=610), record(chroma=C422, target=620, actual=605)]
        )
        assert [r.chroma for r in candidates_for(ds, 600.0, 0.10)] == [C420]
        both = candidates_for(ds, 600.0, 0.10, cross_target=True)
        assert [r.chroma for r in both] == [C420, C422]

    @given(
        target=st.floats(min_value=100.0, max_value=20000.0),
        tolerance=st.floats(min_value=0.0, max_value=0.5),
        offsets=st.lists(st.floats(min_value=-0.5, max_value=0.5), min_size=1, max_size=12),
    )
    def test_window_inequality_and_determinism(self, target, tolerance, offsets):
        recs = [
            record(
                height=1080 if i % 2 == 0 else 2160,
                chroma=list(ChromaFormat)[i % 3],
                target=target + i,  # distinct keys
                actual=max(target * (1 + off), 1e-6),
            )
            for i, off in enumerate(offsets)
        ]
        ds = TitleDataset.from_records(recs)
        got = candidates_for(ds, target, tolerance, cross_target=True)
        lo, hi = target * (1 - tolerance), target * (1 + tolerance)
        for r in got:
            assert lo <= r.actual_bitrate <= hi
        for r in ds.records:
            if lo <= r.actual_bitrate <= hi:
                assert r in got
        assert got == candidates_for(ds, target, tolerance, cross_target=True)


class TestWarnings:
    def test_implausible_quality_warns_but_parses(self):
        ds = TitleDataset.from_records([record(quality=10.3)])
        warns = dataset_warnings(ds)
        assert len(warns) == 1 and "plausible" in warns[0]
        # The range's ends are plausible.
        for quality in (0.0, 10.0):
            assert dataset_warnings(TitleDataset.from_records([record(quality=quality)])) == []

    def test_uncovered_target_warns(self):
        ds = TitleDataset.from_records([record(target=600, actual=800)])
        warns = dataset_warnings(ds)
        assert any("absent" in w for w in warns)

    def test_tolerance_prints_as_given(self):
        ds = TitleDataset.from_records([record(target=600, actual=900)])
        for tolerance, text in ((0.005, "0.5"), (0.125, "12.5"), (0.10, "10")):
            assert dataset_warnings(ds, tolerance) == [
                f"t: no encode within ±{text}% of 600 kbps; this rung will be absent"]

    def test_psnr_has_no_upper_bound(self):
        ds = TitleDataset.from_records([record(quality=55.0, metric=QualityMetric.YUVPSNR_DB)])
        assert dataset_warnings(ds) == []

    def test_nonfinite_quality_is_hard_error(self):
        with pytest.raises(ValueError):
            QualityScore(QualityMetric.CVVDP_JOD, math.nan)
