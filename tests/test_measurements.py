"""Data model, parsing, serialization, and candidate-window tests."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromaladder import (
    ChromaFormat,
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
from chromaladder.cli import _merge
from chromaladder.measurements import CSV_HEADER
from helpers import C420, C422, C444, grid_dataset, oracle_merge, oracle_parse_dataset, record

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

    def test_density_counts_both_chroma_planes(self):
        assert C420.chroma_density == Fraction(1, 2)
        assert C422.chroma_density == Fraction(1)
        assert C444.chroma_density == Fraction(2)

    def test_density_increases_with_fidelity(self):
        ranked = sorted(ChromaFormat, key=lambda c: c.fidelity_rank)
        densities = [c.chroma_density for c in ranked]
        assert densities == sorted(densities)


class TestResolution:
    @pytest.mark.parametrize("height,width", [(1080, 1920), (2160, 3840), (540, 960), (720, 1280)])
    def test_width_derived_as_16_9(self, height, width):
        assert Resolution(height).pixel_width == width

    def test_explicit_width_kept(self):
        assert Resolution(1080, 1440).pixel_width == 1440

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

    def test_duplicate_key_rejected(self):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "movie,2160,444,4500,4400,cvvdp,8.5,0.2\n"
            "movie,2160,444,4500,4600,cvvdp,8.6,0.21\n"
        )
        with pytest.raises(DuplicateRecord):
            parse_dataset(text)

    def test_mixed_metric_in_one_title_rejected(self):
        text = (
            "title,height,chroma,target_kbps,actual_kbps,metric,quality,decode_s_per_frame\n"
            "movie,1080,420,600,612,cvvdp,6.5,0.02\n"
            "movie,1080,422,600,615,psnr,38.2,0.03\n"
        )
        with pytest.raises(MixedQualityMetric):
            parse_dataset(text)

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
        assert parse_dataset(io.StringIO("\ufeff" + text), fmt) == parse_dataset(text)

    def test_only_one_byte_order_mark_is_dropped(self):
        with pytest.raises(MalformedRow) as exc:
            parse_dataset("\ufeff\ufeff" + HEADER_LINE)
        assert exc.value.row == 0


# Small value pools, so that records repeat within and across files and titles
# mix metrics; each file may carry one bad cell and one malformed row.
GOOD_VALUES = {
    "title": ["a", "b", " c "],
    "height": ["1080", "2160"],
    "chroma": ["420", "422", "444"],
    "target_kbps": ["600", "1200.0"],
    "actual_kbps": ["610.5", "1190"],
    "metric": ["cvvdp", "cvvdp", "cvvdp", "psnr"],
    "quality": ["7.5", "6.25"],
    "decode_s_per_frame": ["0.02", "0.5"],
}
BAD_CELLS = [
    ("title", ""), ("title", "  "),
    ("height", "x"), ("height", "0"), ("height", "-1080"), ("height", "1080.0"),
    ("chroma", "411"), ("chroma", "4:2:0"),
    ("target_kbps", "abc"), ("target_kbps", "0"), ("target_kbps", "nan"),
    ("actual_kbps", "inf"), ("actual_kbps", "-3"),
    ("metric", "vmaf"),
    ("quality", "q"), ("quality", "nan"),
    ("decode_s_per_frame", "0"), ("decode_s_per_frame", ""),
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
        bad = draw(st.none() | st.tuples(st.integers(0, 7), st.sampled_from(BAD_CELLS)))
        if bad is not None and bad[0] < len(rows):
            rows[bad[0]][bad[1][0]] = bad[1][1]
        flaw = draw(st.sampled_from([None, None, "short", "long", "keys", "entry"]))
        flaw_at = draw(st.integers(0, 7))
        if draw(st.booleans()):
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
            objs = [{name: _json_value(name, value) for name, value in row.items()}
                    for row in rows]
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
    except Exception as exc:  # the outcome compared is the exception's type and text
        return type(exc), str(exc)


DUPLICATE_AND_MIXED = (
    HEADER_LINE
    + "b,1080,420,600,610,cvvdp,7,0.02\n"
    + "b,1080,422,600,612,psnr,38,0.02\n"
    + "a,1080,422,600,610,cvvdp,7,0.02\n"
    + "a,1080,420,1200,1210,psnr,38,0.02\n"
    + "a,1080,422,600,605,cvvdp,7,0.02\n"
)


class TestSinglePassIngest:
    """``parse_dataset`` and the CLI's file merge against the frozen two-pass
    ingest in ``helpers``: equal datasets, or the same exception and message."""

    @settings(max_examples=300, deadline=None)
    @given(files=ingest_files())
    @example(files=[(False, "")])
    @example(files=[(False, "\n" + HEADER_LINE)])
    @example(files=[(True, "[]")])
    @example(files=[(False, "{}")])
    @example(files=[(False, "[{")])
    @example(files=[(False, DUPLICATE_AND_MIXED)])
    @example(files=[(False, DUPLICATE_AND_MIXED.replace("a,1080,422,600,605", "a,2160,422,600,605"))])
    @example(files=[(False, HEADER_LINE + "a,1080,420,600,610,cvvdp,7,0.02\n")] * 2)
    def test_matches_two_pass_ingest(self, files):
        for bom, text in files:
            assert _outcome(lambda: parse_dataset("\ufeff" + text if bom else text)) == (
                _outcome(lambda: oracle_parse_dataset(text)))
        got = _outcome(lambda: _merge(
            ds for bom, text in files for ds in parse_dataset("\ufeff" + text if bom else text)))
        want = _outcome(lambda: oracle_merge(
            ds for _, text in files for ds in oracle_parse_dataset(text)))
        assert got == want

    def test_duplicate_beats_an_earlier_mixed_metric(self):
        with pytest.raises(DuplicateRecord, match="'a'.*C422"):
            parse_dataset(DUPLICATE_AND_MIXED)
        # Without the duplicate, the first title to appear mixing metrics.
        with pytest.raises(MixedQualityMetric, match="'b'"):
            parse_dataset(DUPLICATE_AND_MIXED.replace("a,1080,422,600,605", "a,2160,422,600,605"))

    def test_title_from_one_file_keeps_its_parsed_dataset(self):
        one = serialize_dataset([full_grid("one")])
        two = serialize_dataset([full_grid("two")], fmt="json")
        (parsed_one,), (parsed_two,) = parse_dataset(one), parse_dataset(two)
        merged = _merge([parsed_two, parsed_one])
        assert list(merged.values()) == [parsed_one, parsed_two]
        assert merged["one", QualityMetric.CVVDP_JOD] is parsed_one

    def test_parsed_records_share_one_resolution_per_height(self):
        (ds,) = parse_dataset(serialize_dataset([full_grid()]))
        assert len({id(r.resolution) for r in ds.records}) == 2


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

    def test_uncovered_target_warns(self):
        ds = TitleDataset.from_records([record(target=600, actual=800)])
        warns = dataset_warnings(ds)
        assert any("absent" in w for w in warns)

    def test_psnr_has_no_upper_bound(self):
        ds = TitleDataset.from_records([record(quality=55.0, metric=QualityMetric.YUVPSNR_DB)])
        assert dataset_warnings(ds) == []

    def test_nonfinite_quality_is_hard_error(self):
        with pytest.raises(ValueError):
            QualityScore(QualityMetric.CVVDP_JOD, math.nan)
