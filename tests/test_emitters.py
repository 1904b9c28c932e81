"""The block-formatted emitters (geometry JSON, CSV, SVG) against the
per-value oracle in `emitter_oracle`: byte equality at block boundaries and
on values whose formatting has special cases (negative zero, tiny
negatives, infinities, NaN, subnormals), the streamed files against the
documents, and the checks that run before any file is created."""

import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import emitter_oracle as oracle
import trapcert.cli as cli
from columns import make_boxes, take
from trapcert.certify import Certificates, certify_geometry
from trapcert.geometry import GeometryError, GeometrySummary, build_layered
from trapcert.sequences import APower, DTable, KTable, Schedule, demo_schedule

BLOCK = cli._BLOCK_ROWS
SPECIAL = [0.0, -0.0, 1e-7, -1e-7, -4.9e-7, -5e-7, -5.000001e-7, 5e-7, 1e-300,
           -1e-300, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf,
           math.nan, 0.1, 1.0 / 3.0, -2.5, 1e16, 123456.0000005]


@pytest.fixture(scope="module")
def built():
    boxes, summary = build_layered(demo_schedule(), 50)
    assert len(boxes) == 4462 > 2 * BLOCK
    return boxes, certify_geometry(boxes), summary


def written(emit, data, path) -> str:
    """The text that `emit` streams into the file `path`."""
    emit(data, str(path))
    return path.read_bytes().decode("utf-8")


def certificates(values) -> Certificates:
    """Certificates whose seven float columns are rotations of `values`."""
    values = np.asarray(values, dtype=float)
    cols = [np.roll(values, shift) for shift in range(7)]
    return Certificates(j=np.arange(1, len(values) + 1),
                        k=cols[0], a=cols[1], eps=cols[2], infsup_ub=cols[3],
                        infsup_ub_inv_identity=cols[3], c_prime_lb=cols[4],
                        c_lb=cols[5], margin=cols[6])


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1])
def test_csv_equals_the_oracle_at_block_boundaries(built, tmp_path, rows):
    records = take(built[1], slice(0, rows))
    expected = oracle.certificates_csv(records)
    assert written(cli.emit_certificates_csv, records, tmp_path / "c.csv") == expected


@pytest.mark.parametrize("rows", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1])
def test_svg_equals_the_oracle_at_block_boundaries(built, tmp_path, rows):
    boxes = take(built[0], slice(0, rows))
    assert written(cli.emit_svg, boxes, tmp_path / "f.svg") == oracle.svg_document(boxes)


def test_csv_special_values_equal_the_oracle(tmp_path):
    records = certificates(SPECIAL)
    text = written(cli.emit_certificates_csv, records, tmp_path / "c.csv")
    assert text == oracle.certificates_csv(records)
    for literal in (",-0,", ",inf,", ",-inf,", ",nan,", ",4.9406564584124654e-324,"):
        assert literal in text


def test_svg_negative_zero_and_tiny_negatives_equal_the_oracle(tmp_path):
    # corners at 0 and just below: -y of a level at height 0 is -0.0, and a
    # tiny negative rounds to -0.000000, which must print as 0.000000
    count = len(SPECIAL)
    finite = [v if math.isfinite(v) and abs(v) < 1e6 else 0.0 for v in SPECIAL]
    lo = np.column_stack((finite, np.roll(finite, 3)))
    boxes = make_boxes(j=range(1, count + 1), layer=[1] * count,
                       side=[abs(v) + 1e-7 for v in np.roll(finite, 5)], lo=lo,
                       gap=[0.5] * count, k=[1.0] * count, a=[1.0] * count)
    text = written(cli.emit_svg, boxes, tmp_path / "f.svg")
    assert text == oracle.svg_document(boxes)
    assert " -0.000000" not in text and '"-0.000000' not in text


def test_svg_non_finite_coordinates_equal_the_oracle(tmp_path):
    # every corner is finite, but the view's width overflows to inf, and so
    # do the view coordinates derived from it
    lo = [(0.0, 0.0), (1e308, 1.0), (-1e308, -2.0), (5e-324, -5e-324)]
    boxes = make_boxes(j=[1, 2, 3, 4], layer=[1] * 4, side=[1.0, 2.0, 5e-324, 1e-300],
                       lo=lo, gap=[0.5] * 4, k=[1.0] * 4, a=[1.0] * 4)
    with np.errstate(all="ignore"):
        assert written(cli.emit_svg, boxes, tmp_path / "f.svg") == oracle.svg_document(boxes)


finite_or_not = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@given(v=finite_or_not)
@settings(max_examples=2000, deadline=None)
def test_percent_format_equals_format_spec(v):
    assert "%.17g" % v == format(v, ".17g")
    assert "%.6f" % v == format(v, ".6f")


@given(values=st.lists(finite_or_not, min_size=1, max_size=23),
       block=st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_random_columns_equal_the_oracle_at_any_block_size(tmp_path_factory, values,
                                                           block):
    records = certificates(values)
    # the boxes keep every upper corner finite and every side positive, as
    # a `Boxes` must
    small = [v if abs(v) <= 1e307 else 0.0 for v in values]
    count = len(small)
    boxes = make_boxes(j=range(1, count + 1), layer=[1] * count,
                       side=[min(abs(v), 1e300) or 5e-324 for v in np.roll(small, 1)],
                       lo=np.column_stack((small, np.roll(small, 2))),
                       gap=[0.25] * count, k=[1.0] * count, a=[1.0] * count)
    out = tmp_path_factory.getbasetemp()
    with mock.patch.object(cli, "_BLOCK_ROWS", block), np.errstate(all="ignore"):
        assert (written(cli.emit_certificates_csv, records, out / "random.csv")
                == oracle.certificates_csv(records))
        assert written(cli.emit_svg, boxes, out / "random.svg") == oracle.svg_document(boxes)


def test_emitters_stream_bounded_blocks(built, tmp_path, monkeypatch):
    boxes, records, summary = built
    seen = []
    write = cli._write_text_atomic

    def recording(path, chunks):
        assert not isinstance(chunks, (str, list))

        def spy():
            for chunk in chunks:
                seen.append(chunk.count("\n" if isinstance(chunk, str) else b"\n"))
                yield chunk
        write(path, spy())

    monkeypatch.setattr(cli, "_write_text_atomic", recording)
    cli.emit_certificates_csv(records, str(tmp_path / "c.csv"))
    assert max(seen) == BLOCK and sum(seen) == len(records) + 1
    seen.clear()
    cli.emit_svg(boxes, str(tmp_path / "f.svg"))
    assert max(seen) == BLOCK and sum(seen) == len(boxes) + 5
    seen.clear()
    cli.emit_geometry_json(boxes, summary, str(tmp_path / "g.json"))
    # the head rides with the first block; a planar box is 12 lines
    assert len(seen) == 4 and seen[1] == 12 * BLOCK
    assert sum(seen) == oracle.geometry_json(boxes, summary).count("\n")


def streamed(blocks):
    for chunk in blocks:
        del chunk  # each block is freed before the next is made, as when written


def test_emitter_allocation_peaks(built):
    """tracemalloc's traced peak of streaming the CSV and the SVG of the
    50-layer figure stays at most the peak of the kernel that made one call
    per column, 1,042,667 and 1,080,227 bytes (numpy 2.4).  A (rows, width)
    gather index for the whole field, or all seven CSV float columns in one
    call, crosses the bound.  The geometry JSON of the 50-layer figure and
    of the 6-layer n=4 figure stays at most the peak of the one `%` call per
    block that it replaces, 1,537,325 and 1,795,777 bytes.  The traced peak
    counts Python and numpy allocations only: it does not see the process's
    resident set (what the benchmark's `peak_rss_mib` reads), so a change
    that holds the same bytes in more or larger arrays can raise the RSS
    and pass here."""
    boxes, records, summary = built
    boxes4, summary4 = build_layered(demo_schedule(4), 6)
    assert len(boxes4) == 3224 > BLOCK
    for blocks, bound in ((lambda: cli._csv_blocks(records), 1_042_667),
                          (lambda: cli._svg_blocks(boxes), 1_080_227),
                          (lambda: cli._json_blocks(boxes, summary), 1_537_325),
                          (lambda: cli._json_blocks(boxes4, summary4), 1_795_777)):
        streamed(blocks())  # first-call caches
        tracemalloc.start()
        try:
            streamed(blocks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


@pytest.mark.parametrize("case", ["empty", "non-planar"])
def test_svg_refused_before_any_file_is_created(tmp_path, monkeypatch, case):
    def no_file(*args, **kwargs):
        raise AssertionError("a file was created")

    monkeypatch.setattr(cli.tempfile, "mkstemp", no_file)
    with pytest.raises(GeometryError):
        # an empty arrangement is refused already when its `Boxes` is made
        boxes = (take(build_layered(demo_schedule(), 2)[0], slice(0, 0)) if case == "empty"
                 else build_layered(demo_schedule(3), 2)[0])
        cli.emit_svg(boxes, str(tmp_path / "f.svg"))
    assert os.listdir(tmp_path) == []


def test_failure_while_streaming_keeps_the_old_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("old\n")

    def chunks():
        yield "new\n"
        raise GeometryError("stopped midway")

    with pytest.raises(GeometryError, match="midway"):
        cli._write_text_atomic(str(path), chunks())
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["f.txt"]


# -------------------------------------------------------------------
# geometry JSON
# -------------------------------------------------------------------

def json_text(boxes, summary):
    return b"".join(cli._json_blocks(boxes, summary)).decode("utf-8")


def assert_json_equals_the_oracle(boxes, summary, path):
    expected = oracle.geometry_json(boxes, summary)
    assert json_text(boxes, summary) == expected
    cli.emit_geometry_json(boxes, summary, str(path))
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1])
def test_json_equals_the_oracle_at_block_boundaries(built, tmp_path, rows):
    boxes, _, summary = built
    if rows == 0:
        # no document of zero boxes exists: an empty `Boxes` is refused
        with pytest.raises(GeometryError, match="at least one box"):
            take(boxes, slice(0, 0))
        return
    assert_json_equals_the_oracle(take(boxes, slice(0, rows)), summary,
                                  tmp_path / "g.json")


def stacked_schedule(n):
    base = math.pi * math.sqrt(n)
    return Schedule(n, KTable([base * 2.0 ** i for i in range(8)]), APower(1e-4, 0.25),
                    DTable([0.5 ** i for i in range(7)]))


@pytest.mark.parametrize("build", [
    lambda: build_layered(demo_schedule(3), 4),
    lambda: build_layered(demo_schedule(4), 3),
    lambda: build_layered(demo_schedule(9), 2),
    lambda: build_layered(stacked_schedule(2), 6, "stacked"),
    lambda: build_layered(stacked_schedule(3), 6, "stacked"),
], ids=["n3", "n4", "n9", "stacked-n2", "stacked-n3"])
def test_json_equals_the_oracle_in_every_dimension(tmp_path, build):
    boxes, summary = build()
    assert_json_equals_the_oracle(boxes, summary, tmp_path / "g.json")


# finite and at most 1e307 in magnitude, so that every lo + side a test
# makes of them stays finite, as a `Boxes` requires
JSON_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
                1e300, -1e300, 1e307, -1e307]
json_floats = st.one_of(st.sampled_from(JSON_SPECIAL),
                        st.floats(-1e307, 1e307, allow_subnormal=True))
SUMMARY = GeometrySummary(dimension=2, layout="layered", box_count=1,
                          horizontal_extent=1.0, height_interval=(-2.0, -1.0),
                          volume_interval=(1.0, math.inf), r_gamma_upper=math.nan)


@given(values=st.lists(json_floats, min_size=1, max_size=23),
       n=st.integers(min_value=2, max_value=4),
       block=st.integers(min_value=1, max_value=6))
@settings(max_examples=300, deadline=None)
def test_random_json_columns_equal_the_oracle_at_any_block_size(values, n, block):
    # every float column is a rotation of `values`, so each value visits
    # every corner column; a `Boxes` keeps side, k and a positive and the
    # gap in [0, 1), so those take the magnitudes (5e-324 for a zero) and
    # the gap their fractional part
    count = len(values)
    cols = [np.roll(values, shift) for shift in range(4 + n)]
    side, _, k, a = (np.where(c != 0.0, np.abs(c), 5e-324) for c in cols[:4])
    boxes = make_boxes(j=range(1, count + 1), layer=[1 + r // 2 for r in range(count)],
                       side=side, lo=np.column_stack(cols[4:]), gap=np.abs(cols[1]) % 1.0,
                       k=k, a=a)
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        assert json_text(boxes, SUMMARY) == oracle.geometry_json(boxes, SUMMARY)


def test_json_special_values_print_as_json_does():
    # every special value visits both corner columns; the gap column takes
    # those a `Boxes` holds there, in [0, 1)
    count = len(JSON_SPECIAL)
    gaps = [v for v in JSON_SPECIAL if 0.0 <= v < 1.0]
    boxes = make_boxes(j=range(1, count + 1), layer=[1] * count, side=[0.5] * count,
                       lo=np.column_stack((JSON_SPECIAL, np.roll(JSON_SPECIAL, 1))),
                       gap=gaps + [0.5] * (count - len(gaps)), k=[1.0] * count,
                       a=[1.0] * count)
    text = json_text(boxes, SUMMARY)
    assert text == oracle.geometry_json(boxes, SUMMARY)
    for literal in ('"gap": -0.0,', '"gap": 5e-324,', '"gap": 1e-300,',
                    '\n    1e+300,\n', '\n    -1e+307\n'):
        assert literal in text


def test_json_failure_while_streaming_keeps_the_old_file(built, tmp_path, monkeypatch):
    boxes, _, summary = built
    path = tmp_path / "g.json"
    path.write_text("old\n")
    blocks = cli._json_blocks

    def failing(boxes, summary):
        stream = blocks(boxes, summary)
        yield next(stream)
        raise GeometryError("stopped midway")

    monkeypatch.setattr(cli, "_json_blocks", failing)
    with pytest.raises(GeometryError, match="midway"):
        cli.emit_geometry_json(boxes, summary, str(path))
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["g.json"]
