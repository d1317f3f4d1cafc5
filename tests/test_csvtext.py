"""The array CSV writer against the per-cell reference: ``format(x, ".17g")``
for floats and ``fmt_cell`` cell by cell."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcrep.cli import CSV_BLOCK_ROWS
from dcrep.csvtext import (_DIGITS, _EXPONENTS, _LAYOUT_WIDTH, _NUL, _layout, csv_lines,
                           float_text)

from conftest import fmt_cell


def texts(matrix: np.ndarray) -> list[str]:
    return [row.tobytes().rstrip(b"\0").decode() for row in matrix]


def assert_float_text_is_format(values) -> None:
    x = np.array(values, dtype=np.float64)
    got = texts(float_text(x))
    want = [format(v, ".17g") for v in x.tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def ulps(x: float, k: int) -> list[float]:
    """x and its k neighbours on each side."""
    out = [x]
    down = up = x
    for _ in range(k):
        down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
        out += [down, up]
    return out


def edge_values() -> list[float]:
    values = []
    # every power of ten the doubles reach, and 2 ulps on each side: the
    # exponent corrections, and the 17-digit carry (1e-14 is just below
    # 10^-14, and its 17 digits round up to 10^17)
    for e in range(-323, 309):
        values += ulps(float(f"1e{e}"), 2)
    # y = 10^16 and 10^17 exactly, and the largest 17-digit integers
    values += ulps(1e16, 3) + ulps(1e17, 3) + [99999999999999984.0, 99999999999999992.0]
    # 2^-k: exact decimal expansions, some of which end in a tie at digit 18
    values += [2.0 ** -k for k in range(1075)] + [2.0 ** k for k in range(1024)]
    values += [3 * 2.0 ** -k for k in range(1, 60)] + [5 * 2.0 ** -k for k in range(1, 60)]
    # the switch between notations at E = -5/-4 and 16/17
    for x in (1e-4, 1e-5, 9.9999999999999991e-5, 9.99999999999999e-6, 1e16, 1e17,
              9999999999999998.0, 12345678901234567.0, 123456789012345678.0):
        values += ulps(x, 2)
    # two- and three-digit exponents
    for x in (1e99, 1e100, 1e-99, 1e-100, 9.9999999999999999e99, 9.9999999999999999e-100):
        values += ulps(x, 2)
    # zeros, subnormals, the edges of the kernel's domain, nan and inf
    values += [0.0, 5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308,
               1e-270, 1e270, 1e271, 1.7976931348623157e308, math.nan, math.inf]
    return values + [-v for v in values]


def test_float_text_is_format_on_the_edges():
    assert_float_text_is_format(edge_values())


@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 1e5, 1e20, 1e200])
def test_float_text_is_format_on_random_values(scale):
    gen = np.random.default_rng(int(math.log10(scale)) + 300)
    x = gen.random(20_000) * scale
    x[::2] *= -1
    assert_float_text_is_format(x)
    # few digits and ties: decimal grids as the scans build them
    assert_float_text_is_format(np.arange(1, 20_000) * 0.0001 * scale)


def test_float_text_is_format_across_all_exponents():
    gen = np.random.default_rng(1)
    assert_float_text_is_format(np.exp(gen.uniform(-745, 709, 50_000)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_float_text_is_format_on_raw_bit_patterns(bits):
    assert_float_text_is_format(np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_float_text_is_format_on_hypothesis_floats(values):
    assert_float_text_is_format(values)


def test_float_text_of_float32_and_empty_columns():
    x = np.array([0.1, 1e-30, 3.4e38, -2.5], dtype=np.float32)
    assert texts(float_text(x)) == [format(v, ".17g") for v in x.tolist()]
    assert float_text(np.array([])).shape[0] == 0


def test_csv_lines_match_fmt_cell_by_cell():
    gen = np.random.default_rng(2)
    rows = 500
    columns = [gen.normal(size=rows), gen.integers(-5, 5, rows), gen.random(rows) > 0.5,
               np.array(["", "a", "13|2", "1|2|3"], dtype=object)[gen.integers(0, 4, rows)],
               np.where(gen.random(rows) < 0.2, math.nan, gen.normal(size=rows) * 1e-6),
               gen.integers(0, 2, rows).astype(np.uint8),
               [("x" * int(k)) for k in gen.integers(0, 3, rows)],
               tuple(float(v) for v in gen.random(rows)), np.full(rows, -0.0)]
    want = "".join(",".join(v if isinstance(v, str) else fmt_cell(v) for v in row) + "\n"
                   for row in zip(*columns))
    assert csv_lines(columns) == want


def test_every_layout_fits_the_padded_row():
    """Each of the 19,512 codes' layouts, padded, is ``_LAYOUT_WIDTH`` bytes,
    and the longest fills it."""
    layouts = [_layout.__wrapped__(code) for code in range(2 * _EXPONENTS * (_DIGITS + 1))]
    assert {len(layout) for layout in layouts} == {_LAYOUT_WIDTH}
    assert max(len(layout.rstrip(bytes([_NUL]))) for layout in layouts) == _LAYOUT_WIDTH


def reference_cell(v) -> str:
    """A cell of ``tolist()`` as the CSV spells it: str and bytes by ``str``,
    numbers by ``fmt_cell``."""
    return str(v) if isinstance(v, (str, bytes)) else fmt_cell(v)


def test_csv_lines_keep_the_text_of_repeated_and_edge_cells():
    """Each block of ``CSV_BLOCK_ROWS`` rows, as ``dcrep scan`` writes it,
    against the per-cell reference, on few distinct cells repeated across
    the blocks and on floats whose bit patterns differ where their values
    compare equal or unordered."""
    gen = np.random.default_rng(3)
    rows = 3 * CSV_BLOCK_ROWS + 100
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0x7FF8DEADBEEF0001], dtype=np.uint64).view(np.float64)
    edge = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                            2.2250738585072009e-308, 2.0 ** -25, 0.5, 1.5, 2.5,
                            0.30000000000000004, math.nextafter(2.0 ** -25, 1.0),
                            math.nextafter(2.0 ** -25, 0.0), 1e16 + 2, 9007199254740993.0],
                           nans])
    pick = gen.integers(0, 4, rows)
    columns = [edge[gen.integers(0, len(edge), rows)],
               gen.random(rows) < 0.5,
               gen.integers(-3, 3, rows) * 10 ** 12,
               gen.integers(0, 3, rows).astype(np.uint8),
               np.array(["", "i", "zero-cov", "13|2"])[pick],
               np.array([b"", b"a", b"bc", b"x y"])[pick],
               np.array([0.25, -0.0, math.nan, 1e300])[pick]]
    for start in range(0, rows, CSV_BLOCK_ROWS):
        block = [col[start:start + CSV_BLOCK_ROWS] for col in columns]
        want = "".join(",".join(map(reference_cell, row)) + "\n"
                       for row in zip(*(col.tolist() for col in block)))
        assert csv_lines(block) == want
    assert csv_lines([col[:0] for col in columns]) == ""
