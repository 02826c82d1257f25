"""The shared table writer: header layout, field formats, block streaming."""

import io
import math
import tracemalloc

import numpy as np
import pytest

from sparsespectra import tables
from sparsespectra.tables import _BLOCK_ROWS, _INT_BLOCK_ROWS, write_rows, write_table

I64 = np.iinfo(np.int64)
U64 = np.iinfo(np.uint64)


def test_metadata_lines_sorted_then_column_line(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("a", "b"), [1], [2.5], metadata={"zeta": 3, "alpha": "x", "mid": 1.5})
    assert path.read_text() == "# alpha=x\n# mid=1.5\n# zeta=3\na,b\n1,2.5\n"


@pytest.mark.parametrize("metadata", [None, {}])
def test_no_header_lines_without_metadata(tmp_path, metadata):
    path = tmp_path / "t.csv"
    write_table(path, ("v",), np.array([0.5]), metadata=metadata)
    assert path.read_text() == "v\n0.5\n"


def test_field_format_follows_dtype(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("i", "flag", "x", "name"),
                np.array([-3, 7], dtype=np.int64), np.array([True, False]),
                np.array([0.25, 2.0]), np.array(["kolmogorov", "w1"]))
    assert path.read_text() == "i,flag,x,name\n-3,1,0.25,kolmogorov\n7,0,2,w1\n"


def test_floats_round_trip_exactly(tmp_path):
    values = np.array([math.nan, -0.0, 5e-324, 1e300, -math.inf, 0.1, 1.0 / 3.0])
    path = tmp_path / "t.csv"
    write_table(path, ("x",), values)
    text = path.read_text().splitlines()
    assert text[:4] == ["x", "nan", "-0", "4.9406564584124654e-324"]
    back = np.array([float(s) for s in text[1:]])
    assert back.tobytes() == values.tobytes()


def test_empty_table_is_the_column_line(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ("left", "right"), np.empty(0), np.empty(0), metadata={"k": 1})
    assert path.read_text() == "# k=1\nleft,right\n"


def test_many_blocks_match_a_per_row_reference(tmp_path):
    rng = np.random.default_rng(3)
    n = 2 * _BLOCK_ROWS + 5
    gap = rng.integers(0, 50, n)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    flag = rng.random(n) < 0.5
    path = tmp_path / "t.csv"
    write_table(path, ("gap", "v", "flag"), gap, v, flag, metadata={"n": n})
    reference = f"# n={n}\ngap,v,flag\n" + "".join(
        f"{g},{x:.17g},{int(f)}\n" for g, x, f in zip(gap, v, flag)
    )
    assert path.read_text() == reference


def _int_reference(sep, *cols):
    """Per-row text of integer columns, one Python int per field."""
    return "".join(sep.join(str(int(v)) for v in row) + "\n" for row in zip(*cols))


_BOUNDARIES = np.array([9, 10, 99, 100, 10**18 - 1, 10**18, 0, 1], dtype=np.int64)
# magnitudes on either side of the largest that divides in uint32
_NARROW_EDGE = np.array([2**32 - 1, 2**32, -(2**32 - 1), -(2**32), 0], dtype=np.int64)


@pytest.mark.parametrize("cols", [
    pytest.param([np.array([0])], id="zero"),
    pytest.param([np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.uint8)], id="all-zero"),
    pytest.param([_BOUNDARIES, _BOUNDARIES[::-1].copy()], id="digit-boundaries"),
    pytest.param([np.array([I64.min, I64.max, -1, 0, 1])], id="int64-extremes"),
    pytest.param([np.array([U64.max, 0, 10**19, 10**19 - 1], dtype=np.uint64)], id="uint64-max"),
    pytest.param([-_BOUNDARIES, np.array([-1, 2, -30, 400, 0, -5, 6, I64.min])], id="negative"),
    pytest.param([np.array([3, 0, -2, 7], dtype=np.int32), np.array([True, False, True, False]),
                  np.array([0, 255, 1, 10], dtype=np.uint8)], id="bool-and-ints"),
    pytest.param([np.array([1, 22, 333], dtype=np.int16)], id="single-column"),
    pytest.param([_NARROW_EDGE, np.array([2**32 - 1, 7, -(2**32 - 1), 0, 10]),
                  np.array([2**32 - 1, 2**32, 0, 1, 9], dtype=np.uint64)], id="uint32-boundary"),
    pytest.param([np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)], id="empty"),
])
@pytest.mark.parametrize("sep", [",", " ", ", "])
def test_int_rows_match_a_per_row_reference(cols, sep):
    fh = io.StringIO()
    write_rows(fh, sep, *cols)
    assert fh.getvalue() == _int_reference(sep, *cols)


def test_int_rows_across_blocks_match_a_per_row_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "_INT_BLOCK_ROWS", _BLOCK_ROWS)
    rng = np.random.default_rng(11)
    n = 2 * _BLOCK_ROWS + 17
    ids = rng.integers(0, 10**6, n) // 10 ** rng.integers(0, 6, n)
    # signed ints of 1 to 19 digits, so the rows of one block differ in width
    signed = rng.integers(I64.min, I64.max, n, endpoint=True) // 10 ** rng.integers(0, 19, n)
    flag = rng.random(n) < 0.5
    big = rng.integers(0, U64.max, n, dtype=np.uint64, endpoint=True)
    path = tmp_path / "t.csv"
    write_table(path, ("id", "signed", "flag", "big"), ids, signed, flag, big)
    assert path.read_text() == "id,signed,flag,big\n" + _int_reference(",", ids, signed, flag, big)


def test_int_rows_across_full_size_blocks_match_a_per_row_reference():
    rng = np.random.default_rng(13)
    n = 2 * _INT_BLOCK_ROWS + 29
    ids = np.arange(n, dtype=np.int64)
    # narrowed to uint32 in the first block only, negative in every block
    wide = rng.integers(-(2**32 - 1), 2**32, n) * np.where(ids < _INT_BLOCK_ROWS, 1, 2**20)
    flag = rng.random(n) < 0.5
    fh = io.StringIO()
    write_rows(fh, " ", ids, wide, flag)
    assert fh.getvalue() == _int_reference(" ", ids, wide, flag)


def test_a_column_narrowed_in_one_block_and_not_the_next(monkeypatch):
    monkeypatch.setattr(tables, "_INT_BLOCK_ROWS", 3)
    # blocks: top 2**32 - 1 (uint32), top 2**32 (uint64), top 2**32 - 1 again
    col = np.array([1, 2**32 - 1, 10, 2**32, 0, -7, -(2**32 - 1), 5, 99], dtype=np.int64)
    other = np.arange(col.size, dtype=np.uint16)
    fh = io.StringIO()
    write_rows(fh, ",", col, other)
    assert fh.getvalue() == _int_reference(",", col, other)


def test_int_rows_memory_stays_bounded_on_many_rows(tmp_path):
    # the encoder holds one block at a time: the peak measured 14.5 MB at
    # 2**16 rows of three full-range int64 columns, and encoding all 10**6
    # rows at once would take about 15 times that
    rng = np.random.default_rng(17)
    cols = [rng.integers(I64.min, I64.max, 10**6, endpoint=True) for _ in range(3)]
    with open(tmp_path / "t.txt", "w") as fh:
        tracemalloc.start()
        try:
            write_rows(fh, ",", *cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 24 * 2**20
    with open(tmp_path / "t.txt") as fh:
        for count, last in enumerate(fh, 1):
            pass
    assert count == 10**6
    assert last == _int_reference(",", *(col[-1:] for col in cols))


_FORMATS = {"f": "{:.17g}", "i": "{:d}", "u": "{:d}", "b": "{:d}", "U": "{}"}


def _reference(sep, *cols):
    """Per-row text of any columns, one Python object per field."""
    row = sep.join(_FORMATS[col.dtype.kind] for col in cols) + "\n"
    return "".join(row.format(*values) for values in zip(*(col.tolist() for col in cols)))


def _float_text(*cols, sep=","):
    fh = io.StringIO()
    write_rows(fh, sep, *cols)
    return fh.getvalue()


def test_floats_in_every_binade_match_a_per_row_reference():
    # random mantissa bits in each binade from 2**-40 to 2**60, both signs
    rng = np.random.default_rng(19)
    exponents = np.repeat(np.arange(-40, 61), 300)
    bits = (rng.integers(0, 2**52, exponents.size, dtype=np.uint64)
            | ((exponents + 1023).astype(np.uint64) << np.uint64(52))
            | (rng.integers(0, 2, exponents.size, dtype=np.uint64) << np.uint64(63)))
    x = bits.view(np.float64)
    assert _float_text(x) == _reference(",", x)


def test_floats_next_to_powers_of_ten_match_a_per_row_reference():
    # log10 of these is within an ulp of an integer, so the first guess of
    # the decimal exponent can be one off; 9.9999999999999995e-08 rounds
    # up to 10**16 digits under the wrong exponent
    powers = np.array([float(f"1e{j}") for j in range(-12, 18)])
    x = [powers, np.array([9.9999999999999995e-08, 9.9999999999999995e-05])]
    for steps in (1, 2):
        up, down = powers, powers
        for _ in range(steps):
            up, down = np.nextafter(up, np.inf), np.nextafter(down, 0.0)
        x += [up, down]
    x = np.concatenate(x)
    x = np.concatenate([x, -x])
    assert _float_text(x) == _reference(",", x)


def test_exact_ties_round_half_to_even():
    # quarters of integers in [2**50, 2**52): the 17th digit is a tie
    # whenever the value ends in .25 or .75 above 10**15
    rng = np.random.default_rng(23)
    x = rng.integers(2**50, 2**52, 20_000) / 4
    assert _float_text(x) == _reference(",", x)
    assert _float_text(np.array([1234567890123456.75, 1234567890123456.25])) == (
        "1234567890123456.8\n1234567890123456.2\n")


def test_special_floats_match_a_per_row_reference():
    tiny = np.finfo(np.float64).smallest_normal
    x = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                  tiny, -tiny, tiny * (1 - 2**-52), np.finfo(np.float64).max,
                  -np.finfo(np.float64).max, 1e-11, 1e16, -1e16, 9999999999999998.0, 1e-300,
                  1.5, 0.1, 100.0, 1e15, 0.0001, 1e-05])
    text = _float_text(x, np.arange(x.size))
    assert text == _reference(",", x, np.arange(x.size))
    assert text.splitlines()[:6] == ["0,0", "-0,1", "nan,2", "nan,3", "inf,4", "-inf,5"]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
def test_other_float_widths_write_as_float_does(dtype):
    rng = np.random.default_rng(29)
    x = (rng.standard_normal(5000) * 10.0 ** rng.integers(-6, 5, 5000)).astype(dtype)
    x[:4] = [0.0, -1.5, np.inf, np.nan]
    assert _float_text(x) == _reference(",", x)
    assert _float_text(x) == _reference(",", x.astype(np.float64))


@pytest.mark.parametrize("sep", [",", " ", ", "])
def test_mixed_rows_across_blocks_match_a_per_row_reference(monkeypatch, sep):
    monkeypatch.setattr(tables, "_BLOCK_ROWS", 3)
    # each block mixes kernel and Python-formatted floats, exponent layouts
    # and string widths
    x = np.array([0.5, math.nan, -1e-7, 123.25, 0.0, 1e300, -2.5e-3, 7.0, 1e15 + 0.5, -math.inf,
                  3.0e-11])
    n = x.size
    ids = np.arange(n, dtype=np.int64) * -37
    flag = np.arange(n) % 3 == 0
    names = np.array(["kolmogorov", "", "w1", "ν ⊠ σ_sc", "a", "bb", "ccc", "x", "", "yz", "q"])
    small = np.linspace(-1, 1, n, dtype=np.float32)
    cols = (ids, x, flag, names, small)
    assert _float_text(*cols, sep=sep) == _reference(sep, *cols)


@pytest.mark.parametrize("block_rows", [_BLOCK_ROWS, 100, 3],
                         ids=["one-call", "two-columns-per-call", "one-column-per-call"])
def test_float_columns_of_one_block_keep_their_own_layouts(monkeypatch, block_rows):
    # the float columns of a block share kernel calls of up to _BLOCK_ROWS
    # values; each column's sign, "e-NN" and point slots must still come
    # from its own values
    monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(37)
    wide = -rng.random(50) * 10.0 ** rng.integers(-11, -4, 50)
    plain = rng.random(50) * 100.0
    plain[::7] = np.round(plain[::7])
    for cols in ((wide, plain), (plain, wide), (plain, np.arange(50), wide, plain)):
        assert _float_text(*cols) == _reference(",", *cols)


def test_float_rows_memory_stays_bounded_on_many_rows(tmp_path):
    # the encoder holds one block at a time; encoding all 10**6 rows at
    # once would take well over 100 MB
    rng = np.random.default_rng(31)
    cols = [rng.standard_normal(10**6) * 10.0 ** rng.integers(-9, 9, 10**6) for _ in range(3)]
    with open(tmp_path / "t.txt", "w") as fh:
        tracemalloc.start()
        try:
            write_rows(fh, ",", *cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 16 * 2**20
    with open(tmp_path / "t.txt") as fh:
        for count, last in enumerate(fh, 1):
            pass
    assert count == 10**6
    assert last == _reference(",", *(col[-1:] for col in cols))


def test_rejects_a_string_field_holding_nul():
    with pytest.raises(ValueError, match=r"string field 'a\\x00b' contains NUL"):
        write_rows(io.StringIO(), ",", np.array([1.5, 2.5]), np.array(["ok", "a\0b"]))


def test_rejects_a_separator_holding_nul():
    with pytest.raises(ValueError, match=r"separator '\\x00' contains NUL"):
        write_rows(io.StringIO(), "\0", np.array([1]), np.array([3]))
    with pytest.raises(ValueError, match="contains NUL"):
        write_rows(io.StringIO(), ",\0", np.array([0.5]))


def test_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [1, 2], [1.0])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [1, 2])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a",), np.array([object()]))


_REJECTED = [
    pytest.param([np.array([1, 2]), np.array([1.0])], "need 1-D columns of one length",
                 id="lengths"),
    pytest.param([np.array([[1.0]])], "need 1-D columns of one length", id="2-D"),
    pytest.param([np.array([b"ab"])], r"no table format for dtype kinds \['S'\]", id="bytes"),
    pytest.param([np.array([1j])], r"no table format for dtype kinds \['c'\]", id="complex"),
    pytest.param([np.array([1], dtype=np.int64), np.array([object()])],
                 r"no table format for dtype kinds \['i', 'O'\]", id="object"),
]


@pytest.mark.parametrize("cols, message", _REJECTED)
def test_both_writers_reject_a_bad_column_with_one_message(tmp_path, cols, message):
    with pytest.raises(ValueError, match=message):
        write_rows(io.StringIO(), ",", *cols)
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=message):
        write_table(path, [f"c{j}" for j in range(len(cols))], *cols)
    assert not path.exists()  # rejected before the file is opened


def test_write_table_rejects_a_string_field_holding_nul_before_opening_the_file(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"string field 'a\\x00b' contains NUL"):
        write_table(path, ("x", "name"), np.array([1.5, 2.5]), np.array(["ok", "a\0b"]))
    assert not path.exists()


def test_write_table_rejects_a_column_count_unlike_the_names(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=r"need one column per column name \(got 1 for 2\)"):
        write_table(path, ("a", "b"), [1.0])
    assert not path.exists()


def test_write_header_writes_sorted_key_value_lines():
    fh = io.StringIO()
    tables.write_header(fh, {"n": 3, "alpha": 0.5, "measure": "delta:1"})
    assert fh.getvalue() == "# alpha=0.5\n# measure=delta:1\n# n=3\n"
    for empty in (None, {}):
        fh = io.StringIO()
        tables.write_header(fh, empty)
        assert fh.getvalue() == ""
