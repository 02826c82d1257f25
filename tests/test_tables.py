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
