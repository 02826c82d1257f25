"""The shared table writer: header layout, field formats, block streaming."""

import math

import numpy as np
import pytest

from sparsespectra.tables import _BLOCK_ROWS, write_table


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


def test_rejects_mismatched_columns(tmp_path):
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [1, 2], [1.0])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a", "b"), [1, 2])
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ("a",), np.array([object()]))
