import numpy as np
import pytest
from hypothesis import given, strategies as st

from tlbt.mmio import MatrixMarketError, read_matrix, write_matrix


def write(tmp_path, text, name="m.mtx"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_array_general_column_major(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    assert np.array_equal(read_matrix(path), [[1.0, 3.0], [2.0, 4.0]])


def test_array_symmetric_expansion(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real symmetric\n2 2\n1\n5\n2\n")
    assert np.array_equal(read_matrix(path), [[1.0, 5.0], [5.0, 2.0]])


def test_coordinate_general(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n% a comment\n2 3 2\n1 2 7.5\n2 3 -1\n"
    out = read_matrix(write(tmp_path, text))
    expect = np.zeros((2, 3))
    expect[0, 1] = 7.5
    expect[1, 2] = -1.0
    assert np.array_equal(out, expect)


def test_coordinate_explicit_zero_preserved(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 0\n"
    out = read_matrix(write(tmp_path, text))
    assert out.shape == (2, 2)
    assert np.array_equal(out, np.zeros((2, 2)))


def test_coordinate_symmetric_mirrors_offdiagonal(tmp_path):
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 3\n2 1 4\n"
    assert np.array_equal(read_matrix(write(tmp_path, text)), [[3.0, 4.0], [4.0, 0.0]])


def test_coordinate_symmetric_rejects_entry_above_diagonal(tmp_path):
    text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 3\n1 1 1\n2 1 5\n1 2 7\n"
    with pytest.raises(MatrixMarketError, match=r":5: entry \(1, 2\) above the diagonal"):
        read_matrix(write(tmp_path, text))


def test_coordinate_integer_field(tmp_path):
    text = "%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 9\n"
    assert read_matrix(write(tmp_path, text))[0, 0] == 9.0


def test_duplicate_coordinate_entry_rejected_with_lineno(tmp_path):
    text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n1 1 2\n"
    path = write(tmp_path, text)
    with pytest.raises(MatrixMarketError, match=r":4: duplicate"):
        read_matrix(path)


def test_bad_header_reports_line_one(tmp_path):
    path = write(tmp_path, "%%MatrixMarket tensor array real general\n1 1\n1\n")
    with pytest.raises(MatrixMarketError, match=r":1:"):
        read_matrix(path)


def test_pattern_field_rejected(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n")
    with pytest.raises(MatrixMarketError, match="pattern"):
        read_matrix(path)


def test_entry_count_mismatch_rejected(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(MatrixMarketError, match="expected 4 entries"):
        read_matrix(path)


def test_out_of_range_index_rejected(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n")
    with pytest.raises(MatrixMarketError, match=r"\(3, 1\)"):
        read_matrix(path)


def test_unparsable_value_names_line(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n1 1\nabc\n")
    with pytest.raises(MatrixMarketError, match=r":3:"):
        read_matrix(path)


def test_nonfinite_value_rejected(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n1 1\nnan\n")
    with pytest.raises(MatrixMarketError, match="non-finite"):
        read_matrix(path)


def test_symmetric_requires_square(tmp_path):
    path = write(tmp_path, "%%MatrixMarket matrix array real symmetric\n2 3\n1\n2\n3\n4\n5\n")
    with pytest.raises(MatrixMarketError, match="square"):
        read_matrix(path)


def test_write_read_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3)) * np.exp(rng.uniform(-20, 20, size=(4, 3)))
    path = tmp_path / "rt.mtx"
    write_matrix(path, a, comment="round trip")
    assert np.array_equal(read_matrix(path), a)


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_round_trip_property(n, m, seed):
    import tempfile, os

    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, m))
    fd, path = tempfile.mkstemp(suffix=".mtx")
    os.close(fd)
    try:
        write_matrix(path, a)
        assert np.array_equal(read_matrix(path), a)
    finally:
        os.unlink(path)
