import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import fem_rod
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


def test_round_trip_bit_exact_across_the_exponent_range(tmp_path):
    rng = np.random.default_rng(8)
    a = rng.choice([-1.0, 1.0], size=(300, 200)) * 10.0 ** rng.uniform(-300, 300, size=(300, 200))
    path = tmp_path / "wide.mtx"
    write_matrix(path, a)
    out = read_matrix(path)
    assert out.shape == (300, 200) and out.flags.c_contiguous
    assert np.array_equal(out.view(np.int64), a.view(np.int64))


def test_array_symmetric_matches_column_by_column_definition(tmp_path):
    n = 50
    values = np.random.default_rng(9).standard_normal(n * (n + 1) // 2).tolist()
    text = "%%MatrixMarket matrix array real symmetric\n% lower triangle\n50 50\n"
    text += "".join(f"{v!r}\n" for v in values)
    expect = np.zeros((n, n))
    k = 0
    for j in range(n):
        for i in range(j, n):
            expect[i, j] = expect[j, i] = values[k]
            k += 1
    assert np.array_equal(read_matrix(write(tmp_path, text)), expect)


def test_array_comment_and_blank_lines_between_entries_are_skipped(tmp_path):
    text = ("%%MatrixMarket matrix array real general\n% size next\n\n2 3\n1 2\n% between\n"
            "\n   \n3\n  % indented comment\n4 5 6\n\n")
    assert np.array_equal(read_matrix(write(tmp_path, text)), [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_unparsable_token_deep_in_a_large_file_names_its_line(tmp_path):
    # 20,000 entries, two per line; entry 10,000 is the second token of line 5002
    tokens = [f"{k}.5" for k in range(20000)]
    tokens[9999] = "1.2.3"
    rows = [f"{tokens[k]} {tokens[k + 1]}" for k in range(0, 20000, 2)]
    text = "%%MatrixMarket matrix array real general\n% c\n100 200\n" + "\n".join(rows) + "\n"
    with pytest.raises(MatrixMarketError, match=r":5003: could not parse value '1\.2\.3'"):
        read_matrix(write(tmp_path, text))


def test_surplus_entry_names_the_line_of_the_first_extra_value(tmp_path):
    text = "%%MatrixMarket matrix array real general\n2 2\n1 2\n% c\n3\n4 5\n6\n"
    with pytest.raises(MatrixMarketError, match=r":6: more than 4 entries for a 2 x 2 array"):
        read_matrix(write(tmp_path, text))


def test_unconvertible_block_still_raises_when_the_rescan_finds_nothing(tmp_path, monkeypatch):
    # if numpy ever rejected a token Python's float accepts, the error
    # path must still fail with MatrixMarketError
    import tlbt.mmio

    monkeypatch.setattr(tlbt.mmio, "float", lambda token: 0.0, raising=False)
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n1 2\n1\nabc\n")
    with pytest.raises(MatrixMarketError, match="could not convert the 2 entries"):
        read_matrix(path)


@pytest.mark.parametrize("token", ["nan(1)", "0x1p3"])
def test_entries_float_refuses_are_refused_as_before(tmp_path, token):
    # np.fromstring reads nan(1) as nan, and float reads neither
    path = write(tmp_path, f"%%MatrixMarket matrix array real general\n1 2\n1\n{token}\n")
    with pytest.raises(MatrixMarketError, match=re.escape(f":4: could not parse value '{token}'")):
        read_matrix(path)


def test_blank_block_of_one_entry_is_refused(tmp_path):
    # np.fromstring reads a blank block as [-1.0]
    path = write(tmp_path, "%%MatrixMarket matrix array real general\n1 1\n  \n")
    with pytest.raises(MatrixMarketError, match=":3: expected 1 entries, found 0"):
        read_matrix(path)


def test_plain_block_reads_bitwise_alike_through_both_parsers(tmp_path, monkeypatch):
    # one np.fromstring for a plain decimal block, str.split and float
    # for any other; signed zeros and subnormals included
    import tlbt.mmio

    rng = np.random.default_rng(11)
    a = rng.choice([-1.0, 1.0], size=(40, 30)) * 10.0 ** rng.uniform(-320, 300, size=(40, 30))
    a[0, :3] = [0.0, -0.0, 5e-324]
    path = tmp_path / "plain.mtx"
    write_matrix(path, a, comment="plain")
    plain, taken = tlbt.mmio._plain_values, []

    def spy(*args):
        taken.append(plain(*args))
        return taken[-1]

    monkeypatch.setattr(tlbt.mmio, "_plain_values", spy)
    fast = read_matrix(path)
    monkeypatch.setattr(tlbt.mmio, "_plain_values", lambda *args: None)
    split = read_matrix(path)
    assert taken[0] is not None
    assert np.array_equal(fast.view(np.int64), a.view(np.int64))
    assert np.array_equal(split.view(np.int64), a.view(np.int64))


def _banded_signed_zeros(n):
    # a tridiagonal matrix whose even columns are negated: zeros written as 0 and -0
    rng = np.random.default_rng(12)
    a = sum(np.diag(rng.standard_normal(n - abs(k)), k) for k in (-1, 0, 1))
    a[:, ::2] *= -1.0
    return a


_HEAD = "%%MatrixMarket matrix array real general\n"
_MIXED = ["0", "-0", "+0", "00", "0.0", "-0e0", "5e-324", "-0", "1e-0", "-10", "0", "-0"]


@pytest.mark.parametrize("text, expect", [
    (None, _banded_signed_zeros(200)),
    (_HEAD + "3 4\n" + " ".join(_MIXED[:5]) + "\n  " + "\n".join(_MIXED[5:]),
     np.array(_MIXED, dtype=np.float64).reshape(4, 3).T),
    (_HEAD + "2 2\n10 -20\n1e-10 00", np.array([[10.0, 1e-10], [-20.0, 0.0]])),
    (_HEAD + "% comment\n2 3\n" + "0\n" * 6, np.zeros((2, 3))),
    (_HEAD + "3 2\n" + "-0 " * 6, np.full((3, 2), -0.0)),
], ids=["banded-200", "mixed-tokens", "no-zero-token", "all-0", "all-minus-0"])
def test_zero_tokens_read_bitwise_alike_through_both_parsers(tmp_path, monkeypatch, text, expect):
    # the tokens "0" and "-0" are read without np.fromstring; any other
    # token, +0, 00, 0.0, -0e0 and 1e-0 among them, still goes to it
    import tlbt.mmio

    path = tmp_path / "zeros.mtx"
    if text is None:
        write_matrix(path, expect)
        assert {"0", "-0"} <= set(path.read_text().split())
    else:
        path.write_text(text)
    plain, taken = tlbt.mmio._plain_values, []

    def spy(*args):
        taken.append(plain(*args))
        return taken[-1]

    monkeypatch.setattr(tlbt.mmio, "_plain_values", spy)
    fast = read_matrix(path)
    monkeypatch.setattr(tlbt.mmio, "_plain_values", lambda *args: None)
    split = read_matrix(path)
    assert taken[0] is not None
    assert np.array_equal(fast.view(np.int64), expect.view(np.int64))
    assert np.array_equal(split.view(np.int64), expect.view(np.int64))


def test_zero_tokens_never_reach_fromstring(tmp_path, monkeypatch):
    # the 400-state FEM rod's mass matrix: 160,000 tokens, 1,198 of them nonzero
    e = fem_rod(400, 7, 6).E
    path = tmp_path / "E.mtx"
    write_matrix(path, e)
    fromstring, handed = np.fromstring, []

    def spy(text, *args, **kwargs):
        handed.append(len(text.split()))
        return fromstring(text, *args, **kwargs)

    monkeypatch.setattr(np, "fromstring", spy)
    out = read_matrix(path)
    assert np.array_equal(out.view(np.int64), e.view(np.int64))
    assert np.count_nonzero(e) == 1198 and 0 < sum(handed) <= 1198


def test_a_zero_token_that_ends_the_block_never_reaches_fromstring(tmp_path, monkeypatch):
    fromstring, handed = np.fromstring, []

    def spy(text, *args, **kwargs):
        handed.append(text.split())
        return fromstring(text, *args, **kwargs)

    monkeypatch.setattr(np, "fromstring", spy)
    out = read_matrix(write(tmp_path, _HEAD + "3 1\n1.5\n-2\n0"))
    assert out.tolist() == [[1.5], [-2.0], [0.0]] and handed == [[b"1.5", b"-2"]]


@pytest.mark.parametrize("end", ["\n", ""])
def test_all_zero_block_makes_no_fromstring_call(tmp_path, monkeypatch, end):
    # np.fromstring reads the blank block left after the zeros as [-1.0]
    monkeypatch.setattr(np, "fromstring", None)
    path = write(tmp_path, _HEAD + "2 2\n0\n-0\n-0\n0" + end)
    assert np.array_equal(read_matrix(path).view(np.int64), np.array([[0.0, -0.0], [-0.0, 0.0]]).view(np.int64))


def test_array_without_data_lines_is_refused(tmp_path):
    path = write(tmp_path, _HEAD + "1 1\n")
    with pytest.raises(MatrixMarketError, match=":2: expected 1 entries, found 0"):
        read_matrix(path)


def test_unparsable_token_amid_zero_filler_names_its_line(tmp_path):
    # as the large-file case above, with every entry but a few 0 or -0
    tokens = ["-0" if k % 3 else "0" for k in range(20000)]
    tokens[:3] = tokens[-3:] = ["1.5", "2", "-3e-2"]
    tokens[9999] = "1.2.3"
    rows = [f"{tokens[k]} {tokens[k + 1]}" for k in range(0, 20000, 2)]
    text = "%%MatrixMarket matrix array real general\n% c\n100 200\n" + "\n".join(rows) + "\n"
    with pytest.raises(MatrixMarketError, match=r":5003: could not parse value '1\.2\.3'"):
        read_matrix(write(tmp_path, text))


@pytest.mark.parametrize("comment", ["% c\n", ""])
def test_surplus_zero_entry_names_the_line_of_the_first_extra_value(tmp_path, comment):
    text = f"%%MatrixMarket matrix array real general\n2 2\n0 -0\n{comment}0\n0 -0\n0\n"
    with pytest.raises(MatrixMarketError, match=rf":{6 if comment else 5}: more than 4 entries for a 2 x 2 array"):
        read_matrix(write(tmp_path, text))


def test_non_ascii_byte_names_path_and_line(tmp_path):
    path = tmp_path / "cafe.mtx"
    path.write_bytes("%%MatrixMarket matrix array real general\n% café\n1 1\n1\n".encode("utf-8"))
    with pytest.raises(MatrixMarketError, match=re.escape(f"{path}:2: non-ASCII byte 0xc3")):
        read_matrix(path)


def test_non_ascii_comment_is_escaped(tmp_path):
    path = tmp_path / "c.mtx"
    write_matrix(path, [[1.0]], comment="café\nmodèle")
    assert path.read_bytes() == b"%%MatrixMarket matrix array real general\n% caf\\xe9\n% mod\\xe8le\n1 1\n1\n"
    assert read_matrix(path).tolist() == [[1.0]]


@pytest.mark.parametrize("bad", [[[1.0, np.nan]], [[np.inf]], np.zeros((0, 3)), np.zeros((3, 0)),
                                 [1.0, 2.0], 3.0, np.ones((1, 1, 1))])
def test_write_refuses_what_read_refuses_before_opening(tmp_path, bad):
    path = tmp_path / "bad.mtx"
    with pytest.raises(ValueError):
        write_matrix(path, bad)
    assert not path.exists()


ARRAY = "%%MatrixMarket matrix array real general\n"
COORDINATE = "%%MatrixMarket matrix coordinate real general\n"


REFUSALS = [
    ("", 1, "empty file"),
    ("%%MatrixMarket matrix vector real general\n1 1\n1\n", 1,
     "unsupported format 'vector' (only 'array' and 'coordinate')"),
    ("%%MatrixMarket matrix array complex general\n1 1\n1\n", 1,
     "unsupported field 'complex' (only 'real' and 'integer')"),
    ("%%MatrixMarket matrix array real hermitian\n1 1\n1\n", 1,
     "unsupported symmetry 'hermitian' (only 'general' and 'symmetric')"),
    (ARRAY + "% a comment and no size line\n\n", 3, "missing size line"),
    # the size lines of both formats, through the one parser
    (ARRAY + "2 2 4\n", 2, "array size line must be 'rows cols', got '2 2 4'"),
    (COORDINATE + "2 2\n", 2, "coordinate size line must be 'rows cols nnz', got '2 2'"),
    (ARRAY + "2 x\n", 2, "non-integer dimensions in '2 x'"),
    (COORDINATE + "% c\n2 2 1.5\n", 3, "non-integer dimensions in '2 2 1.5'"),
    (ARRAY + "0 3\n", 2, "bad dimensions in '0 3'"),
    (COORDINATE + "3 0 0\n", 2, "bad dimensions in '3 0 0'"),
    (COORDINATE + "3 3 -1\n", 2, "bad dimensions in '3 3 -1'"),
    ("%%MatrixMarket matrix array real symmetric\n2 3\n", 2, "symmetric matrices must be square"),
    ("%%MatrixMarket matrix coordinate real symmetric\n3 2 0\n", 2, "symmetric matrices must be square"),
    (COORDINATE + "2 2 1\n1 1\n", 3, "coordinate entry must be 'i j value', got '1 1'"),
    (COORDINATE + "2 2 1\n1 x 1\n", 3, "could not parse entry '1 x 1'"),
    (COORDINATE + "2 2 2\n1 1 1\n", 3, "header declares 2 entries, found 1"),
]


@pytest.mark.parametrize("text, lineno, fragment", REFUSALS, ids=[fragment for *_, fragment in REFUSALS])
def test_refusal_names_the_line_and_the_fault(tmp_path, text, lineno, fragment):
    path = write(tmp_path, text)
    with pytest.raises(MatrixMarketError, match=re.escape(f"{path}:{lineno}: {fragment}")):
        read_matrix(path)


def test_fromstring_scans_only_the_nonzero_tokens_and_a_separator_each(tmp_path, monkeypatch):
    # the 400-state FEM rod's mass matrix: a 344,807-byte block of 160,000
    # tokens, of which np.fromstring is handed only the 1,198 nonzero ones
    e = fem_rod(400, 7, 6).E
    path = tmp_path / "E.mtx"
    write_matrix(path, e)
    kept = [token for token in path.read_bytes().splitlines()[2:] if token not in (b"0", b"-0")]
    fromstring, handed = np.fromstring, []

    def spy(text, *args, **kwargs):
        handed.append(len(text))
        return fromstring(text, *args, **kwargs)

    monkeypatch.setattr(np, "fromstring", spy)
    out = read_matrix(path)
    assert np.array_equal(out.view(np.int64), e.view(np.int64))
    assert len(kept) == 1198 and 0 < sum(handed) <= sum(len(token) + 1 for token in kept)


_EDGES = {
    "tab": b"3 2\n1.5\t0\t-2\t-0\t3e2\t0\n",
    "crlf": b"3 2\r\n1.5\r\n0\r\n-2\r\n-0\r\n3e2\r\n0\r\n",
    "vertical-tab": b"3 2\n1.5\v0\v-2\v-0\v3e2\v0\v",
    "form-feed": b"3 2\n1.5\f0\f-2\f-0\f3e2\f0\f",
    "blank-runs": b"3 2\n1.5 \t \n  0\n\n\n-2   -0 \t\t3e2\n \n0   \n",
    "kept-last-newline": b"3 2\n0 -0 0 -0 0 2.5\n",
    "kept-last-no-newline": b"3 2\n0 -0 0 -0 0 2.5",
    "kept-after-size-line": b"3 2\n7.25 0 -0 0 -0 0\n",
    "zero-lookalikes": b"4 3\n+0 0 00 -0 0.0 -0e0\n-0 0.0 0 +0 -0e0 00\n",
}


@pytest.mark.parametrize("body", _EDGES.values(), ids=_EDGES.keys())
def test_compacted_tokens_read_bitwise_alike_through_both_parsers(tmp_path, monkeypatch, body):
    # the nonzero tokens reach np.fromstring with the blanks that follow
    # them; whatever those are, the values are those of the split path
    import tlbt.mmio

    path = tmp_path / "edge.mtx"
    path.write_bytes(_HEAD.encode("ascii") + body)
    n, m = map(int, body.split(maxsplit=2)[:2])
    expect = np.array([float(token) for token in body.split()[2:]]).reshape(m, n).T
    plain, taken = tlbt.mmio._plain_values, []

    def spy(*args):
        taken.append(plain(*args))
        return taken[-1]

    monkeypatch.setattr(tlbt.mmio, "_plain_values", spy)
    fast = read_matrix(path)
    monkeypatch.setattr(tlbt.mmio, "_plain_values", lambda *args: None)
    split = read_matrix(path)
    assert taken[0] is not None
    assert np.array_equal(fast.view(np.int64), expect.view(np.int64))
    assert np.array_equal(split.view(np.int64), expect.view(np.int64))


@pytest.mark.parametrize("token", ["0-", "--0"])
def test_zero_like_malformed_token_amid_zero_filler_names_its_line(tmp_path, token):
    path = write(tmp_path, _HEAD + f"2 3\n0 -0\n0\n-0 {token}\n0\n")
    with pytest.raises(MatrixMarketError, match=re.escape(f":5: could not parse value '{token}'")):
        read_matrix(path)
