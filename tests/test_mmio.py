import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from gmreslab import (
    FileError,
    ParseError,
    UnsupportedFormat,
    read_matrix_market,
    write_matrix_market,
)


def write(tmp_path, text):
    path = tmp_path / "m.mtx"
    path.write_text(text)
    return str(path)


def test_array_real_general(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n"
        "% a comment, then column-major entries\n"
        "2 2\n1.0\n0.0\n0.0\n2.0\n",
    )
    a = read_matrix_market(path)
    assert a.dtype == np.complex128
    assert np.array_equal(a, np.diag([1.0, 2.0]))


def test_coordinate_complex_hermitian_expands(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate complex hermitian\n"
        "2 2 3\n"
        "1 1 2.0 0.0\n"
        "2 1 1.0 -3.0\n"
        "2 2 5.0 0.0\n",
    )
    a = read_matrix_market(path)
    expected = np.array([[2.0, 1.0 + 3.0j], [1.0 - 3.0j, 5.0]])
    assert np.array_equal(a, expected)


def test_coordinate_symmetric_expands(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "2 2 2\n2 1 5.0\n2 2 1.0\n",
    )
    a = read_matrix_market(path)
    assert np.array_equal(a, np.array([[0.0, 5.0], [5.0, 1.0]]))


def test_coordinate_skew_symmetric_expands(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n2 1 4.0\n",
    )
    a = read_matrix_market(path)
    assert np.array_equal(a, np.array([[0.0, -4.0], [4.0, 0.0]]))


def test_array_skew_symmetric_implied_zero_diagonal(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix array real skew-symmetric\n3 3\n1.0\n2.0\n3.0\n",
    )
    a = read_matrix_market(path)
    expected = np.array(
        [[0.0, -1.0, -2.0], [1.0, 0.0, -3.0], [2.0, 3.0, 0.0]]
    )
    assert np.array_equal(a, expected)


def test_fortran_exponent_tolerated(tmp_path):
    path = write(
        tmp_path,
        "%%MatrixMarket matrix array real general\n1 1\n1.5D2\n",
    )
    assert read_matrix_market(path)[0, 0] == 150.0


@pytest.mark.parametrize(
    "token, value",
    [("1.0D+00", 1.0), ("2.5d-1", 0.25), ("1_0", 10.0), ("-0.0", -0.0), ("+.5", 0.5)],
)
def test_number_syntax_matches_python_float(tmp_path, token, value):
    """Every token that Python's float reads, and Fortran D exponents, in
    both fields and formats."""
    texts = [
        f"%%MatrixMarket matrix array real general\n1 1\n{token}\n",
        f"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 {token} {token}\n",
    ]
    for text, expected in zip(texts, [complex(value), complex(value, value)]):
        a = read_matrix_market(write(tmp_path, text))
        assert a[0, 0] == expected
        assert np.signbit(a[0, 0].real) == np.signbit(value)


def test_array_hermitian_and_skew_symmetric_mirror(tmp_path):
    """The stored lower triangle, column by column, is mirrored: conjugated
    for hermitian storage, negated for skew-symmetric storage."""
    hermitian = read_matrix_market(write(
        tmp_path,
        "%%MatrixMarket matrix array complex hermitian\n3 3\n"
        "1.0 0.0\n2.0 1.0\n3.0 -2.0\n4.0 0.0\n5.0 0.5\n6.0 0.0\n",
    ))
    assert np.array_equal(hermitian, np.array(
        [[1.0, 2.0 - 1.0j, 3.0 + 2.0j], [2.0 + 1.0j, 4.0, 5.0 - 0.5j],
         [3.0 - 2.0j, 5.0 + 0.5j, 6.0]]
    ))
    skew = read_matrix_market(write(
        tmp_path,
        "%%MatrixMarket matrix array complex skew-symmetric\n3 3\n"
        "1.0 1.0\n2.0 0.0\n3.0 -1.0\n",
    ))
    assert np.array_equal(skew, np.array(
        [[0.0, -1.0 - 1.0j, -2.0], [1.0 + 1.0j, 0.0, -3.0 + 1.0j],
         [2.0, 3.0 - 1.0j, 0.0]]
    ))


@pytest.mark.parametrize(
    "line5, line9, message",
    [("bad", "inf", "not a number: 'bad'"), ("inf", "bad", "entry must be finite, got 'inf'")],
)
def test_first_offending_line_is_reported(tmp_path, line5, line9, message):
    """Entries are checked all at once, but the error is that of the first
    offending line, whichever check fails there."""
    values = ["1.0"] * 9
    values[2], values[6] = line5, line9  # lines 5 and 9
    text = "%%MatrixMarket matrix array real general\n3 3\n" + "\n".join(values) + "\n"
    with pytest.raises(ParseError) as excinfo:
        read_matrix_market(write(tmp_path, text))
    assert excinfo.value.lineno == 5
    assert str(excinfo.value) == f"line 5: {message}"


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("%%MatrixMarket vector array real general\n1 1\n1.0\n", None),
        ("%%MatrixMarket matrix array integer general\n1 1\n1\n", None),
        ("%%MatrixMarket matrix coordinate pattern general\n1 1 1\n1 1\n", None),
    ],
)
def test_unsupported_variants(tmp_path, text, lineno):
    with pytest.raises(UnsupportedFormat):
        read_matrix_market(write(tmp_path, text))


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("%%MatrixMarket matrix\n", 1),
        ("%%MatrixMarket matrix array real nonsense\n1 1\n1.0\n", 1),
        ("%%MatrixMarket matrix array real general\n", 2),
        ("%%MatrixMarket matrix array real general\n2 3\n", 2),
        ("%%MatrixMarket matrix array real general\nx y\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2\n", 2),
        ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 bad\n", 3),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.0 2.0\n", 3),
        (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 2\n1 1 1.0\n1 1 2.0\n",
            4,
        ),
        (
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 1\n1 2 1.0\n",
            3,
        ),
        (
            "%%MatrixMarket matrix coordinate complex hermitian\n"
            "1 1 1\n1 1 1.0 2.0\n",
            3,
        ),
        (
            "%%MatrixMarket matrix coordinate real skew-symmetric\n"
            "2 2 1\n1 1 1.0\n",
            3,
        ),
        ("%%MatrixMarket matrix array real general\n1 1\n1.0\n2.0\n", 4),
        ("%%MatrixMarket matrix array real general\n2 2\n1.0\n2.0\n", 5),
        ("%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1.0\n", 4),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, text, lineno):
    with pytest.raises(ParseError) as excinfo:
        read_matrix_market(write(tmp_path, text))
    assert excinfo.value.lineno == lineno
    assert f"line {lineno}" in str(excinfo.value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize(
    "header,entry",
    [
        ("array real", "{}"),
        ("coordinate real", "1 1 {}"),
        ("coordinate complex", "1 1 1.0 {}"),
    ],
    ids=["array", "coordinate", "complex"],
)
def test_non_finite_entry_is_a_parse_error(tmp_path, header, entry, token):
    size = "1 1" if header.startswith("array") else "1 1 1"
    text = f"%%MatrixMarket matrix {header} general\n{size}\n{entry.format(token)}\n"
    with pytest.raises(ParseError) as excinfo:
        read_matrix_market(write(tmp_path, text))
    assert excinfo.value.lineno == 3
    assert "finite" in str(excinfo.value)


@pytest.mark.parametrize(
    "symmetry, total",
    [("general", 1500 * 1500), ("symmetric", 1500 * 1501 // 2),
     ("skew-symmetric", 1500 * 1499 // 2)],
)
def test_array_size_line_costs_no_slot_list(tmp_path, symmetry, total):
    """A one-entry array file that declares a large order is refused at its
    end, with no O(n^2) work or memory beyond the matrix itself (16 n^2
    bytes) before the first entry is read."""
    header = f"%%MatrixMarket matrix array real {symmetry}\n"
    path = write(tmp_path, header + "1500 1500\n1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as excinfo:
            read_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(excinfo.value) == f"line 4: expected {total} entries, found 1"
    assert peak < 2 * 16 * 1500**2


def test_missing_file_raises_file_error():
    with pytest.raises(FileError):
        read_matrix_market("/nonexistent/nowhere.mtx")


def test_writer_array_round_trip(tmp_path):
    a = np.array([[1.0, 0.25 + 0.125j], [-2.0, 1e-17]])
    path = tmp_path / "a.mtx"
    write_matrix_market(str(path), a)
    assert np.array_equal(read_matrix_market(str(path)), a)


def test_writer_real_matrices_use_real_field(tmp_path):
    path = tmp_path / "a.mtx"
    write_matrix_market(str(path), np.eye(2))
    assert "array real general" in path.read_text().splitlines()[0]


@seed(19)
@given(
    n=st.integers(min_value=1, max_value=5),
    key=st.integers(min_value=0, max_value=2**31),
)
def test_round_trip_is_exact(tmp_path_factory, n, key):
    """Write-then-read must reproduce every float bit for bit."""
    rng = np.random.default_rng(key)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[rng.random((n, n)) < 0.3] = 0.0
    path = tmp_path_factory.mktemp("mm") / "rt.mtx"
    write_matrix_market(str(path), a)
    assert np.array_equal(read_matrix_market(str(path)), a)
