"""Differential property tests for the point-file format.

``read_points`` parses a whole file with ``numpy.loadtxt``: a file of
integers (``-0`` aside) through its int64 converter, any other file
through its float converter.  ``write_points`` builds the whole file as
one string.  Both are compared with the line-at-a-time parser and
per-value writer they replaced, kept here as the reference: every file the
reference parser accepts, integer files included, must give bit-identical
coordinates, every written file must be byte-identical, and every
malformed file must raise ``ValueError`` naming ``path:line`` of its first
bad line.
"""
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latslice.geometry import PointSet, data_lines, read_points, write_points

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# numpy.loadtxt decompresses files by these suffixes; read_points must not
NAMES = ("pts.txt", "pts", "pts.gz", "pts.bz2", "pts.xz")


def ref_read(path) -> np.ndarray:
    """The per-line parser ``read_points`` used before it was vectorized."""
    xs: list[float] = []
    ys: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two fields, got {len(parts)}")
            xs.append(float(parts[0]))
            ys.append(float(parts[1]))
    if not xs:
        return np.empty((0, 2))
    return np.column_stack([xs, ys])


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 2 ** 53:
        return str(int(value))
    return repr(float(value))


def ref_write(ps: PointSet, path) -> None:
    """The per-point writer ``write_points`` used before it was joined."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x y\n")
        for x, y in ps.points:
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
coordinates = st.one_of(
    finite,
    st.integers(-2 ** 70, 2 ** 70).map(float),
    st.integers(-2 ** 12, 2 ** 12).map(float),
    st.sampled_from((0.0, -0.0, 2.0 ** 53, 2.0 ** 53 + 2.0, 5e-324, 0.1)))


@st.composite
def tokens(draw) -> str:
    """One finite decimal field in one of the spellings point files use."""
    kind = draw(st.sampled_from(("repr", "e17", "int", "zero")))
    if kind == "int":                 # exact integers, past 2^53 too
        return str(draw(st.integers(-2 ** 70, 2 ** 70)))
    if kind == "zero":
        return draw(st.sampled_from(("-0", "+0", "0", "-0.0", "0e0")))
    value = draw(finite)
    return repr(value) if kind == "repr" else "%.17e" % value


INT64 = 2 ** 63
EDGE_INTEGERS = (2 ** 53 - 1, 2 ** 53 + 1, -(2 ** 53 - 1), -(2 ** 53 + 1),
                 INT64 - 1, -(INT64 - 1), -INT64)
# the integer parse leaves these to the float parse: -0 for its sign and
# 2^63, one past int64, for its range
FLOAT_PARSED = ("-0", "-008", str(INT64))


@st.composite
def integer_tokens(draw, float_parsed: bool) -> str:
    """One integer field: signs, leading zeros, small values and values
    around 2^53 and the int64 limits; ``FLOAT_PARSED`` too if asked."""
    kind = draw(st.sampled_from(("spelled", "small", "edge")))
    if kind == "spelled":
        spellings = ("0", "+0", "+7", "007") + FLOAT_PARSED * float_parsed
        return draw(st.sampled_from(spellings))
    if kind == "small":
        return str(draw(st.integers(-2 ** 12, 2 ** 12)))
    return str(draw(st.sampled_from(EDGE_INTEGERS)))


non_integer = st.one_of(st.sampled_from(("0.5", "1e3", "1.0", "-2.5e-7")),
                        finite.map(repr))
blank = st.sampled_from(("", " ", "\t", " \t  "))
ending = st.sampled_from(("\n", "\r\n", "\r"))


@st.composite
def data_line(draw, field=tokens(), last=None) -> str:
    """Two fields drawn from ``field``, the second from ``last`` if given."""
    sep = draw(st.sampled_from((" ", "\t", "  ", " \t ")))
    return draw(blank) + draw(field) + sep + draw(field if last is None else last) + draw(blank)


@st.composite
def comment_line(draw) -> str:
    text = draw(st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                        max_size=12))
    return draw(blank) + "#" + text


@st.composite
def file_lines(draw) -> list[str]:
    """Lines of a well-formed point file, without their endings."""
    return draw(st.lists(st.one_of(data_line(), data_line(), comment_line(), blank),
                         max_size=30))


@st.composite
def integer_file_lines(draw) -> list[str]:
    """Lines of a point file of integers, possibly ended by a data line
    whose last field is the file's one non-integer."""
    field = integer_tokens(draw(st.booleans()))
    line = data_line(field)
    lines = draw(st.lists(st.one_of(line, line, comment_line(), blank),
                          max_size=30))
    if draw(st.booleans()):
        lines.append(draw(data_line(field, non_integer)))
    return lines


def write_lines(path, lines: list[str], endings: list[str]) -> None:
    """Write ``lines`` as UTF-8 bytes, line i ended by ``endings[i]``
    (``""`` leaves the last line unterminated)."""
    with open(path, "wb") as fh:
        fh.write("".join(map(str.__add__, lines, endings)).encode("utf-8"))


def draw_endings(data, n: int, mixed: bool) -> list[str]:
    """Endings for n lines, mixed per line or one for the whole file, the
    last one possibly missing."""
    if mixed:
        ends = [data.draw(ending) for _ in range(n)]
    else:
        ends = [data.draw(ending)] * n
    if n and data.draw(st.booleans()):
        ends[-1] = ""
    return ends


@SETTINGS
@given(lines=st.one_of(file_lines(), integer_file_lines()),
       name=st.sampled_from(NAMES), data=st.data())
def test_read_points_matches_line_loop(lines, name, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        write_lines(path, lines, draw_endings(data, len(lines), mixed=True))
        want = ref_read(path)
        assert same_bits(read_points(path).points, want)


def test_integer_file_is_parsed_once_by_the_int64_converter(tmp_path,
                                                             monkeypatch):
    kinds = []
    loadtxt = np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        kinds.append(np.dtype(kwargs["dtype"]).kind)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    path = tmp_path / "pts.txt"
    path.write_text("# x y\n0 +7\n007 9007199254740993\n-8 -9223372036854775808\n")
    assert same_bits(read_points(path).points, ref_read(path))
    assert kinds == ["i"]

    kinds.clear()
    path.write_text("0 +7\n007 9007199254740993\n-8 0.5\n")
    assert same_bits(read_points(path).points, ref_read(path))
    assert kinds == ["i", "f"]


@SETTINGS
@given(pts=st.lists(st.tuples(coordinates, coordinates), max_size=40),
       name=st.sampled_from(NAMES))
def test_write_points_matches_per_value_writer(pts, name):
    ps = PointSet(np.array(pts, dtype=float).reshape(-1, 2))
    with tempfile.TemporaryDirectory() as tmp:
        got, want = os.path.join(tmp, name), os.path.join(tmp, "ref.txt")
        write_points(ps, got)
        ref_write(ps, want)
        with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
            assert fh_got.read() == fh_want.read()
        back = read_points(got).points
    # values round-trip exactly; -0.0 is written as 0
    assert np.array_equal(back, ps.points)
    assert same_bits(back, ps.points + 0.0)


BAD_LINES = st.one_of(
    tokens(),                                                    # 1 field
    st.tuples(tokens(), tokens(), tokens()).map(" ".join),       # 3 fields
    st.tuples(tokens(), tokens(), tokens(), tokens()).map(" ".join),
    st.tuples(tokens(), tokens()).map(lambda t: f"{t[0]} {t[1]} # note"),
    st.tuples(tokens(), tokens()).map(lambda t: f"{t[0]} {t[1]}#note"),
    st.tuples(tokens(), st.sampled_from(("abc", "1.2.3", "0x10", "nan", "inf",
                                         "-inf", "1e999", "1_000", "١", "1,5")))
    .map(lambda t: f"{t[0]} {t[1]}"),
)


@SETTINGS
@given(lines=file_lines(), bad=st.lists(BAD_LINES, min_size=1, max_size=2),
       name=st.sampled_from(NAMES), data=st.data())
def test_malformed_file_names_first_bad_line(lines, bad, name, data):
    for line in bad:
        lines.insert(data.draw(st.integers(0, len(lines))), line)
    first = 1 + min(lines.index(line) for line in bad)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, name)
        # one ending per file: a "\r" ending before an empty line ended by
        # "\n" would read as one CRLF and shift the line numbers
        write_lines(path, lines, draw_endings(data, len(lines), mixed=False))
        with pytest.raises(ValueError) as err:
            read_points(path)
    assert str(err.value).startswith(f"{path}:{first}: ")


def test_data_lines_are_the_lines_read_points_reads(tmp_path):
    text = "# x y\n\n 1 2 \n\t# 5 6\n3 4\n"
    assert list(data_lines(text)) == [(3, ["1", "2"]), (5, ["3", "4"])]
    path = tmp_path / "pts.txt"
    path.write_text(text)
    assert read_points(path).points.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_uniform_three_column_file_is_refused(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("# x y z\n\n1 2 3\n4 5 6\n")
    with pytest.raises(ValueError, match=r"pts\.txt:3: expected two fields, got 3"):
        read_points(path)


@pytest.mark.parametrize("text", ["", "\n\n", "# x y\n", "  # only\n\t\n"])
def test_file_without_data_lines_is_empty(tmp_path, text):
    path = tmp_path / "pts.txt"
    path.write_text(text)
    assert read_points(path).points.shape == (0, 2)


@pytest.mark.parametrize("field", ["1_000", "١", "nan", "-inf", "1e400"])
def test_python_only_and_non_finite_spellings_are_refused(tmp_path, field):
    # float() accepts each of these; a point file does not
    path = tmp_path / "pts.txt"
    path.write_text(f"0 0\n3 {field}\n")
    with pytest.raises(ValueError, match=r"pts\.txt:2: .* is not a finite"):
        read_points(path)
