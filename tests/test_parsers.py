"""Fuzzing of the three input parsers: any text either parses or raises
ValueError (which the command line turns into exit 2), never anything else."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nicebasis import cli
from nicebasis.almost_abelian import parse_matrix
from nicebasis.graphs import parse_graph
from nicebasis.lie import abelian, parse_lie, serialize_lie
from nicebasis.scalars import DIMENSION_CAP, rat

numbers = st.one_of(
    st.integers(-3, 9).map(str),
    st.sampled_from(["1/2", "-3/4", "1/0", "0/0", "+2", "257", "1000000000",
                     str(DIMENSION_CAP)]),
)
garbage = st.one_of(
    st.sampled_from(["x", "1.5", "1e5", "-", "/", "1/", "#", "0x10", "1_0"]),
    st.text(max_size=3),
)


def soup(*keywords):
    token = st.one_of(numbers, garbage, *(st.just(k) for k in keywords))
    line = st.lists(token, max_size=6).map(" ".join)
    return st.lists(line, max_size=8).map("\n".join)


FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@FUZZ
@given(soup("dim", "names", "bracket"))
def test_parse_lie(text):
    parses_or_value_error(parse_lie, text)


@FUZZ
@given(soup())
def test_parse_matrix(text):
    parses_or_value_error(parse_matrix, text)


@FUZZ
@given(soup("vertices", "class", "edge"))
def test_parse_graph(text):
    parses_or_value_error(parse_graph, text)


@pytest.mark.parametrize("text,num,den", [
    ("1", 1, 1), ("-3", -3, 1), ("+3", 3, 1), ("9/32", 9, 32),
    ("-2/4", -1, 2), ("007", 7, 1),
])
def test_rat_accepts_plain_forms(text, num, den):
    assert rat(text) == rat(num, den)


@pytest.mark.parametrize("text", [
    "1.5", "1e5", "1E-3", " 1", "1 / 2", "1_000", "inf", "nan", "0x10",
    "٣", "1/2/3", "", "/2", "1/",
])
def test_rat_refuses_other_forms(text):
    with pytest.raises(ValueError):
        rat(text)


@pytest.mark.parametrize("parse,text,line", [
    (parse_lie, "dim \u0663\n", 1),
    (parse_lie, "dim 1_000\n", 1),
    (parse_lie, "dim 3\nbracket 1 \u0662 3 1\n", 2),
    (parse_matrix, "\u0662\n1 0\n0 1\n", 1),
    (parse_graph, "vertices \u0663\nclass 2\n", 1),
    (parse_graph, "vertices 3\nclass 2\nedge 1 2_0\n", 3),
])
def test_integers_are_ascii_digits(parse, text, line):
    with pytest.raises(ValueError, match=rf"^line {line}: .* must be an integer"):
        parse(text)


@pytest.mark.parametrize("text,index", [
    ("dim 2\nbracket 1 2 3 1\n", 3),
    ("dim 2\nbracket 1 2 0 1\n", 0),
    ("dim 3\nbracket 1 5 2 1\n", 5),
], ids=["target-past-dim", "target-zero", "index-past-dim"])
def test_bracket_index_errors_name_the_line_and_index(capsys, tmp_path, text, index):
    # indices are reported as written in the file, 1-based, with the line
    path = tmp_path / "input.lie"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: line 2: bracket index {index} out of range 1..{text[4]}"]


@pytest.mark.parametrize("text,line,message", [
    ("dim 2\nnames\nbracket 1 2 1 1\n", 2, "wrong number of basis names"),
    ("dim 3\nbracket 1 2 3 1\nnames   # no names\n", 3, "wrong number of basis names"),
    ("dim 1\nnames X Y\n", 2, "wrong number of basis names"),
    ("dim 3\nnames X Y X\nbracket 1 2 3 1\n", 2, "duplicate basis name X"),
    ("dim 3\nbracket 1 2 3 1\nnames a b b\n", 3, "duplicate basis name b"),
    # a repeat is found when the names line is read, before its length is checked
    ("dim 2\nnames X X Y\n", 2, "duplicate basis name X"),
], ids=["empty-names", "empty-names-after-brackets", "too-many-names",
        "repeat-first", "repeat-after-brackets", "repeat-and-too-many"])
def test_names_line_must_name_every_basis_vector(capsys, tmp_path, text, line, message):
    # an empty names line is a names line: it no longer falls back to e1, e2, ...
    path = tmp_path / "input.lie"
    path.write_text(text)
    assert cli.main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {path}: line {line}: {message}"]


def test_dimension_zero_round_trips_its_empty_names_line():
    text = serialize_lie(abelian(0))
    assert text == "dim 0\nnames \n"
    g = parse_lie(text)
    assert (g.dim, g.names, g.pairs) == (0, [], ())
    assert serialize_lie(g) == text
