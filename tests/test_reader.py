"""The number reader of the .lie, .mat and .graph files: the exact refusal of each
malformed token, in every place a number stands, and the types it returns.

A bracket value or a matrix entry is read by parse_rat: an int for a token without "/",
a Fraction for "p/q".  Every integer position (dim, bracket index, matrix size,
vertices, class, edge endpoint) is read by parse_int.  Each refusal names its line, an
integer past Python's digit limit for int(str) included.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nicebasis.almost_abelian import parse_matrix
from nicebasis.graphs import parse_graph
from nicebasis.lie import parse_lie
from nicebasis.scalars import parse_rat, rat
from test_exact_types import fractions_made

BIG = "1" * 4301  # one digit past the default limit of int(str)
TOO_LONG = ("Exceeds the limit (4300 digits) for integer string conversion: value has 4301"
            " digits; use sys.set_int_max_str_digits() to increase the limit")

# token -> its refusal as a bracket value and as a matrix entry, both on line 2
REFUSALS = {
    "1/0": "zero denominator in '1/0'",
    "0/0": "zero denominator in '0/0'",
    "1.5": "not a rational p or p/q: '1.5'",
    "1e5": "not a rational p or p/q: '1e5'",
    "+": "not a rational p or p/q: '+'",
    "/2": "not a rational p or p/q: '/2'",
    "1/": "not a rational p or p/q: '1/'",
    "1//2": "not a rational p or p/q: '1//2'",
    "0x10": "not a rational p or p/q: '0x10'",
    "1_0": "not a rational p or p/q: '1_0'",
    "٣": "not a rational p or p/q: '٣'",
    BIG: TOO_LONG,
    "1/" + BIG: TOO_LONG,
}
IDS = [t if len(t) < 10 else f"{len(t)}-chars" for t in REFUSALS]


def refusal(parse, text):
    with pytest.raises(ValueError) as err:
        parse(text)
    return str(err.value)


@pytest.mark.parametrize("token", REFUSALS, ids=IDS)
def test_bracket_value_refusals(token):
    assert refusal(parse_lie, f"dim 3\nbracket 1 2 3 {token}\n") == "line 2: " + REFUSALS[token]


@pytest.mark.parametrize("token", REFUSALS, ids=IDS)
def test_matrix_entry_refusals(token):
    assert refusal(parse_matrix, f"1\n{token}\n") == "line 2: " + REFUSALS[token]


@pytest.mark.parametrize("parse, text, line", [
    (parse_lie, f"dim {BIG}\n", 1),
    (parse_lie, f"dim 3\nbracket {BIG} 2 3 1\n", 2),
    (parse_lie, f"dim 3\nbracket 1 {BIG} 3 1\n", 2),
    (parse_lie, f"dim 3\nbracket 1 2 {BIG} 1\n", 2),
    (parse_matrix, f"# size\n{BIG}\n", 2),
    (parse_graph, f"vertices {BIG}\nclass 2\n", 1),
    (parse_graph, f"vertices 3\nclass {BIG}\n", 2),
    (parse_graph, f"vertices 3\nclass 2\nedge {BIG} 2\n", 3),
    (parse_graph, f"vertices 3\nclass 2\nedge 1 {BIG}\n", 3),
], ids=["dim", "bracket-i", "bracket-j", "bracket-k", "matrix-size", "vertices", "class",
        "edge-first", "edge-second"])
def test_an_over_long_integer_names_its_line(parse, text, line):
    assert refusal(parse, text) == f"line {line}: {TOO_LONG}"


TOKENS = st.builds(lambda sign, p, q: sign + p + ("" if q is None else f"/{q}"),
                   st.sampled_from(["", "+", "-"]), st.from_regex(r"[0-9]+", fullmatch=True),
                   st.one_of(st.none(), st.integers(1, 10**30).map(str),
                             st.from_regex(r"0*[1-9][0-9]*", fullmatch=True)))


@given(TOKENS)
def test_parse_rat_is_rat_and_an_int_exactly_without_a_slash(token):
    value = parse_rat(token, 1)
    assert value == rat(token)
    assert type(value) is (Fraction if "/" in token else int)


def test_integer_text_is_read_without_a_fraction(monkeypatch):
    lie = "dim 4\nbracket 1 2 3 -2\nbracket 1 3 4 +3\nbracket 2 3 4 007\n"
    g, made = fractions_made(monkeypatch, parse_lie, lie)
    assert made == 0 and (g.table[0], g.den) == ({1: {2: -2}, 2: {3: 3}}, 1)
    a, made = fractions_made(monkeypatch, parse_matrix, "3\n0 1 -2\n+3 0 0\n007 0 -0\n")
    assert made == 0 and a.num == ({1: 3, 2: 7}, {0: 1}, {0: -2})
