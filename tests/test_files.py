import contextlib
import io
from fractions import Fraction

import pytest

from latkit.cyclo import Cyc5
from latkit.files import (
    ParseError, parse_cyc5, parse_family_file, parse_lattice_file,
)

A2_TEXT = """\
# the A2 root lattice
rank 2
2 -1
-1 2
"""

GLUED_TEXT = """\
rank 2
-2 0   # two A1(-1) copies
0 -2
glue 1/2 1/2
"""

FAMILY_TEXT = """\
vars 2
weights 0 1
mono 5 0
mono 0 5
map sigma
1 0
0 w
map iota
0 1
1 0
"""


def test_parse_lattice_file(tmp_path):
    p = tmp_path / "a2.lat"
    p.write_text(A2_TEXT)
    lf = parse_lattice_file(p)
    assert lf.rank == 2
    assert lf.gram == [[2, -1], [-1, 2]]
    assert lf.glue == []


def test_parse_lattice_file_glue():
    lf = parse_lattice_file("<inline>", text=GLUED_TEXT)
    assert lf.glue == [[Fraction(1, 2), Fraction(1, 2)]]


@pytest.mark.parametrize("text,msg", [
    ("", "empty"),
    ("rank x", "expected 'rank n'"),
    ("rank 2\n1 2\n2 1\n3 3", "extra row"),
    ("rank 2\n1 2 3\n2 1", "expected 2"),
    ("rank 2\n1 2", "expected 2 Gram rows"),
    ("rank 2\n1 2\n3 1", "not symmetric"),
    ("rank 2\n1 a\na 1", "bad rational"),
    ("rank 2\n1 0\n0 1\nglue 1/2", "glue row needs 2"),
])
def test_parse_lattice_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_lattice_file("<inline>", text=text)


def test_parse_error_carries_location():
    try:
        parse_lattice_file("somefile", text="rank 2\n1 2\n3 1")
    except ParseError as e:
        assert e.path == "somefile"
        assert "somefile:" in str(e)
    else:
        pytest.fail("expected ParseError")


def test_parse_cyc5_tokens():
    w = Cyc5.omega
    assert parse_cyc5("1") == Cyc5.one()
    assert parse_cyc5("-2/3") == Cyc5.one() * Fraction(-2, 3)
    assert parse_cyc5("w") == w(1)
    assert parse_cyc5("w^3") == w(3)
    assert parse_cyc5("2*w^2") == w(2) * 2
    assert parse_cyc5("1+w-3*w^3") == Cyc5.one() + w(1) - w(3) * 3
    assert parse_cyc5("-w-1") == -w(1) - Cyc5.one()
    assert parse_cyc5("0") == Cyc5.zero()
    with pytest.raises(ParseError):
        parse_cyc5("x+1")
    with pytest.raises(ParseError, match="bad rational '1/0'"):
        parse_cyc5("1/0")


@pytest.mark.parametrize("tok", ["1w", "2w", "ww", "w2"])
def test_parse_cyc5_needs_a_sign_before_each_later_term(tok):
    # these once read as 1 + w, 2 + w, 2w and 2 + w
    with pytest.raises(ParseError, match="bad Q\\(w\\) token %r" % tok):
        parse_cyc5(tok)


def test_juxtaposed_map_entry_exits_2(tmp_path):
    from latkit import cli
    codes = []
    for entry in ("w", "1w"):
        p = tmp_path / "swap.fam"
        p.write_text("vars 2\nweights 0 1\nmono 5 0\nmono 0 5\n"
                     "map sigma\n1 0\n0 %s\nmap iota\n0 1\n1 0\n" % entry)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            codes.append(cli.main(["family", str(p)], io.StringIO()))
    assert codes == [0, 2] and "'1w'" in err.getvalue()


def test_parse_family_file(tmp_path):
    p = tmp_path / "fam.fam"
    p.write_text(FAMILY_TEXT)
    ff = parse_family_file(p)
    assert ff.family.num_vars == 2
    assert ff.family.weights == (0, 1)
    assert ff.family.monomials == ((5, 0), (0, 5))
    assert set(ff.maps) == {"sigma", "iota"}
    assert ff.maps["sigma"].matrix[1][1] == Cyc5.omega(1)


@pytest.mark.parametrize("text,msg", [
    ("", "needs vars"),
    ("vars 2\nweights 0 1 2", "weights need 2"),
    ("vars 2\nweights 0 1\nmono 1 1 1", "monomial needs 2"),
    ("vars 2\nweights 0 1\nmono 1 1\nmap", "expected 'map NAME'"),
    ("map f\n1 0\n0 1", "'vars' must come"),
    ("vars 2\nweights 0 1\nmono 1 1\nmap f\n1 0", "missing rows"),
    ("vars 2\nweights 0 1\nmono 1 1\nmap f\n1 0 0\n0 1 0", "map row needs 2"),
    ("bogus 1", "unknown directive"),
    ("vars", "expected 'vars n'"),
    ("vars x", ":1: expected 'vars n'"),
    ("vars 2\nweights 0 x", ":2:"),
    ("vars 2\nweights 0 1\nmono 1 x", ":3:"),
    ("vars 0\nweights\nmono\nmap sigma\nmap iota", ":1: expected 'vars n' with n >= 1"),
    ("vars 1\nweights 0\nmono 5\nmap sigma\n1/0", ":5: bad rational '1/0'"),
    ("vars 1\nweights 0\nmono 5\nmap sigma\nw+2/0*w^2", ":5: bad rational '2/0'"),
    ("vars 2\nweights 0 1\nmono 1 1\nmono 2 1", ":4: monomial has degree 3, the first has 2"),
    ("weights 0 1\nvars 2", ":1: 'vars' must come before 'weights'"),
    ("mono 1 1 1\nvars 2\nweights 0 1", ":1: 'vars' must come before 'mono'"),
    ("vars 2\nweights 0 1\nmono 1 1\nvars 3\nmono 1 1 0", ":4: 'vars' given twice"),
    ("vars 2\nweights 0 1\nmono 2 0\nmono 7 -5", ":4: monomial exponent -5 is negative"),
    ("vars 2\nweights 0 1\nmono -1 3", ":3: monomial exponent -1 is negative"),
])
def test_parse_family_errors(text, msg):
    with pytest.raises(ParseError, match=msg):
        parse_family_file("<inline>", text=text)
