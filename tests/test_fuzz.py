"""Property-based fuzzing of the parsers and the command line on small
generated files: ranks and variable counts up to 4, small entries, with
zero denominators, dependent and asymmetric rows, missing or extra lines
and stray tokens mixed in.  A parser may only return or raise ParseError;
`main` may raise nothing, and its exit code must mean what README says
(1 only from `family`, whose checks can fail on well-formed input)."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from latkit.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main
from latkit.files import ParseError, parse_cyc5, parse_family_file, parse_lattice_file

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=60)

# --- tokens and lines ---------------------------------------------------------

small_int = st.integers(-3, 3)
rational = st.one_of(
    small_int.map(str),
    st.tuples(small_int, st.integers(0, 4)).map(lambda t: "%d/%d" % t),
    st.sampled_from(["x", "1/", "--1", "1.5"]),
)


@st.composite
def cyc5_token(draw):
    terms = draw(st.lists(st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.sampled_from(["", "1", "2", "3/2", "1/0", "0/3"]),
        st.sampled_from(["", "w", "w^2", "w^7", "*w", "*w^3"])), min_size=1, max_size=3))
    tok = "".join(s + c + w for s, c, w in terms)
    return tok or "0"


junk_token = st.text("0123456789/w^*+-x", min_size=1, max_size=8)
qw_token = st.one_of(cyc5_token(), junk_token)


def maybe_garbled(lines, draw):
    """Usually the lines as they are; sometimes one dropped, duplicated or
    replaced by junk."""
    kind = draw(st.sampled_from(["keep"] * 4 + ["drop", "dup", "junk"]))
    if kind == "keep" or not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        return lines[:i] + lines[i + 1:]
    if kind == "dup":
        return lines[:i + 1] + lines[i:]
    return lines[:i] + [draw(junk_token)] + lines[i + 1:]


@st.composite
def lattice_text(draw):
    n = draw(st.integers(0, 4))
    upper = {(i, j): draw(small_int if i != j else st.sampled_from([-4, -2, 2, 4, 1, 0]))
             for i in range(n) for j in range(i, n)}
    gram = [[upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    if n and draw(st.booleans()) and draw(st.booleans()):
        gram[0][-1] = draw(rational)          # asymmetric or non-integral
    lines = ["rank %d" % n] + [" ".join(map(str, row)) for row in gram]
    for _ in range(draw(st.integers(0, 2))):
        lines.append("glue " + " ".join(draw(st.sampled_from(["0", "1/2", "1/3", "1", "1/0"]))
                                        for _ in range(n + draw(st.sampled_from([0, 0, 0, 1])))))
    return "\n".join(maybe_garbled(lines, draw)) + "\n"


@st.composite
def family_text(draw):
    n = draw(st.integers(0, 4))
    lines = ["vars %d" % n, "weights " + " ".join(str(draw(st.integers(0, 4)))
                                                  for _ in range(n))]
    for _ in range(draw(st.integers(1, 3))):
        lines.append("mono " + " ".join(str(draw(st.integers(0, 5))) for _ in range(n)))
    for name in draw(st.lists(st.sampled_from(["sigma", "iota"]), max_size=2, unique=True)):
        lines.append("map " + name)
        for i in range(n):
            if draw(st.booleans()):
                # a diagonal or permutation-style row
                j = draw(st.integers(0, n - 1))
                row = [draw(st.sampled_from(["1", "-1", "w", "w^2", "w^4"])) if k == j else "0"
                       for k in range(n)]
            else:
                row = [draw(qw_token) for _ in range(n)]
            lines.append(" ".join(row))
    return "\n".join(maybe_garbled(lines, draw)) + "\n"


# --- the properties -----------------------------------------------------------

@FUZZ
@given(cyc5_token() | junk_token)
def test_parse_cyc5_only_raises_parse_error(tok):
    try:
        parse_cyc5(tok)
    except ParseError:
        pass


@FUZZ
@given(lattice_text())
def test_parse_lattice_file_only_raises_parse_error(text):
    try:
        parse_lattice_file("<fuzz>", text=text)
    except ParseError:
        pass


@FUZZ
@given(family_text())
def test_parse_family_file_only_raises_parse_error(text):
    try:
        parse_family_file("<fuzz>", text=text)
    except ParseError:
        pass


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    if code in (EXIT_USAGE, EXIT_BUDGET):
        assert err.getvalue().startswith("error: "), err.getvalue()
    return code


@settings(FUZZ, max_examples=80)
@given(text=lattice_text(),
       argv=st.sampled_from([["disc"], ["overlattice"], ["disc", "--json"],
                             ["shortvec", "--bound", "4"], ["shortvec", "--bound", "-1"]]))
def test_main_on_lattice_files(tmp_path_factory, text, argv):
    path = tmp_path_factory.getbasetemp() / "fuzz.lat"
    path.write_text(text)
    code = run_main(argv[:1] + [str(path)] + argv[1:])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_BUDGET)


@settings(FUZZ, max_examples=80)
@given(text=family_text(), as_json=st.booleans())
def test_main_on_family_files(tmp_path_factory, text, as_json):
    path = tmp_path_factory.getbasetemp() / "fuzz.fam"
    path.write_text(text)
    code = run_main(["family", str(path)] + ["--json"] * as_json)
    assert code in (EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_BUDGET)
