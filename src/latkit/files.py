"""Parsers for the two declarative text formats.

Lattice files:
    rank n
    <n rows of n whitespace-separated integers or p/q rationals>
    glue v1 v2 ... vn     (optional, rational entries, repeatable)
    # comments and blank lines are ignored

Family files:
    vars n
    weights w0 ... w_{n-1}
    mono e0 ... e_{n-1}   (one line per monomial)
    map NAME              (optional, each NAME once, followed by n rows
                           of n Q(w) tokens)
Q(w) tokens look like 1, -2/3, w, w^2, 1+w-3*w^3: every term after the
first starts with + or -, so 1w, ww and w2 are errors.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cyclo import Cyc5
from .k3fam import MonomialFamily, ProjectiveMap


class ParseError(ValueError):
    def __init__(self, path, lineno, message):
        super().__init__("%s:%d: %s" % (path, lineno, message))
        self.path = path
        self.lineno = lineno


@dataclass
class LatticeFile:
    path: str
    rank: int
    gram: list
    glue: list = field(default_factory=list)


def _meaningful_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _parse_fraction(tok, path, lineno):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(path, lineno, "bad rational %r" % tok)


def _parse_int(tok, path, lineno):
    try:
        return int(tok)
    except ValueError:
        raise ParseError(path, lineno, "bad integer %r" % tok)


def parse_lattice_file(path, text=None):
    if text is None:
        with open(path) as fh:
            text = fh.read()
    lines = list(_meaningful_lines(text))
    if not lines:
        raise ParseError(path, 1, "empty lattice file")
    lineno, first = lines[0]
    m = re.fullmatch(r"rank\s+(\d+)", first)
    if not m:
        raise ParseError(path, lineno, "expected 'rank n', got %r" % first)
    n = int(m.group(1))
    gram = []
    glue = []
    for lineno, line in lines[1:]:
        toks = line.split()
        if toks[0] == "glue":
            vals = [_parse_fraction(t, path, lineno) for t in toks[1:]]
            if len(vals) != n:
                raise ParseError(path, lineno, "glue row needs %d entries" % n)
            glue.append(vals)
            continue
        if len(gram) >= n:
            raise ParseError(path, lineno, "unexpected extra row %r" % line)
        vals = [_parse_fraction(t, path, lineno) for t in toks]
        if len(vals) != n:
            raise ParseError(path, lineno,
                             "Gram row has %d entries, expected %d" % (len(vals), n))
        gram.append(vals)
    if len(gram) != n:
        raise ParseError(path, lines[-1][0], "expected %d Gram rows, got %d" % (n, len(gram)))
    for i in range(n):
        for j in range(n):
            if gram[i][j] != gram[j][i]:
                raise ParseError(path, lines[0][0],
                                 "Gram matrix is not symmetric at (%d, %d)" % (i, j))
    return LatticeFile(path=str(path), rank=n, gram=gram, glue=glue)


_TERM_RE = re.compile(
    r"""(?P<sign>[+-]?)\s*
        (?:
            (?P<coef>\d+(?:/\d+)?)\s*(?:\*\s*w(?:\^(?P<exp1>\d+))?)?
          | w(?:\^(?P<exp2>\d+))?
        )""",
    re.VERBOSE,
)


def parse_cyc5(tok, path="<token>", lineno=0):
    """Parse one Q(w) token like '1+w-3/2*w^2', each later term signed."""
    pos = 0
    val = Cyc5.zero()
    tok = tok.strip()
    while pos < len(tok):
        m = _TERM_RE.match(tok, pos)
        if not m or m.end() == pos or (pos and not m.group("sign")):
            raise ParseError(path, lineno, "bad Q(w) token %r" % tok)
        sign = -1 if m.group("sign") == "-" else 1
        coef = _parse_fraction(m.group("coef"), path, lineno) if m.group("coef") else 1
        # a term without ^e is w^1 when it holds a w, else w^0
        exp = m.group("exp1") or m.group("exp2") or int("w" in m.group(0))
        val = val + Cyc5.omega(int(exp)) * (sign * coef)
        pos = m.end()
    return val


@dataclass
class FamilyFile:
    path: str
    family: MonomialFamily
    maps: dict


def parse_family_file(path, text=None):
    if text is None:
        with open(path) as fh:
            text = fh.read()
    lines = list(_meaningful_lines(text))
    n = None
    weights = None
    monomials = []
    maps = {}
    i = 0
    while i < len(lines):
        lineno, line = lines[i]
        toks = line.split()
        if toks[0] == "vars":
            m = re.fullmatch(r"vars\s+(\d+)", line)
            if not m or int(m.group(1)) < 1:
                raise ParseError(path, lineno, "expected 'vars n' with n >= 1")
            if n is not None:
                raise ParseError(path, lineno, "'vars' given twice")
            n = int(m.group(1))
        elif toks[0] in ("weights", "mono", "map") and n is None:
            raise ParseError(path, lineno, "'vars' must come before %r" % toks[0])
        elif toks[0] == "weights":
            if weights is not None:
                raise ParseError(path, lineno, "'weights' given twice")
            weights = tuple(_parse_int(t, path, lineno) % 5 for t in toks[1:])
            if len(weights) != n:
                raise ParseError(path, lineno, "weights need %d entries" % n)
        elif toks[0] == "mono":
            exps = tuple(_parse_int(t, path, lineno) for t in toks[1:])
            if len(exps) != n:
                raise ParseError(path, lineno, "monomial needs %d exponents" % n)
            if min(exps) < 0:
                raise ParseError(path, lineno, "monomial exponent %d is negative" % min(exps))
            if monomials and sum(exps) != sum(monomials[0]):
                raise ParseError(path, lineno, "monomial has degree %d, the first has %d"
                                 % (sum(exps), sum(monomials[0])))
            monomials.append(exps)
        elif toks[0] == "map":
            if len(toks) != 2:
                raise ParseError(path, lineno, "expected 'map NAME'")
            name = toks[1]
            if name in maps:
                raise ParseError(path, lineno, "map %r given twice" % name)
            rows = []
            for k in range(n):
                i += 1
                if i >= len(lines):
                    raise ParseError(path, lineno, "map %r is missing rows" % name)
                rlineno, rline = lines[i]
                rtoks = rline.split()
                if len(rtoks) != n:
                    raise ParseError(path, rlineno, "map row needs %d entries" % n)
                rows.append([parse_cyc5(t, path, rlineno) for t in rtoks])
            maps[name] = ProjectiveMap(rows)
        else:
            raise ParseError(path, lineno, "unknown directive %r" % toks[0])
        i += 1
    if n is None or weights is None or not monomials:
        raise ParseError(path, 1, "family file needs vars, weights and mono lines")
    fam = MonomialFamily(num_vars=n, weights=weights, monomials=tuple(monomials))
    return FamilyFile(path=str(path), family=fam, maps=maps)
