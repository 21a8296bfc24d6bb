import io
import json
import random
from math import prod

import pytest

from latkit import shortvec
from latkit.cli import EXIT_BUDGET, EXIT_FAIL, EXIT_OK, EXIT_USAGE, main

A2 = "rank 2\n2 -1\n-1 2\n"
NIKULIN = ("rank 8\n"
           + "\n".join(" ".join("-2" if i == j else "0" for j in range(8))
                       for i in range(8))
           + "\nglue " + " ".join(["1/2"] * 8) + "\n")
FAMILY = """\
vars 4
weights 0 3 1 2
mono 3 0 1 0
mono 2 2 0 0
mono 1 0 0 3
mono 1 1 1 1
mono 0 3 0 1
mono 0 1 3 0
mono 0 0 2 2
map sigma
1 0 0 0
0 w^3 0 0
0 0 w 0
0 0 0 w^2
map iota
0 1 0 0
1 0 0 0
0 0 0 1
0 0 1 0
"""


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_disc_text_and_json(tmp_path):
    f = write(tmp_path, "a2.lat", A2)
    code, text = run(["disc", f])
    assert code == EXIT_OK
    assert "disc/group: 3" in text
    code, text = run(["disc", f, "--json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["exit"] == EXIT_OK
    ids = {r["id"] for r in payload["results"]}
    assert "disc/group" in ids and "disc/q[0]" in ids


def test_disc_generic_rank16(tmp_path):
    # A generic rank-16 even definite Gram matrix 2 B B^T: snf on such a
    # matrix once ran for minutes because its transforms exploded.
    from sympy import Matrix

    rng = random.Random(16)
    while True:
        b = [[rng.choice((-1, 0, 1)) for _ in range(16)] for _ in range(16)]
        det_b = int(Matrix(b).det())
        if det_b:
            break
    gram = [[2 * sum(x * y for x, y in zip(r, s)) for s in b] for r in b]
    text = "rank 16\n" + "\n".join(" ".join(map(str, row)) for row in gram) + "\n"
    f = write(tmp_path, "generic16.lat", text)
    code, out = run(["disc", f, "--json"])
    assert code == EXIT_OK
    group = next(r["value"] for r in json.loads(out)["results"] if r["id"] == "disc/group")
    assert prod(int(d) for d in group.split(",")) == 2 ** 16 * det_b ** 2


def test_shortvec(tmp_path):
    f = write(tmp_path, "a2.lat", A2)
    code, text = run(["shortvec", f, "--bound", "2"])
    assert code == EXIT_OK
    assert "norm 2: 3 pairs" in text
    code, text = run(["shortvec", f, "--bound", "2", "--count-only", "--json"])
    payload = json.loads(text)
    ids = [r["id"] for r in payload["results"]]
    assert "shortvec/vector" not in ids


def test_shortvec_budget_exit(tmp_path, monkeypatch, capsys):
    # Z^2 at bound 10^6 needs about 3.1M search nodes; with a small budget
    # the search stops with a one-line error and its own exit code.
    monkeypatch.setattr(shortvec, "NODE_BUDGET", 10_000)
    f = write(tmp_path, "z2.lat", "rank 2\n1 0\n0 1\n")
    code, text = run(["shortvec", f, "--bound", "1000000"])
    assert code == EXIT_BUDGET
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_overlattice_command(tmp_path):
    f = write(tmp_path, "nik.lat", NIKULIN)
    code, text = run(["overlattice", f, "--json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    got = {r["id"]: r["value"] for r in payload["results"] if "value" in r}
    assert got["overlattice/index"] == "2"
    assert got["overlattice/even"] == "True"
    assert got["overlattice/disc"] == "2,2,2,2,2,2"


def test_family_command(tmp_path):
    f = write(tmp_path, "fam.fam", FAMILY)
    code, text = run(["family", f])
    assert code == EXIT_OK
    assert "family/invariant" in text
    assert "family/dihedral" in text
    assert "family/sigma-matches-weights" in text
    assert "FAIL" not in text


def test_family_command_checks_sigma_against_the_weights(tmp_path):
    # sigma^2 generates the same group as sigma, so it matches the weights
    squared = FAMILY.replace("0 w^3 0 0\n0 0 w 0\n0 0 0 w^2", "0 w 0 0\n0 0 w^2 0\n0 0 0 w^4")
    assert squared != FAMILY
    code, text = run(["family", write(tmp_path, "sq.fam", squared), "--json"])
    got = {r["id"]: r for r in json.loads(text)["results"]}
    assert code == EXIT_OK and got["family/sigma-matches-weights"]["pass"] is True
    # weights 0 0 name the trivial group, but diag(1, w) multiplies x0 x1^4
    # by w^4 and fixes x0^5; the dihedral check alone passes
    bad = ("vars 2\nweights 0 0\nmono 5 0\nmono 0 5\nmono 1 4\n"
           "map sigma\n1 0\n0 w\nmap iota\n0 1\n1 0\n")
    code, text = run(["family", write(tmp_path, "bad.fam", bad), "--json"])
    got = {r["id"]: r["pass"] for r in json.loads(text)["results"] if "pass" in r}
    assert code == EXIT_FAIL
    assert got == {"family/invariant": True, "family/sigma-matches-weights": False,
                   "family/dihedral": True}


def test_family_command_fails_on_mixed_weights(tmp_path):
    bad = "vars 2\nweights 0 1\nmono 1 1\nmono 2 0\n"
    f = write(tmp_path, "bad.fam", bad)
    code, text = run(["family", f])
    assert code == EXIT_FAIL
    assert "FAIL" in text


@pytest.mark.parametrize("text, msg", [
    ("vars 1\nweights 0\nmono 5\nmap sigma\n1/0\nmap iota\n1\n", "bad rational '1/0'"),
    ("vars 0\nweights\nmono\nmap sigma\nmap iota\n", "expected 'vars n' with n >= 1"),
    ("vars 2\nweights 0 1\nmono 1 1\nmono 2 1\n", "bad.fam:4: monomial has degree 3"),
    # same degree and one w-weight, so this family was reported invariant with exit 0
    ("vars 2\nweights 0 1\nmono 2 0\nmono 7 -5\n", "bad.fam:4: monomial exponent -5 is negative"),
])
def test_family_command_rejects_malformed_file(tmp_path, capsys, text, msg):
    f = write(tmp_path, "bad.fam", text)
    code, out = run(["family", f])
    assert code == EXIT_USAGE and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and msg in err
    assert "Traceback" not in err


def test_repro_filter_and_json():
    code, text = run(["repro", "--filter", "md5", "--json"])
    assert code == EXIT_OK
    payload = json.loads(text)
    assert all(r["pass"] for r in payload["results"])
    assert {r["id"] for r in payload["results"]} == {
        "md5/rank", "md5/disc-primary", "md5/disc-chain"}


def test_repro_fault_injection_exits_nonzero():
    code, text = run(["repro", "--filter", "L/index", "--inject-fault", "nu-coord"])
    assert code == EXIT_FAIL
    assert "FAIL" in text


def test_usage_errors(tmp_path):
    code, _ = run(["repro", "--filter", "no-such-prefix"])
    assert code == EXIT_USAGE
    code, _ = run(["repro", "--inject-fault", "no-such-fault"])
    assert code == EXIT_USAGE
    code, _ = run(["disc", str(tmp_path / "missing.lat")])
    assert code == EXIT_USAGE
    f = write(tmp_path, "bad.lat", "rank 2\n1 2\n3 1\n")
    code, _ = run(["disc", f])
    assert code == EXIT_USAGE
    code, _ = run(["no-such-command"])
    assert code == EXIT_USAGE


def test_disc_refuses_an_odd_lattice(tmp_path, capsys):
    # q of <3> would read 1/3 or 4/3 mod 2 depending on the lift
    f = write(tmp_path, "odd.lat", "rank 1\n3\n")
    for argv in (["disc", f], ["disc", f, "--json"]):
        code, out = run(argv)
        assert code == EXIT_USAGE and out == ""
        assert "discriminant form of an odd lattice" in capsys.readouterr().err


def test_text_json_parity(tmp_path):
    f = write(tmp_path, "a2.lat", A2)
    code_t, text = run(["disc", f])
    code_j, js = run(["disc", f, "--json"])
    assert code_t == code_j
    payload = json.loads(js)
    for r in payload["results"]:
        assert r["id"] in text


def _ids_and_values(payload):
    return [(r["id"], r["value"]) for r in payload["results"]]


@pytest.mark.parametrize("argv, lines", [
    # the glued lattice's form (2)^6 and its 128 half-vector pairs of norm
    # 4; unglued A1(-1)^8 gives (2)^8 and 56 pairs
    (["disc"], ["disc/group: 2,2,2,2,2,2", "disc/q[5]: order 2, q = 1",
                "disc/b[0]: 0 1/2 1/2 1/2 1/2 1/2"]),
    (["shortvec", "--bound", "4", "--count-only"],
     ["shortvec/pairs: 192", "shortvec/counts: norm 2: 8 pairs; norm 4: 184 pairs",
      "shortvec/convention: negated input"]),
])
def test_glued_file_text_and_json(tmp_path, argv, lines):
    f = write(tmp_path, "nik.lat", NIKULIN)
    cmd = [argv[0], f] + argv[1:]
    code, text = run(cmd)
    assert code == EXIT_OK
    assert text.startswith("latkit %s %s" % (argv[0], f))
    for line in lines:
        assert "\n  %s\n" % line in text
    code, js = run(cmd + ["--json"])
    assert code == EXIT_OK
    payload = json.loads(js)
    assert payload["schema"] == 1 and payload["exit"] == EXIT_OK
    got = _ids_and_values(payload)
    for line in lines:
        assert tuple(line.split(": ", 1)) in got
    assert len(got) == text.count("\n") - 1


def test_overlattice_basis_rows_are_fraction_strings(tmp_path):
    f = write(tmp_path, "nik.lat", NIKULIN)
    code, text = run(["overlattice", f])
    assert code == EXIT_OK
    assert text == (
        "latkit overlattice %s\n" % f
        + "  overlattice/index: 2\n  overlattice/det: 64\n"
        + "  overlattice/even: True\n  overlattice/disc: 2,2,2,2,2,2\n"
        + "  overlattice/basis-row: 1/2 1/2 1/2 1/2 1/2 1/2 1/2 1/2\n"
        + "".join("  overlattice/basis-row: %s\n"
                  % " ".join("1" if j == i else "0" for j in range(8))
                  for i in range(1, 8)))
    code, js = run(["overlattice", f, "--json"])
    assert code == EXIT_OK
    rows = [v for i, v in _ids_and_values(json.loads(js)) if i == "overlattice/basis-row"]
    assert rows[0] == " ".join(["1/2"] * 8) and rows[1] == "0 1 0 0 0 0 0 0"


@pytest.mark.parametrize("text, msg", [
    (A2, "no glue rows in {f}"),
    (A2 + "glue 1/3 1/3\n",
     "glue vector 0 pairs non-integrally with basis vector 0 (value 1/3)"),
])
@pytest.mark.parametrize("flags", [[], ["--json"]])
def test_overlattice_input_errors(tmp_path, capsys, text, msg, flags):
    f = write(tmp_path, "a2.lat", text)
    code, out = run(["overlattice", f] + flags)
    assert code == EXIT_USAGE and out == ""
    assert capsys.readouterr().err == "error: %s\n" % msg.format(f=f)


@pytest.mark.parametrize("argv", [["disc"], ["shortvec", "--bound", "2"], ["overlattice"],
                                  ["family"]])
def test_a_directory_path_is_an_input_error(tmp_path, capsys, argv):
    code, text = run(argv[:1] + [str(tmp_path)] + argv[1:])
    assert code == EXIT_USAGE and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert "Traceback" not in err


def test_cap_exceeded_is_one_class():
    import latkit
    from latkit import cli, isometry, k3fam, lattice
    assert (latkit.CapExceeded is lattice.CapExceeded is isometry.CapExceeded
            is shortvec.CapExceeded is k3fam.CapExceeded is cli.CapExceeded)
    assert "CapExceeded" in latkit.__all__
