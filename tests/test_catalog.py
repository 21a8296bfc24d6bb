import gc
import io
import json
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from isometry_ref import inverse, is_identity
from latkit import catalog, cli, k3fam, lattice, shortvec
from latkit.catalog import (
    CatalogError, build_L, build_MD5, build_nikulin, primary_decomposition,
    repro_all, std_gram, u2_cubed,
)
from latkit.isometry import CapExceeded
from latkit.lattice import (
    GlueError, direct_sum, discriminant_group, fqf_isomorphic,
    make_lattice, rescale,
)

# the number of claims in one full repro pass
REPRO_CLAIMS = 51


def test_std_gram():
    assert std_gram("A", 4).det == 5
    assert abs(std_gram("E8").det) == 1
    assert std_gram("U").det == -1
    assert rescale(std_gram("A", 1), -1).gram == ((-2,),)
    with pytest.raises(CatalogError):
        std_gram("B", 2)
    with pytest.raises(CatalogError):
        std_gram("A")


def test_build_L_core_invariants(L, L_disc):
    c, index = L
    assert index == 256
    lat = c.lattice
    assert lat.rank == 16
    assert lat.is_even
    assert lat.signature == (0, 16)
    assert L_disc.invariant_factors == (5, 5, 5, 5)
    # the glue vectors have self-pairing -4 in the base form
    assert c.base_lattice.pairing(c.base_vectors["mu"], c.base_vectors["mu"]) == -4
    assert c.base_lattice.pairing(c.base_vectors["nu"], c.base_vectors["nu"]) == -4
    # named vectors really lie in the new lattice (integer coordinates)
    for name, v in c.vectors.items():
        assert all(isinstance(x, int) for x in v), name


def test_build_L_isometries(L):
    from latkit.isometry import disc_action_trivial, group_closure, order
    c, _ = L
    g, h = c.isometries["g"], c.isometries["h"]
    assert order(g) == 5 and order(h) == 2
    assert disc_action_trivial(c.lattice, g)
    assert group_closure([g, h]).order == 10
    assert is_identity(h * g * inverse(h) * g)


def test_fault_injection_breaks_gluing():
    nu = list(catalog.NU_BASE)
    nu[4] = Fraction(1, 3)
    with pytest.raises(GlueError):
        build_L(nu_override=nu)


def test_verify_e_basis_all_pass():
    claims = repro_all(filter_tag="e8")
    assert len(claims) == 4
    for claim in claims:
        assert claim.passed, claim.id


def test_nikulin_and_md5():
    nik, index = build_nikulin()
    assert index == 2
    assert nik.is_even
    f = discriminant_group(nik)
    assert f.invariant_factors == (2,) * 6
    md5 = build_MD5(nik)
    assert md5.rank == 16
    assert primary_decomposition(
        discriminant_group(md5).invariant_factors) == (2, 2, 2, 2, 2, 2, 5, 5)


def test_u2_cubed():
    lat = u2_cubed()
    assert lat.rank == 6
    assert discriminant_group(lat).invariant_factors == (2,) * 6


def test_primary_decomposition():
    assert primary_decomposition((12, 6)) == (2, 3, 3, 4)
    assert primary_decomposition((6,)) == (2, 3)
    assert primary_decomposition((12,)) == (3, 4)
    assert primary_decomposition(()) == ()


def test_repro_filter_and_fault():
    claims = repro_all(filter_tag="nikulin")
    assert claims and all(c.id.startswith("nikulin") for c in claims)
    assert all(c.passed for c in claims)
    bad = repro_all(filter_tag="L/index", inject_fault="nu-coord")
    assert len(bad) == 1 and not bad[0].passed
    with pytest.raises(ValueError):
        repro_all(inject_fault="no-such-fault")


def test_claim_result_serialisation():
    claims = repro_all(filter_tag="md5/rank")
    d = claims[0].as_dict()
    assert d["pass"] is True
    assert d["id"] == "md5/rank"
    assert set(d) == {"id", "locator", "expected", "computed", "pass", "millis"}


def _counting(monkeypatch, owners, name):
    """Set `name` in each owner module to one wrapper that counts calls,
    also where the module does not import it yet, so that a later import
    of the name is counted too."""
    orig = next(getattr(mod, name) for mod in owners if hasattr(mod, name))
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in owners:
        monkeypatch.setattr(mod, name, wrapper, raising=False)
    return calls


def _raise(exc):
    def fn(*args, **kwargs):
        raise exc
    return fn


def test_claim_error_is_a_failure_not_an_abort(monkeypatch, L):
    monkeypatch.setattr(catalog, "order", _raise(CapExceeded("order cap")))
    builds = _counting(monkeypatch, [catalog], "build_L")
    niks = _counting(monkeypatch, [catalog], "build_nikulin")
    md5s = _counting(monkeypatch, [catalog], "build_MD5")
    forms = _counting(monkeypatch, [catalog, lattice, cli], "discriminant_group")
    searches = _counting(monkeypatch, [catalog, lattice], "fqf_isomorphic")
    factors = _counting(monkeypatch, [catalog, lattice], "invariant_factors")
    out = io.StringIO()
    assert cli.main(["repro", "--json"], out=out) == cli.EXIT_FAIL
    results = json.loads(out.getvalue())["results"]
    assert len(results) == REPRO_CLAIMS
    failed = {r["id"]: r["computed"] for r in results if not r["pass"]}
    assert failed == {"g/order": "error: order cap",
                      "dih10/h-order": "error: order cap"}
    # each construction is built once per run, through the module name
    # that tracers patch; no discriminant form is built or searched, and
    # L, M_D5 and the Nikulin lattice get their invariant factors once each
    assert len(builds) == len(niks) == len(md5s) == 1
    assert forms == [] and searches == []
    nik = build_nikulin()[0]
    assert sorted(args[0].gram for args in factors) == sorted(
        [L[0].lattice.gram, build_MD5(nik).gram, nik.gram])


def test_every_named_input_is_built(monkeypatch):
    # one full pass builds each named input exactly once, so a builder
    # that no claim reads fails here
    built = []
    builders = catalog.BUILDERS
    monkeypatch.setattr(catalog, "BUILDERS", {
        name: lambda get, name=name, fn=fn: built.append(name) or fn(get)
        for name, fn in builders.items()})
    assert all(c.passed for c in repro_all())
    assert sorted(built) == sorted(builders)


def _as_form(lat, lifts):
    """The lifts, each of order 2 in lat*/lat, as generators of a form."""
    return lattice.FiniteQuadraticForm(
        (2,) * len(lifts), tuple(lifts),
        tuple(lat.pairing(x, x) % 2 for x in lifts),
        tuple(tuple(lat.pairing(x, y) % 1 for y in lifts) for x in lifts))


def _generated_classes(lifts):
    """The classes mod Z^n of the sums of subsets of the lifts."""
    classes = {tuple(Fraction(0) for _ in lifts[0])}
    for x in lifts:
        classes |= {tuple((a + b) % 1 for a, b in zip(c, x)) for c in classes}
    return classes


def test_nikulin_glue_witness_against_the_form_isomorphism():
    # NIK_U2_GLUE, read as a map from discriminant_group(N) to the U(2)^3
    # form: each part is a class of order 2, the map keeps q and b, both
    # sides' parts generate their whole group of order 64, so it is
    # bijective, and the backtracking search it replaced agrees
    nik, u2 = build_nikulin()[0], u2_cubed()
    glue = catalog.NIK_U2_GLUE
    n_parts = [row[:8] for row in glue]
    u_parts = [row[8:] for row in glue]
    for x in n_parts + u_parts:
        assert all((2 * c).denominator == 1 for c in x)
    f_n, f_u = _as_form(nik, n_parts), _as_form(u2, u_parts)
    assert (f_n.q_values, f_n.b_matrix) == (f_u.q_values, f_u.b_matrix)
    assert len(_generated_classes(n_parts)) == len(_generated_classes(u_parts)) == 64
    disc_n, disc_u = discriminant_group(nik), discriminant_group(u2)
    assert fqf_isomorphic(disc_n, disc_u) is not None
    assert fqf_isomorphic(f_n, disc_n) is not None
    assert fqf_isomorphic(f_u, disc_u) is not None
    assert catalog._glues_unimodular(nik, rescale(u2, -1), glue)


def test_nikulin_glue_mutants_fail():
    nik, u2 = build_nikulin()[0], u2_cubed()
    glue = [list(row) for row in catalog.NIK_U2_GLUE]
    doubled = [row[:] for row in glue]
    doubled[0][:8] = [2 * x for x in doubled[0][:8]]
    a1_6 = direct_sum([rescale(std_gram("A", 1), -1)] * 6)
    for a, b, rows in [
            (nik, rescale(u2, -1), glue[1:]),                           # one row dropped
            (nik, rescale(u2, -1), [row[:8] + [0] * 6 for row in glue]),  # U-parts zeroed
            (nik, rescale(u2, -1), doubled),                            # an N-part doubled
            (nik, rescale(a1_6, -1), glue)]:                            # A1(-1)^6 for U(2)^3
        assert catalog._glues_unimodular(a, b, rows) is False


def test_glues_unimodular_needs_both_onto_checks():
    # A4 + A4(-1) glued along (w, w), w the first fundamental weight, is
    # unimodular with both parts generating Z/5
    a4 = std_gram("A", 4)
    w = [Fraction(x, 5) for x in (4, 3, 2, 1)]
    assert catalog._glues_unimodular(a4, rescale(a4, -1), [w + w])
    # <2> + <-2> glued along (1/2, 1/2) is the unimodular U, but the part
    # generates only Z/2 of (Z/2)^2: unimodular alone is not enough, on
    # either side of the sum
    a = make_lattice([[2, 0], [0, -2]])
    e8 = std_gram("E8")
    half = [Fraction(1, 2)] * 2
    assert abs(lattice.overlattice(direct_sum([a, e8]), [half + [0] * 8])[0].det) == 1
    assert catalog._glues_unimodular(a, e8, [half + [0] * 8]) is False
    assert catalog._glues_unimodular(e8, a, [[0] * 8 + half]) is False


def test_empty_glue_has_index_one():
    # no glue rows leave Z^n, of index 1 in itself, so an empty glue
    # glues two lattices exactly when both are unimodular
    e8, a2 = std_gram("E8"), std_gram("A", 2)
    assert lattice.span_index([]) == 1
    assert catalog._glues_unimodular(e8, rescale(e8, -1), []) is True
    assert catalog._glues_unimodular(e8, e8, []) is True
    assert catalog._glues_unimodular(a2, rescale(a2, -1), []) is False


def test_filter_builds_only_what_selected_claims_need(monkeypatch):
    monkeypatch.setattr(catalog, "build_L", _raise(RuntimeError("no L")))
    monkeypatch.setattr(catalog, "build_nikulin", _raise(RuntimeError("no Nikulin")))
    out = io.StringIO()
    assert cli.main(["repro", "--filter", "k3", "--json"], out=out) == cli.EXIT_OK
    results = json.loads(out.getvalue())["results"]
    assert len(results) == 22 and all(r["pass"] for r in results)


@pytest.mark.parametrize("case", ["quartic-p3", "ci-p4", "ci-p5", "double-cover-p2"])
def test_a_case_that_fails_to_build_fails_only_its_claims(monkeypatch, case):
    name = "k3:" + case
    monkeypatch.setitem(catalog.BUILDERS, name, _raise(k3fam.FamilyError("no case")))
    out = io.StringIO()
    assert cli.main(["repro", "--json"], out=out) == cli.EXIT_FAIL
    results = json.loads(out.getvalue())["results"]
    assert len(results) == REPRO_CLAIMS
    failed = {r["id"]: r["computed"] for r in results if not r["pass"]}
    assert failed == {c.id: "error: no case" for c in catalog.CLAIMS if name in c.needs}
    assert failed and all(i.startswith("k3/%s/" % case) for i in failed)


def test_a_run_that_selects_no_case_builds_none(monkeypatch):
    # every case builds its iota with permutation_map, so all four fail
    monkeypatch.setattr(k3fam, "permutation_map", _raise(k3fam.FamilyError("no iota")))
    out = io.StringIO()
    assert cli.main(["repro", "--filter", "L", "--json"], out=out) == cli.EXIT_OK
    results = json.loads(out.getvalue())["results"]
    assert len(results) == 9 and all(r["pass"] for r in results)


def test_the_claim_table_matches_its_pins_without_running_a_claim():
    # the table against the counts and groups that perfbench's oracles
    # and tracer pin, with no claim run
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import layertrace
    import workloads

    ids = [c.id for c in catalog.CLAIMS]
    assert len(set(ids)) == len(ids)
    assert {name for c in catalog.CLAIMS for name in c.needs} <= set(catalog.BUILDERS)
    assert len(ids) == REPRO_CLAIMS == workloads.REPRO_CLAIMS
    assert sum(i.startswith("k3/") for i in ids) == workloads.K3_CLAIMS
    assert {i.split("/")[0] for i in ids} <= set(layertrace.CLAIM_GROUPS)


def test_failed_build_is_attempted_once(monkeypatch):
    attempts = []

    def broken(*args, **kwargs):
        attempts.append(args)
        raise GlueError("broken glue")

    monkeypatch.setattr(catalog, "build_L", broken)
    claims = repro_all(filter_tag="L/")
    assert len(claims) == 9 and len(attempts) == 1
    assert all(c.computed == "error: broken glue" for c in claims)


def test_a_run_frees_what_it_built_without_the_cycle_collector(monkeypatch):
    # the lazy inputs are in no reference cycle, so a run's constructions
    # (and the k3 cases) do not pile up in peak memory between collections
    refs = []
    build = catalog.BUILDERS["L"]

    def watched(get):
        c = build(get)
        refs.append(weakref.ref(c))
        return c

    monkeypatch.setitem(catalog.BUILDERS, "L", watched)
    gc.disable()
    try:
        assert [c.passed for c in repro_all(filter_tag="L/index")] == [True]
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()


def test_one_search_certifies_rootless_and_minimum(monkeypatch):
    # L/rootless and L/minimum read one count of L up to norm 3, taken from
    # its glue classes over A4(-2)^4: a whole repro pass runs one
    # short_vectors, on the rank-4 block A4(-2) at bound 2^2 * 2 (glue
    # denominator 2, radius 2), and no shortvec.minimum, since nothing is
    # counted and min |G_ii| = 4 <= 3 + 1 in L's basis
    searches = _counting(monkeypatch, [shortvec], "short_vectors")
    minima = _counting(monkeypatch, [shortvec], "minimum")
    claims = repro_all()
    assert len(claims) == REPRO_CLAIMS and all(c.passed for c in claims)
    assert [(lat.gram, bound) for lat, bound in searches] == [
        (rescale(std_gram("A", 4), -2).gram, 8)]
    assert minima == []


def test_fault_fails_exactly_the_claims_on_L():
    claims = repro_all(inject_fault="nu-coord")
    assert len(claims) == REPRO_CLAIMS
    for c in claims:
        on_L = c.id.split("/")[0] in ("L", "g", "dih10", "e8")
        assert c.passed != on_L, c.id


# the failing set of each fault, beside nu-coord (every claim on L) and
# k3-commutant (the quartic's moduli count), which have tests of their own
FAULT_FAILURES = [
    ("u2-diagonal", {"nikulin/disc-form-matches-U2-cubed": "False"}),
    ("h-minus-one", {"dih10/relation": "False", "dih10/g2h-minus-on-f": "False",
                     "dih10/h-reflection-match": "False",
                     "dih10/h-invariant-is-e-complement": "False"}),
    ("g-minus-one", {"g/order": "2", "g/disc-trivial": "False",
                     "dih10/group-order": "4", "dih10/g2h-minus-on-f": "False"}),
    ("md5-unglued", {"md5/disc-primary": str((2,) * 8 + (5, 5)),
                     "md5/disc-chain": str((2,) * 6 + (10, 10))}),
    ("nu-roots", {"L/nu-self": "-6", "L/rootless": "40", "L/minimum": "2",
                  "e8/e-half-unimodular": str((False, 1, (0, 8))),
                  "e8/f-half-unimodular": str((False, 1, (0, 8)))}),
    ("sv-glue", dict.fromkeys(
        ("L/rootless", "L/minimum"),
        "error: the blocks have |det| 40960000, not |det| 625 of the lattice "
        "times 128^2 for its 128 glue classes")),
    ("k3-dihedral", {"k3/quartic-p3/dihedral": "False",
                     "k3/quartic-p3/conjugation-scalar": "False",
                     "k3/quartic-p3/fixed-points": "error: no fixed-point count on the "
                         "(+1) eigenspace: dimension 3, 1 form(s) left"}),
    ("k3-p4-iota", {"k3/ci-p4/fixed-points": "error: no fixed-point count on the "
                    "(+1) eigenspace: dimension 2, 2 form(s) left"}),
]


@pytest.mark.parametrize("fault,failed", FAULT_FAILURES)
def test_fault_fails_its_claim_group(fault, failed):
    # <-2>^6 has q values 3/2, so no isomorphism to the Nikulin form; -I
    # as h commutes with g and fixes nothing; -I as g has order 2, moves
    # every class of (Z/5)^4 and generates only a Klein group with h;
    # A4(-1)^2 + A1(-1)^8 has discriminant group (Z/2)^8 + (Z/5)^2; and
    # the nu-roots glue still gives index 256, but nu has norm -6 and L
    # gets 40 pairs of roots, so both E8(-2) spans are odd after halving;
    # without g3(nu) the glue of A4(-2)^4 has 128 classes, and
    # 80^4 != 625 * 128^2 refuses the count; and the quartic's iota swapping
    # x2, x3 alone gives a_i + a_pi(i) in {0, 1, 3}, so it does not invert
    # sigma, and its fixed locus is a plane and a point, not two lines;
    # ci-p4's iota negating x0 as well is still dihedral, but its (+1)
    # eigenspace is a line on which neither the quadric nor the cubic vanishes
    out = io.StringIO()
    assert cli.main(["repro", "--json", "--inject-fault", fault], out=out) == cli.EXIT_FAIL
    results = json.loads(out.getvalue())["results"]
    assert len(results) == REPRO_CLAIMS
    assert {r["id"]: r["computed"] for r in results if not r["pass"]} == failed


def test_k3_commutant_fault_fails_the_quartic_moduli():
    # diag(1, 1, w, w^2) in place of the quartic's sigma has commutant
    # 2^2 + 1 + 1 = 6, so its moduli count drops from 3 to 1
    out = io.StringIO()
    assert cli.main(["repro", "--json", "--inject-fault", "k3-commutant"], out=out) == cli.EXIT_FAIL
    results = json.loads(out.getvalue())["results"]
    assert len(results) == REPRO_CLAIMS
    assert [(r["id"], r["computed"]) for r in results if not r["pass"]] == [
        ("k3/quartic-p3/moduli", "1")]


def test_every_fault_has_a_pinned_control():
    # a fault replaces builders of named inputs (a misspelt name would add
    # a builder that nothing reads), and each fault's failing set is pinned
    for fault, overrides in catalog.FAULTS.items():
        assert overrides and set(overrides) <= set(catalog.BUILDERS), fault
    pinned = {fault for fault, _ in FAULT_FAILURES} | {"nu-coord", "k3-commutant"}
    assert set(catalog.FAULT_IDS) == pinned


def test_readme_names_every_fault_in_order():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert [f for f in catalog.FAULT_IDS if f not in readme] == []
    first = [readme.index(f) for f in catalog.FAULT_IDS]
    assert first == sorted(first)


def test_one_repro_pass_runs_17_eliminations(monkeypatch):
    # sublattice, overlattice, reflection_in_span and _half_unimodular
    # reuse the dets they already have (40 fraction-free eliminations per
    # pass before, 22 after); disc_action_trivial reads L's Smith form,
    # dih10/relation checks g h g = h and make_isometry takes no det, which
    # leaves 18; L's block A4(-2) is built on import, not by each build_L
    # and count of L, which leaves 17.  The Smith forms are those of L, M_D5 and the Nikulin
    # lattice, and only build_L and reflection_in_span take a scaled inverse
    from latkit import isometry, ratmat
    calls, snfs, inverses = [], [], []
    elim, snf, scaled_inverse = ratmat._fraction_free, ratmat.snf, ratmat.scaled_inverse
    monkeypatch.setattr(ratmat, "_fraction_free",
                        lambda *a, **k: calls.append(1) or elim(*a, **k))
    monkeypatch.setattr(lattice, "snf", lambda g: snfs.append(len(g)) or snf(g))
    assert not hasattr(isometry, "scaled_inverse")
    for mod in (ratmat, catalog):
        monkeypatch.setattr(mod, "scaled_inverse", lambda a: inverses.append(
            sys._getframe(1).f_code.co_name) or scaled_inverse(a))
    results = repro_all()
    assert len(results) == REPRO_CLAIMS and all(c.passed for c in results)
    assert len(calls) == 17
    assert snfs == [16, 8, 16]
    assert inverses == ["build_L", "reflection_in_span"]


def test_repro_multiplies_only_ints(monkeypatch):
    # mat_mul adds only nonzero terms, so on Fraction input an entry's type
    # follows the terms it kept; latkit hands it ints only.  Wrap it where
    # catalog, isometry and lattice bind it, and run repro with no fault
    # and with each fault
    from latkit import isometry, ratmat
    calls, bad = {}, []

    def wrap(name):
        def mat_mul(a, b):
            calls[name] = calls.get(name, 0) + 1
            if not all(type(x) is int for m in (a, b) for row in m for x in row):
                bad.append((name, sys._getframe(1).f_code.co_name))
            return ratmat.mat_mul(a, b)
        return mat_mul

    for mod in (catalog, isometry, lattice):
        monkeypatch.setattr(mod, "mat_mul", wrap(mod.__name__))
    for fault in (None,) + catalog.FAULT_IDS:
        argv = ["repro", "--json"] + (["--inject-fault", fault] if fault else [])
        assert cli.main(argv, out=io.StringIO()) == (1 if fault else 0)
    assert bad == []
    assert set(calls) == {"latkit.catalog", "latkit.isometry", "latkit.lattice"}
