"""Acceptance suite: twelve exact-arithmetic checks, one line of output each.

Every comparison is exact integer (or exact boolean) equality; there are no
tolerances anywhere.  Run with `pytest -v -s tests/test_acceptance.py` to see
the pass/fail lines.
"""

import io
import random

from isometry_ref import inverse, is_identity
from latkit import catalog, cli, k3fam, shortvec
from latkit.catalog import build_MD5, build_nikulin, std_gram, u2_cubed
from latkit.cyclo import Cyc5
from latkit.isometry import (
    acts_as_minus_one, disc_action_trivial, group_closure, order,
)
from latkit.lattice import (
    discriminant_group, fqf_isomorphic, make_lattice, sublattice,
)
from latkit.ratmat import det, hnf_int, mat_mul, snf, to_int


def report(name, ok, detail=""):
    line = "%s %s" % ("PASS" if ok else "FAIL", name)
    if detail:
        line += "  [%s]" % detail
    print(line)
    assert ok, line


def test_01_overlattice_index(L):
    c, index = L
    report("criterion-01 overlattice index 256", index == 256, "index=%d" % index)


def test_02_discriminant_group(L_disc):
    inv = L_disc.invariant_factors
    report("criterion-02 discriminant group (5,5,5,5)", inv == (5, 5, 5, 5),
           "factors=%s" % (inv,))


def test_03_rootless_minimum(L):
    c, _ = L
    rep = shortvec.short_vectors(c.lattice, 3)
    m = shortvec.minimum(c.lattice)
    report("criterion-03 rootless with minimum 4",
           len(rep.vectors) == 0 and m == 4,
           "vectors<=3: %d, min=%d" % (len(rep.vectors), m))


def test_04_order5_disc_trivial(L):
    c, _ = L
    g = c.isometries["g"]
    o = order(g)
    triv = disc_action_trivial(c.lattice, g)
    report("criterion-04 g has order 5 and trivial disc action",
           o == 5 and triv, "order=%d trivial=%s" % (o, triv))


def test_05_dihedral_group(L):
    c, _ = L
    g, h = c.isometries["g"], c.isometries["h"]
    n = group_closure([g, h]).order
    rel = is_identity(h * g * inverse(h) * g)
    sq = is_identity(h * h)
    report("criterion-05 <g,h> dihedral of order 10",
           n == 10 and rel and sq,
           "order=%d h^2=I:%s hgh^-1=g^-1:%s" % (n, sq, rel))


def test_06_e8_sublattices(L):
    c, _ = L
    lat = c.lattice
    e_rows = [c.vectors["e%d" % i] for i in range(1, 9)]
    f_rows = [c.vectors["f%d" % i] for i in range(9, 17)]

    def half(rows):
        sub = sublattice(lat, rows)
        halved = make_lattice([[x // 2 for x in row] for row in sub.gram])
        assert all(x % 2 == 0 for row in sub.gram for x in row)
        return halved.is_even and abs(halved.det) == 1 and halved.signature == (0, 8)

    span_det = abs(sublattice(lat, e_rows + f_rows).det)
    span_index = abs(to_int(det(e_rows + f_rows)))
    ok = half(e_rows) and half(f_rows) and span_det == 5 ** 4 and span_index == 1
    report("criterion-06 two E8(-2) copies spanning L",
           ok, "det=%d index=%d" % (span_det, span_index))


def test_07_involution_actions(L):
    c, _ = L
    g, h = c.isometries["g"], c.isometries["h"]
    e_rows = [c.vectors["e%d" % i] for i in range(1, 9)]
    f_rows = [c.vectors["f%d" % i] for i in range(9, 17)]
    minus_e = acts_as_minus_one(h, e_rows)
    minus_f = acts_as_minus_one(g * g * h, f_rows)
    refl = catalog.reflection_in_span(c.lattice, e_rows) == list(map(list, h.matrix))
    report("criterion-07 involution is -1 on <e>, +1 on its complement",
           minus_e and minus_f and refl,
           "h=-1 on e:%s g2h=-1 on f:%s reflection:%s" % (minus_e, minus_f, refl))


def test_08_nikulin():
    nik, index = build_nikulin()
    inv = discriminant_group(nik).invariant_factors
    wit = fqf_isomorphic(discriminant_group(nik),
                         discriminant_group(u2_cubed()))
    report("criterion-08 Nikulin lattice matches U(2)^3 discriminant form",
           index == 2 and inv == (2,) * 6 and wit is not None,
           "index=%d factors=%s witness=%s" % (index, inv, wit is not None))


def test_09_md5():
    md5 = build_MD5(build_nikulin()[0])
    prim = catalog.primary_decomposition(
        discriminant_group(md5).invariant_factors)
    report("criterion-09 rank-16 lattice with disc (Z/5)^2+(Z/2)^6",
           md5.rank == 16 and prim == (2, 2, 2, 2, 2, 2, 5, 5),
           "rank=%d primary=%s" % (md5.rank, prim))


def test_10_families():
    wanted = {"invariant": 7, "dihedral": 4, "moduli": 4, "fixed-points": 2}
    claims = catalog.repro_all(filter_tag="k3")
    by_kind = {"invariant": [], "dihedral": [], "moduli": [], "fixed-points": []}
    for cl in claims:
        for kind in by_kind:
            if ("/%s" % kind) in cl.id or ("/invariant-" in cl.id and kind == "invariant"):
                by_kind[kind].append(cl)
                break
    ok = all(cl.passed for cl in claims)
    counts_ok = all(len(by_kind[k]) >= n for k, n in wanted.items())
    moduli_vals = [cl.computed for cl in by_kind["moduli"]]
    report("criterion-10 four projective families verified",
           ok and counts_ok and moduli_vals == [3, 3, 3, 3],
           "claims=%d moduli=%s" % (len(claims), moduli_vals))


def test_11_property_suites():
    rng = random.Random(20260823)
    ok = True
    for _ in range(500):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
        u, d, v = snf(a)
        ok = ok and mat_mul(mat_mul(u, a), v) == d
        h = hnf_int(a)
        ok = ok and hnf_int(h + a) == h
    shortvec_ok = 0
    while shortvec_ok < 50:
        n = rng.randint(1, 4)
        b = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = [[sum(b[k][i] * b[k][j] for k in range(n)) + (1 if i == j else 0)
              for j in range(n)] for i in range(n)]
        lat = make_lattice(g)
        bound = rng.randint(1, 5)
        rep = shortvec.short_vectors(lat, bound)
        for vec, norm in rep.vectors:
            ok = ok and lat.pairing(vec, vec) == norm and 0 < norm <= bound
        # spot check completeness against direct norms of small boxes
        from itertools import product
        seen = {v for v, _ in rep.vectors}
        for vec in product(range(-2, 3), repeat=n):
            if any(vec) and lat.pairing(vec, vec) <= bound:
                first = next(x for x in vec if x)
                canon = vec if first > 0 else tuple(-x for x in vec)
                ok = ok and canon in seen
        shortvec_ok += 1
    for _ in range(200):
        coeffs = lambda: tuple(rng.randint(-5, 5) for _ in range(4))
        a, b, c = Cyc5(coeffs()), Cyc5(coeffs()), Cyc5(coeffs())
        ok = ok and (a + b) * c == a * c + b * c
        ok = ok and a * b == b * a
        if a:
            ok = ok and a * a.inv() == Cyc5.one()
    report("criterion-11 property suites (snf/hnf, shortvec oracle, Q(w))", ok)


def test_12_negative_control():
    out = io.StringIO()
    code = cli.main(["repro", "--filter", "L/", "--inject-fault", "nu-coord"], out=out)
    report("criterion-12 fault injection exits nonzero", code != 0,
           "exit=%d" % code)
