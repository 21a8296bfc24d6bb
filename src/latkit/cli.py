"""latkit command line: discriminant forms, short vectors, overlattice
gluing, family checks, and the full claim reproduction suite.

Exit codes: 0 all checks pass, 1 a check failed, 2 input/usage error,
3 a computation ran past its work budget.
"""

import argparse
import json
import sys

from . import catalog, k3fam, shortvec
from .cyclo import Cyc5
from .files import ParseError, parse_family_file, parse_lattice_file
from .lattice import (
    CapExceeded, LatticeError, discriminant_group, invariant_factors, make_lattice, overlattice,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(args, command, results, out, exit_code=EXIT_OK):
    """Print the results as text, or with --json as one payload; returns exit_code."""
    if args.json:
        print(json.dumps({"schema": SCHEMA, "command": command, "results": results,
                          "exit": exit_code}, indent=2), file=out)
        return exit_code
    print("latkit %s" % command, file=out)
    for res in results:
        if "pass" in res:
            status = "ok  " if res["pass"] else "FAIL"
            print("  [%s] %s: expected %s, computed %s  (%.1f ms)"
                  % (status, res["id"], res["expected"], res["computed"],
                     res.get("millis", 0.0)), file=out)
        else:
            print("  %s: %s" % (res["id"], res["value"]), file=out)
    return exit_code


def _lattice_from_file(path):
    """(lattice, index, basis) as overlattice returns them for the file's
    glue rows; index and basis are None when the file has none."""
    lf = parse_lattice_file(path)
    lat = make_lattice(lf.gram)
    if not lf.glue:
        return lat, None, None
    return overlattice(lat, lf.glue)


def cmd_disc(args, out):
    lat, _, _ = _lattice_from_file(args.file)
    fqf = discriminant_group(lat)
    results = []
    if not fqf.invariant_factors:
        results.append({"id": "disc/group", "value": "unimodular (trivial group)"})
    else:
        results.append({"id": "disc/group",
                        "value": ",".join(str(d) for d in fqf.invariant_factors)})
        for i, (d, q) in enumerate(zip(fqf.invariant_factors, fqf.q_values)):
            results.append({"id": "disc/q[%d]" % i, "value": "order %d, q = %s" % (d, q)})
        for i, row in enumerate(fqf.b_matrix):
            results.append({"id": "disc/b[%d]" % i,
                            "value": " ".join(str(x) for x in row)})
    return _emit(args, "disc %s" % args.file, results, out)


def cmd_shortvec(args, out):
    lat, _, _ = _lattice_from_file(args.file)
    rep = shortvec.short_vectors(lat, args.bound)
    results = [
        {"id": "shortvec/pairs", "value": str(rep.total_pairs)},
        {"id": "shortvec/counts",
         "value": "; ".join("norm %d: %d pairs" % (n, c)
                            for n, c in rep.counts_by_norm) or "none"},
        {"id": "shortvec/convention",
         "value": "negated input" if rep.negated else "as given"},
    ]
    if not args.count_only:
        for v, norm in rep.vectors:
            results.append({"id": "shortvec/vector",
                            "value": "%s norm %d" % (list(v), norm)})
    return _emit(args, "shortvec %s --bound %d" % (args.file, args.bound), results, out)


def cmd_overlattice(args, out):
    lat, index, basis = _lattice_from_file(args.file)
    if index is None:
        raise LatticeError("no glue rows in %s" % args.file)
    results = [
        {"id": "overlattice/index", "value": str(index)},
        {"id": "overlattice/det", "value": str(lat.det)},
        {"id": "overlattice/even", "value": str(lat.is_even)},
        {"id": "overlattice/disc",
         "value": ",".join(str(d) for d in invariant_factors(lat)) or "trivial"},
    ]
    for row in basis:
        results.append({"id": "overlattice/basis-row",
                        "value": " ".join(str(x) for x in row)})
    return _emit(args, "overlattice %s" % args.file, results, out)


def cmd_family(args, out):
    ff = parse_family_file(args.file)
    ok, weight = k3fam.is_invariant_family(ff.family)
    sigma, iota = ff.maps.get("sigma"), ff.maps.get("iota")
    checks = [("family/invariant", ok)]
    if sigma is not None:
        # sigma must generate the group of diag(w^a_i), a_i the weights, in PGL
        checks.append(("family/sigma-matches-weights", any(k3fam.pgl_equal(
            sigma, k3fam.diagonal_map([Cyc5.omega(k * a) for a in ff.family.weights]))
            for k in range(1, 5))))
    if sigma is not None and iota is not None:
        checks.append(("family/dihedral", k3fam.dihedral_in_pgl(sigma, iota)))
    results = [{"id": cid, "expected": "True", "computed": str(c), "pass": c, "millis": 0.0}
               for cid, c in checks]
    results.insert(1, {"id": "family/weight", "value": str(weight) if ok else "mixed"})
    return _emit(args, "family %s" % args.file, results, out,
                 EXIT_OK if all(c for _, c in checks) else EXIT_FAIL)


def cmd_repro(args, out):
    claims = catalog.repro_all(filter_tag=args.filter, inject_fault=args.inject_fault)
    if not claims:
        raise ValueError("filter %r matches no claims" % args.filter)
    results = [c.as_dict() for c in claims]
    exit_code = EXIT_OK if all(c.passed for c in claims) else EXIT_FAIL
    return _emit(args, "repro", results, out, exit_code)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="latkit",
        description="Exact-arithmetic toolkit for even integral lattices.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", help="discriminant form of a lattice file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_disc)

    p = sub.add_parser("shortvec", help="short vectors of a definite lattice")
    p.add_argument("file")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_shortvec)

    p = sub.add_parser("overlattice", help="glue a lattice file's glue rows")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_overlattice)

    p = sub.add_parser("family", help="check a monomial family file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_family)

    p = sub.add_parser("repro", help="run the full claim reproduction suite")
    p.add_argument("--filter", default=None, help="restrict to claim ids with this prefix")
    p.add_argument("--json", action="store_true")
    p.add_argument("--inject-fault", default=None, metavar="ID",
                   help="negative control: corrupt a construction (known: %s)"
                   % ", ".join(catalog.FAULT_IDS))
    p.set_defaults(fn=cmd_repro)
    return ap


def main(argv=None, out=None):
    out = out or sys.stdout
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.fn(args, out)
    except (ParseError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
