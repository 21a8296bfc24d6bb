"""The benchmark's four workloads.

A workload is a seeded stream of operations, the call each operation makes
into latkit, an oracle for each output (see oracles.py), and corruptions
of a correct output that the oracle must reject: its negative controls.

Why these four:

- repro: `latkit repro`, the command users run for the paper's
  certificate.  It is the only workload whose inputs repeat (the
  discriminant forms of L, M_D5 and Nikulin are each computed more than
  once per pass), so a cache shows here and nowhere else.
- lattice-ops: what `latkit disc` and the kernel routines face on user
  lattices, every input distinct.  `disc` is the square nonsingular use of
  the Smith normal form, `orth`/`sat` the wide rank-deficient one through
  int_kernel, so a normal-form rewrite that helps one and costs the other
  shows.
- enum: certified short-vector enumeration on L and on random lattices;
  the empty report (b = 3) and the large ones separate cost per node from
  cost per vector.
- families: the K3 family claims and random diagonal Q(w) maps, the only
  workload where Cyc5 arithmetic and k3fam dominate.
"""

import dataclasses
import io
import itertools
import math
from fractions import Fraction

import oracles

# Values certified by the paper, checked against every run.
L_PAIRS = {3: 0, 4: 1320, 6: 21960}
L_MINIMUM = 4
REPRO_CLAIMS = 51
K3_CLAIMS = 22


@dataclasses.dataclass(frozen=True)
class Op:
    kind: str
    data: tuple


def percentile(values, q):
    """Nearest-rank quantile q of values (0.0 when empty).  A run's ops
    come in groups of similar cost; nearest rank stays inside a group
    where interpolation would land in the gap between two."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)] if s else 0.0


def _definite_gram(rng, n):
    """G = 2 B B^T for a random nonsingular B with entries in {-1, 0, 1}:
    an even positive definite Gram matrix."""
    while True:
        b = [[rng.choice((-1, 0, 1)) for _ in range(n)] for _ in range(n)]
        if oracles.det_int(b):
            return tuple(tuple(2 * sum(x * y for x, y in zip(r, s)) for s in b)
                         for r in b)


def _block_gram(rng, n):
    """Orthogonal sum of generic blocks of rank 3 to 6, the shape of
    direct-sum lattices such as M_D5."""
    g = [[0] * n for _ in range(n)]
    off = 0
    while off < n:
        size = min(rng.randint(3, 6), n - off)
        block = _definite_gram(rng, size)
        for i in range(size):
            g[off + i][off:off + size] = block[i]
        off += size
    return tuple(tuple(row) for row in g)


def _reduced_gram(rng, n):
    """A random even Gram matrix 2(D + S): S symmetric with 30% of its
    off-diagonal entries +-1, the rest 0, and D a diagonal that dominates
    each row, so the matrix is positive definite and its basis nearly
    orthogonal.

    Enumeration on 2 B B^T at fixed bounds is heavy-tailed (up to 5,000
    pairs and 13 s on rank 12-16), which would swamp every other figure.
    """
    s = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in rng.sample(pairs, 3 * len(pairs) // 10):
        s[i][j] = s[j][i] = rng.choice((-1, 1))
    return tuple(tuple(2 * (1 + sum(map(abs, s[i])) + rng.randint(0, 1)) if i == j
                       else 2 * s[i][j] for j in range(n)) for i in range(n))


def _independent_rows(rng, k, n, lo, hi):
    while True:
        rows = tuple(tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(k))
        if oracles.echelon(rows)[0] == k:
            return rows


def _involution(rng, n):
    idx = list(range(n))
    rng.shuffle(idx)
    perm = list(range(n))
    for t in range(rng.randint(1, n // 2)):
        a, b = idx[2 * t], idx[2 * t + 1]
        perm[a], perm[b] = b, a
    return tuple(perm)


def _family_map(rng, n):
    """Weights a_i and an involution perm for sigma = diag(w^a_i).

    The weights take every residue mod 5 as evenly as n allows, shifted
    by a random amount: commutant_dim's cost depends on the eigenvalue
    multiplicities and on their order, so fixing both keeps the op's cost
    the same from seed to seed.  Half the involutions obey the dihedral
    rule a_perm(i) + a_i = c (mod 5), half are random.
    """
    shift = rng.randrange(5)
    a = [(i + shift) % 5 for i in range(n)]
    if rng.random() < 0.5:
        return tuple(a), _involution(rng, n)
    # the weight multiset is symmetric under x -> c - x for some c
    c = next(c for c in range(5) if sorted(a) == sorted((c - x) % 5 for x in a))
    perm = list(range(n))
    at = {}
    for i in rng.sample(range(n), n):
        at.setdefault(a[i], []).append(i)
    for v, places in at.items():
        u = (c - v) % 5
        if u == v:
            for i, j in zip(places[::2], places[1::2]):
                perm[i], perm[j] = j, i
        elif v < u:
            for i, j in zip(places, at[u]):
                perm[i], perm[j] = j, i
    return tuple(a), tuple(perm)


def _claims_corruptions(result):
    rc, text = result
    yield "exit-code", lambda: (1, text)
    yield "failed-claim", lambda: (rc, text.replace('"pass": true', '"pass": false', 1))


def _run_cli(lk, argv):
    buf = io.StringIO()
    rc = lk.cli.main(list(argv), out=buf)
    return rc, buf.getvalue()


class Workload:
    """Defaults; each workload sets name and deadline_s and defines
    cycle, execute, check and corruptions."""

    def setup(self, lk):
        """Inputs built with latkit itself, shared by every cycle."""
        return {}

    def controls(self):
        """Operations the program itself must fail."""
        return []

    def extras(self, records):
        """Workload-specific figures for the table: (name, value, unit, n)."""
        return []


class Repro(Workload):
    name = "repro"
    deadline_s = 120.0

    def cycle(self, rng, ctx):
        return [Op("repro", ("repro", "--json"))]

    def execute(self, lk, ctx, op):
        return _run_cli(lk, op.data)

    def check(self, ctx, op, result):
        return oracles.check_claims(*result, REPRO_CLAIMS)

    def corruptions(self, ctx, op, result):
        return _claims_corruptions(result)

    def controls(self):
        # a corrupted construction has to turn the pass into a failed op
        return [Op("repro", ("repro", "--json", "--inject-fault", "nu-coord"))]


DISC_RANKS = tuple(range(4, 17))
# Generic Gram matrices above rank 10 send the current Smith normal form
# into coefficient explosion (rank 11: 1 in 300 takes seconds; rank 14:
# minutes), which would make ops fail or dominate a run.  Ranks 11-16 use
# orthogonal sums of generic blocks instead.
GENERIC_MAX_RANK = 10
KERNEL_RANKS = (8, 10, 12, 14, 16, 18, 20)
# k up to 3n/4, capped where int_kernel's times stay bounded (n = 20 with
# k >= 8 already runs past 10 s on some inputs).
KERNEL_MAX_ROWS = 6
# Rounds of every disc rank and kernel class per cycle: about 10 s of
# scaled time (speed.py), so a 10-second run is one cycle.
LATTICE_OPS_ROUNDS = 10


class LatticeOps(Workload):
    name = "lattice-ops"
    deadline_s = 10.0

    def cycle(self, rng, ctx):
        ops = []
        for _ in range(LATTICE_OPS_ROUNDS):
            disc = [Op("disc", (_definite_gram(rng, n) if n <= GENERIC_MAX_RANK
                                else _block_gram(rng, n),))
                    for n in DISC_RANKS]
            kernel = []
            for n in KERNEL_RANKS:
                for kind in ("orth", "sat"):
                    k = rng.randint(2, min(3 * n // 4, KERNEL_MAX_ROWS))
                    g = _definite_gram(rng, n)
                    rows = _independent_rows(rng, k, n, -2, 2)
                    if kind == "sat":
                        # a nonsingular k x k multiplier gives the span a
                        # nontrivial index in its saturation
                        m = _independent_rows(rng, k, k, -1, 1)
                        rows = tuple(tuple(sum(m[a][b] * rows[b][c] for b in range(k))
                                           for c in range(n)) for a in range(k))
                    kernel.append(Op(kind, (g, rows)))
            for pair in itertools.zip_longest(disc, kernel):
                ops += [op for op in pair if op is not None]
        return ops

    def execute(self, lk, ctx, op):
        lat = lk.lattice.make_lattice(op.data[0])
        if op.kind == "disc":
            return lk.lattice.discriminant_group(lat)
        rows = [list(r) for r in op.data[1]]
        if op.kind == "orth":
            return lk.lattice.orthogonal_complement(lat, rows)
        return lk.lattice.saturation(lat, rows)

    def check(self, ctx, op, result):
        if op.kind == "disc":
            return oracles.check_disc(op.data[0], result)
        if op.kind == "orth":
            return oracles.check_orthogonal_complement(op.data[0], op.data[1], result)
        return oracles.check_saturation(op.data[0], op.data[1], result)

    def corruptions(self, ctx, op, result):
        if op.kind == "disc" and result.invariant_factors:
            f = result.invariant_factors
            yield "disc-factors", lambda: dataclasses.replace(
                result, invariant_factors=f[:-1] + (f[-1] * 2,))
            lift = result.generator_lifts[0]
            bad = (lift[0] + Fraction(1, 2 * f[0]),) + tuple(lift[1:])
            yield "disc-lift", lambda: dataclasses.replace(
                result, generator_lifts=(bad,) + result.generator_lifts[1:])
            if len(f) > 1:
                bm = [list(r) for r in result.b_matrix]
                bm[0][1] = (bm[0][1] + Fraction(1, f[0])) % 1
                yield "disc-b-matrix", lambda: dataclasses.replace(
                    result, b_matrix=tuple(tuple(r) for r in bm))
        elif op.kind == "orth":
            sub, basis = result
            yield "orth-not-primitive", lambda: (sub, [[2 * x for x in basis[0]]] + basis[1:])
            yield "orth-rank", lambda: (sub, basis[:-1])
        elif op.kind == "sat":
            sat, idx = result
            yield "sat-index", lambda: (sat, idx + 1)
            yield "sat-not-primitive", lambda: ([[3 * x for x in sat[0]]] + sat[1:], idx)

    def extras(self, records):
        out = []
        for label, kinds in (("disc", ("disc",)), ("kernel", ("orth", "sat"))):
            ms = [dt * 1e3 for op, _, _, dt in records if op.kind in kinds]
            for q in (50, 90):
                out.append(("%s_ms_p%d" % (label, q), percentile(ms, q / 100), "ms", len(ms)))
        return out


ENUM_RANKS = (12, 13, 14, 15, 16)
# Bound = smallest diagonal entry plus one of these: 0 to a few hundred
# pairs on _reduced_gram lattices.
ENUM_BOUND_STEPS = (2, 6, 10)
ENUM_RANDOM_PER_CYCLE = 240


class Enum(Workload):
    name = "enum"
    deadline_s = 60.0

    def setup(self, lk):
        c, _ = lk.catalog.build_L()
        return {"L": c.lattice}

    def cycle(self, rng, ctx):
        ops = [Op("sv", ("L", 3)), Op("sv", ("L", 4)), Op("min", ("L",))]
        for i in range(ENUM_RANDOM_PER_CYCLE):
            g = _reduced_gram(rng, ENUM_RANKS[i % len(ENUM_RANKS)])
            bound = min(g[j][j] for j in range(len(g))) + ENUM_BOUND_STEPS[i % len(ENUM_BOUND_STEPS)]
            ops.append(Op("sv", (g, bound)))
        return ops + [Op("sv", ("L", 6))]

    def _lattice(self, lk, ctx, key):
        return ctx["L"] if key == "L" else lk.lattice.make_lattice(key)

    def execute(self, lk, ctx, op):
        lat = self._lattice(lk, ctx, op.data[0])
        if op.kind == "min":
            return lk.shortvec.minimum(lat)
        return lk.shortvec.short_vectors(lat, op.data[1])

    def check(self, ctx, op, result):
        key = op.data[0]
        if op.kind == "min":
            return None if result == L_MINIMUM else "minimum %s, expected %d" % (
                result, L_MINIMUM)
        gram = ctx["L"].gram if key == "L" else key
        expected = L_PAIRS[op.data[1]] if key == "L" else None
        return oracles.check_short_vectors(gram, op.data[1], result, expected)

    def corruptions(self, ctx, op, result):
        if op.kind == "min":
            yield "min-value", lambda: result - 2
            return
        rep = result
        gram = ctx["L"].gram if op.data[0] == "L" else op.data[0]
        n = len(gram)
        far = (2,) + (0,) * (n - 1)   # norm 4 |G_00| > bound unless the bound is large
        if 4 * abs(gram[0][0]) > rep.bound:
            yield "sv-over-bound", lambda: dataclasses.replace(
                rep, vectors=rep.vectors + ((far, 4 * abs(gram[0][0])),))
        if rep.vectors:
            v, norm = rep.vectors[-1]
            yield "sv-sign", lambda: dataclasses.replace(
                rep, vectors=rep.vectors[:-1] + ((tuple(-x for x in v), norm),))
            yield "sv-duplicate", lambda: dataclasses.replace(
                rep, vectors=rep.vectors + (rep.vectors[0],))

    def extras(self, records):
        sv = [(len(res.vectors), dt) for op, res, status, dt in records
              if op.kind == "sv" and status is None]
        secs = sum(dt for _, dt in sv)
        return [("vectors_per_s", sum(v for v, _ in sv) / secs if secs else 0.0, "1/s",
                 len(sv))]


MAP_SIZES = (4, 5, 6, 7, 8)
# Rounds of the k3 group and one map of each size per cycle: about 12 s
# of scaled time (speed.py), so a 10-second run is one cycle.
FAMILIES_ROUNDS = 3


class Families(Workload):
    name = "families"
    deadline_s = 20.0

    def cycle(self, rng, ctx):
        ops = []
        for _ in range(FAMILIES_ROUNDS):
            ops.append(Op("k3", ("repro", "--filter", "k3", "--json")))
            ops += [Op("map", _family_map(rng, n)) for n in MAP_SIZES]
        return ops

    def execute(self, lk, ctx, op):
        if op.kind == "k3":
            return _run_cli(lk, op.data)
        a, perm = op.data
        sigma = lk.k3fam.diagonal_map([lk.cyclo.Cyc5.omega(x) for x in a])
        iota = lk.k3fam.permutation_map(list(perm))
        return lk.k3fam.commutant_dim(sigma), lk.k3fam.dihedral_in_pgl(sigma, iota)

    def check(self, ctx, op, result):
        if op.kind == "k3":
            return oracles.check_claims(*result, K3_CLAIMS)
        a, perm = op.data
        dim, dih = result
        if dim != oracles.commutant_dim_expected(a):
            return "commutant_dim %s, expected %d" % (dim, oracles.commutant_dim_expected(a))
        if dih != oracles.dihedral_expected(a, perm):
            return "dihedral_in_pgl %s disagrees with the weight rule" % dih
        return None

    def corruptions(self, ctx, op, result):
        if op.kind == "k3":
            yield from _claims_corruptions(result)
            return
        dim, dih = result
        yield "commutant-dim", lambda: (dim + 1, dih)
        yield "dihedral", lambda: (dim, not dih)


WORKLOADS = {w.name: w for w in (Repro(), LatticeOps(), Enum(), Families())}
