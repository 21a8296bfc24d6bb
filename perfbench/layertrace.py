"""Per-layer tracing from the benchmark's side of the API.

The tracer replaces each public latkit function listed in TRACED by a
timing wrapper, at every place the function is bound: modules import
each other's functions by name (``from .ratmat import snf, inverse``), so
patching ``ratmat.snf`` alone would miss the calls made from ``lattice``
or ``catalog``.  Methods of Cyc5 are patched on the class.

Spans are aggregated per function (calls, self time, total time) rather
than stored one by one: ``Cyc5.mul`` alone runs millions of times in a
``families`` run.  A function's self time is its span's duration minus
the time of the traced spans directly beneath it.
"""

import functools
import time
from fractions import Fraction

TRACED = (
    ("ratmat", ("snf", "inverse", "det", "rref", "hnf_int", "int_kernel",
                "signature")),
    ("lattice", ("make_lattice", "overlattice", "discriminant_group",
                 "saturation", "orthogonal_complement", "sublattice",
                 "fqf_isomorphic")),
    ("shortvec", ("short_vectors", "minimum")),
    ("isometry", ("make_isometry", "order", "group_closure",
                  "invariant_sublattice", "disc_action_trivial")),
    ("cyclo", ("Cyc5.mul", "Cyc5.inv")),
    ("k3fam", ("commutant_dim", "dihedral_in_pgl", "is_invariant_family",
               "fixed_locus", "restrict_and_count", "sylvester_resultant",
               "poly_apply_map")),
    ("catalog", ("build_L", "build_MD5", "build_nikulin")),
    ("cli", ("main",)),
)

# Inclusive time is reported for the constructions, so that a claim's time
# can be split into building and checking.
TOTAL_TIME = ("catalog.build_L", "catalog.build_MD5", "catalog.build_nikulin")

CLAIM_GROUPS = ("L", "g", "dih10", "e8", "nikulin", "md5", "k3")

# Method name on the class for each traced Cyc5 entry.
_METHODS = {"Cyc5.mul": ("__mul__", "__rmul__"), "Cyc5.inv": ("inv",)}


def _bits(x):
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _max_bits(matrices):
    return max((_bits(x) for m in matrices for row in m for x in row), default=0)


class Stat:
    __slots__ = ("calls", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0


class TraceError(RuntimeError):
    """The tracer's own self-check failed."""


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = []      # one frame per open span: [child seconds, child counts]
        self._undo = []       # (namespace, attribute, original)
        self._originals = {}  # traced name -> original function
        self.reset()

    def reset(self):
        for st in self.stats.values():
            st.calls, st.self_s, st.total_s = 0, 0.0, 0.0
        self.max_bits = {"ratmat.snf": 0, "ratmat.inverse": 0}
        self.disc_spans = []   # (snf spans, inverse spans) beneath each discriminant_group
        self.disc_grams = set()
        self.vectors = 0       # pairs returned by short_vectors, all calls
        self.min_useful = 0    # pairs at the minimum, summed over minimum() calls
        self.min_listed = 0    # pairs listed by short_vectors inside minimum()
        self.closure_elements = 0
        self._last_report = None

    # -- hooks: counters taken where the work happens ----------------------

    def _on_snf(self, args, result, frame, before):
        self.max_bits["ratmat.snf"] = max(self.max_bits["ratmat.snf"], _max_bits(result))

    def _on_inverse(self, args, result, frame, before):
        self.max_bits["ratmat.inverse"] = max(self.max_bits["ratmat.inverse"],
                                              _max_bits((result,)))

    def _on_disc(self, args, result, frame, before):
        counts = frame[1]
        self.disc_spans.append((counts.get("ratmat.snf", 0),
                                counts.get("ratmat.inverse", 0)))
        self.disc_grams.add(args[0].gram)

    def _on_short_vectors(self, args, result, frame, before):
        self.vectors += len(result.vectors)
        self._last_report = result

    def _on_minimum(self, args, result, frame, before):
        self.min_listed += self.vectors - before
        self.min_useful += sum(1 for _, norm in self._last_report.vectors
                               if norm == result)

    def _on_closure(self, args, result, frame, before):
        self.closure_elements += result.order

    _HOOKS = {
        "ratmat.snf": _on_snf,
        "ratmat.inverse": _on_inverse,
        "lattice.discriminant_group": _on_disc,
        "shortvec.short_vectors": _on_short_vectors,
        "shortvec.minimum": _on_minimum,
        "isometry.group_closure": _on_closure,
    }

    def _wrap(self, name, fn):
        stat = self.stats[name] = Stat()
        hook = self._HOOKS.get(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, {}]
            stack.append(frame)
            before = tracer.vectors
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_s += dt - frame[0]
                stat.total_s += dt
                if stack:
                    parent = stack[-1]
                    parent[0] += dt
                    parent[1][name] = parent[1].get(name, 0) + 1
            if hook is not None:
                hook(tracer, args, result, frame, before)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self, modules, namespaces):
        """Wrap every TRACED function.  `modules` maps a layer name to its
        module; `namespaces` are all modules whose globals may hold a
        traced function under any name."""
        for layer, names in TRACED:
            mod = modules[layer]
            for short in names:
                name = "%s.%s" % (layer, short)
                if short in _METHODS:
                    cls = getattr(mod, short.split(".")[0])
                    attrs = _METHODS[short]
                    orig = cls.__dict__[attrs[0]]
                    wrapper = self._wrap(name, orig)
                    for attr in attrs:
                        if cls.__dict__.get(attr) is orig:
                            self._undo.append((cls, attr, orig))
                            setattr(cls, attr, wrapper)
                    self._originals[name] = orig
                    continue
                orig = getattr(mod, short)
                wrapper = self._wrap(name, orig)
                self._originals[name] = orig
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._undo.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig in reversed(self._undo):
            setattr(ns, attr, orig)
        self._undo.clear()

    def check_bindings(self, namespaces):
        """Raise TraceError if any namespace still binds an unwrapped
        original of a traced function."""
        originals = {id(f): name for name, f in self._originals.items()}
        for ns in namespaces:
            for attr, val in vars(ns).items():
                if id(val) in originals:
                    raise TraceError("%s.%s still binds the untraced %s"
                                     % (getattr(ns, "__name__", ns), attr,
                                        originals[id(val)]))

    def check_disc_spans(self):
        """Each discriminant_group call makes exactly one snf and two
        inverse calls; a different count means a binding was missed or
        double-wrapped."""
        if not self.disc_spans:
            raise TraceError("no discriminant_group span recorded")
        bad = [s for s in self.disc_spans if s != (1, 2)]
        if bad:
            raise TraceError("discriminant_group spans with (snf, inverse) children %s, "
                             "expected (1, 2)" % (bad[:3],))

    # -- report --------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer, names in TRACED:
            for short in names:
                name = "%s.%s" % (layer, short)
                st = self.stats[name]
                out[name + ".calls"] = (st.calls, "count")
                out[name + ".self_s"] = (st.self_s, "s")
                if name in TOTAL_TIME:
                    out[name + ".total_s"] = (st.total_s, "s")
        out["ratmat.snf.max_bits"] = (self.max_bits["ratmat.snf"], "bits")
        out["ratmat.inverse.max_bits"] = (self.max_bits["ratmat.inverse"], "bits")
        disc_calls = self.stats["lattice.discriminant_group"].calls
        out["lattice.discriminant_group.distinct_ratio"] = (
            len(self.disc_grams) / disc_calls if disc_calls else 0.0, "ratio")
        sv = self.stats["shortvec.short_vectors"]
        out["shortvec.short_vectors.vectors"] = (self.vectors, "count")
        out["shortvec.us_per_vector"] = (
            sv.self_s * 1e6 / self.vectors if self.vectors else 0.0, "us")
        out["shortvec.minimum.useful_ratio"] = (
            self.min_useful / self.min_listed if self.min_listed else 0.0, "ratio")
        out["isometry.group_closure.elements"] = (self.closure_elements, "count")
        return out
