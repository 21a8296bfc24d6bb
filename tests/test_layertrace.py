"""The benchmark's layer tracer (perfbench/layertrace.py) must still find
every function it wraps: this runs the self-check that
`perfbench/run.py --trace 1` makes before its replay, so renaming or
deleting a traced function fails the suite and not only a traced run."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import layertrace  # noqa: E402
import run  # noqa: E402


def test_tracer_binds_every_traced_function():
    modules = {name: importlib.import_module("latkit." + name) for name in run.LAYERS}
    namespaces = list(run.latkit_modules().values())
    tracer = layertrace.Tracer()
    tracer.install(modules, namespaces)
    try:
        tracer.check_bindings(namespaces)
        a4 = [[-4, 2, 0, 0], [2, -4, 2, 0], [0, 2, -4, 2], [0, 0, 2, -4]]
        modules["lattice"].discriminant_group(modules["lattice"].make_lattice(a4))
        tracer.check_disc_spans()
    finally:
        tracer.uninstall()
    assert tracer.stats["lattice.discriminant_group"].calls == 1


def test_tracer_counts_cyc5_products_and_inverses():
    """Cyc5.mul covers both operand orders (the tracer patches __rmul__
    only while it is the same function as __mul__), and inv is counted on
    its own; mul is read first, because inv multiplies internally."""
    modules = {name: importlib.import_module("latkit." + name) for name in run.LAYERS}
    namespaces = list(run.latkit_modules().values())
    omega = modules["cyclo"].Cyc5.omega
    tracer = layertrace.Tracer()
    tracer.install(modules, namespaces)
    try:
        omega(1) * omega(2)
        2 * omega(1)
        assert tracer.stats["cyclo.Cyc5.mul"].calls == 2
        omega(1).inv()
        assert tracer.stats["cyclo.Cyc5.inv"].calls == 1
    finally:
        tracer.uninstall()
