"""The benchmark's lattice-ops orth and sat operations, run through latkit
and checked with the benchmark's own oracles (perfbench/oracles.py, which
use no latkit code), so that a kernel change that breaks one of them
fails the suite and not only a benchmark run."""

import os
import random
import sys
import types

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import workloads  # noqa: E402
from latkit import lattice  # noqa: E402


def test_one_seeded_cycle_of_kernel_ops_passes_the_oracles():
    # the ops of the first cycle of seed 1, generated as perfbench/run.py
    # generates them; each corruption of an output must be rejected too
    wl = workloads.WORKLOADS["lattice-ops"]
    ops = [op for op in wl.cycle(random.Random("lattice-ops/1"), {})
           if op.kind in ("orth", "sat")]
    assert len(ops) == 2 * len(workloads.KERNEL_RANKS) * workloads.LATTICE_OPS_ROUNDS
    lk = types.SimpleNamespace(lattice=lattice)
    for op in ops:
        result = wl.execute(lk, {}, op)
        assert wl.check({}, op, result) is None, op
        for label, corrupt in wl.corruptions({}, op, result):
            assert wl.check({}, op, corrupt()) is not None, label
