"""latkit benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latkit checkout; latkit is imported from ./src.
The run sets latkit up SETUP_REPS times (import plus input generation from
the seed) and reports the median as setup_s.  It then sends the
workload's operations one after another, each after the previous one has
finished, in as many whole cycles of the workload's mix as come nearest to
S seconds of operation time, and stops each operation that overruns the
workload's deadline.  After the timed phase every output is
checked by an oracle that does not use latkit's code, and the oracles and
the program's own fault injection are checked to reject bad outputs.

With --trace 1 the same operations are run again with every public
latkit function wrapped (layertrace.py), and the per-layer metrics are
reported instead of the end-to-end ones, with trace.overhead_s, the
traced minus the untraced wall time of those operations.

A table goes to standard output first; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Exit code 0 when every
output is correct, 1 when a check failed, 2 when latkit cannot be found
or the arguments are wrong.
"""

import argparse
import importlib
import itertools
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import traceback
import types

import layertrace
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 5
LAYERS = ("ratmat", "lattice", "shortvec", "isometry", "cyclo", "k3fam",
          "catalog", "cli")

clock = time.perf_counter


class Overrun(BaseException):
    """An operation ran past its deadline.  A BaseException, so that the
    program's own `except Exception` handlers cannot swallow it."""


class Deadline:
    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        # The handler may run late, after the operation returned; it only
        # raises while the operation is still running.
        if self.armed:
            self.armed = False
            raise Overrun()

    def run(self, fn, seconds):
        """Run fn() with a deadline: (result, status, (start, end)).
        status is None on success, "deadline" on overrun, else the error."""
        result, status = None, None
        t0 = clock()
        try:
            self.armed = True
            signal.setitimer(signal.ITIMER_REAL, seconds)
            try:
                result = fn()
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except Overrun:
            status = "deadline"
        except Exception as exc:
            status = "error: " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        return result, status, (t0, clock())


def latkit_modules():
    return {name: m for name, m in sys.modules.items()
            if name == "latkit" or name.startswith("latkit.")}


def load_latkit():
    """Import latkit afresh from ./src and return its modules by layer."""
    for name in latkit_modules():
        del sys.modules[name]
    mods = {name: importlib.import_module("latkit." + name) for name in LAYERS}
    pkg = sys.modules["latkit"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != os.path.join(SRC, "latkit"):
        raise ImportError("latkit imported from %s, not from %s" % (pkg.__file__, SRC))
    return types.SimpleNamespace(**mods)


def setup(wl, seed):
    """Import latkit and generate the first cycle of inputs, SETUP_REPS
    times; returns the state of the last repetition and every span."""
    spans = []
    for _ in range(SETUP_REPS):
        t0 = clock()
        lk = load_latkit()
        ctx = wl.setup(lk)
        rng = random.Random("%s/%d" % (wl.name, seed))
        first = wl.cycle(rng, ctx)
        spans.append((t0, clock()))
    cycles = itertools.chain([first], iter(lambda: wl.cycle(rng, ctx), None))
    return lk, ctx, cycles, spans


def run_ops(wl, lk, ctx, deadline, ops):
    """Records (op, result, status, (start, end)), one per op."""
    return [(op,) + deadline.run(lambda op=op: wl.execute(lk, ctx, op), wl.deadline_s)
            for op in ops]


def scaled(probe, records):
    """Records with each span replaced by its scaled duration."""
    return [(op, result, status, probe.scale(*span))
            for op, result, status, span in records]


def check_records(wl, ctx, records):
    """Apply the oracle to each successful output; returns the records
    with wrong answers turned into failures."""
    out = []
    for op, result, status, dt in records:
        if status is None:
            reason = wl.check(ctx, op, result)
            if reason is not None:
                status = "wrong: " + reason
        out.append((op, result, status, dt))
    return out


def negative_controls(wl, lk, ctx, deadline, records):
    """Problems with the benchmark's own checks: each corruption of a
    correct output must be rejected by its oracle, and each control
    operation must count as a failed op."""
    problems = []
    tested = set()
    for op, result, status, _ in records:
        if status is not None:
            continue
        for label, corrupt in wl.corruptions(ctx, op, result):
            if label in tested:
                continue
            tested.add(label)
            if wl.check(ctx, op, corrupt()) is None:
                problems.append("oracle accepted corrupted output %s" % label)
    for op, result, status, _ in check_records(
            wl, ctx, run_ops(wl, lk, ctx, deadline, wl.controls())):
        if status is None:
            problems.append("control %s did not fail" % " ".join(op.data))
    return problems


def claim_seconds(records):
    """Seconds per claim group, from the `millis` latkit reports per claim."""
    out = dict.fromkeys(layertrace.CLAIM_GROUPS, 0.0)
    for op, result, status, _ in records:
        if op.kind not in ("repro", "k3") or status is not None:
            continue
        for claim in json.loads(result[1])["results"]:
            group = claim["id"].split("/")[0]
            if group in out:
                out[group] += claim["millis"] / 1e3
    return out


def traced_replay(wl, lk, ctx, deadline, ops):
    """Run ops again with every traced function wrapped; returns the
    tracer and the records."""
    tracer = layertrace.Tracer()
    modules = dict(vars(lk))
    namespaces = list(latkit_modules().values())
    tracer.install(modules, namespaces)
    try:
        tracer.check_bindings(namespaces)
        # one discriminant form on A4(-2) exercises the span bookkeeping
        a4 = [[-4, 2, 0, 0], [2, -4, 2, 0], [0, 2, -4, 2], [0, 0, 2, -4]]
        lk.lattice.discriminant_group(lk.lattice.make_lattice(a4))
        tracer.check_disc_spans()
        tracer.reset()
        records = run_ops(wl, lk, ctx, deadline, ops)
    finally:
        tracer.uninstall()
    if tracer.disc_spans:
        tracer.check_disc_spans()
    return tracer, records


def failures(records):
    return [(op, status) for op, _, status, _ in records if status is not None]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "latkit", "__init__.py")):
        print("error: no latkit sources under %s; run from a latkit checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = workloads.WORKLOADS[args.workload]

    deadline = Deadline()
    with speed.SpeedProbe() as probe:
        lk, ctx, cycles, setup_spans = setup(wl, args.seed)
        # Whole cycles, as many as come nearest to --seconds (at least
        # one), so that every run holds the same mix.  Only operations are
        # timed: generating the next cycle is the client's work.
        records = []
        for n_cycles, cycle in enumerate(cycles, 1):
            records += run_ops(wl, lk, ctx, deadline, cycle)
            wall = sum(probe.scale(*span) for _, _, _, span in records)
            if wall + wall / n_cycles / 2 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            tracer, traced = traced_replay(
                wl, lk, ctx, deadline, [op for op, _, _, _ in records])
    setup_s = statistics.median(probe.scale(*span) for span in setup_spans)
    raw_wall = sum(t1 - t0 for _, _, _, (t0, t1) in records)
    records = check_records(wl, ctx, scaled(probe, records))
    wall = sum(dt for _, _, _, dt in records)
    failed = failures(records)
    problems = ["%s %s" % (op.kind, status) for op, status in failed
                if status != "deadline"]
    problems += negative_controls(wl, lk, ctx, deadline, records)

    times_ms = [dt * 1e3 for _, _, _, dt in records]
    print("workload %s  seed %d  seconds %g  trace %d"
          % (wl.name, args.seed, args.seconds, args.trace))
    rows = [
        ("setup_s", setup_s, "s", SETUP_REPS),
        ("wall_s", wall, "s", 1),
        ("op_ms_p50", workloads.percentile(times_ms, 0.5), "ms", len(records)),
        ("op_ms_p90", workloads.percentile(times_ms, 0.9), "ms", len(records)),
        ("ops_per_s", len(records) / wall, "1/s", len(records)),
        ("ops_ok_frac", 1 - len(failed) / len(records), "frac", len(records)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
    ]
    extras = [("ops_failed_frac", len(failed) / len(records), "frac", len(records)),
              ("raw_wall_s", raw_wall, "s", 1),
              ("probe_ms", 1e3 * statistics.fmean(probe.lengths), "ms", len(probe.lengths))]
    extras += wl.extras(records)

    print("%-20s %14s  %-5s  %s" % ("metric", "value", "unit", "samples"))
    for name, value, unit, n in rows + extras:
        print("%-20s %14.6g  %-5s  n=%d" % (name, value, unit, n))
    metrics = {name: (value, unit) for name, value, unit, _ in rows}

    if args.trace:
        traced = check_records(wl, ctx, scaled(probe, traced))
        traced_wall = sum(dt for _, _, _, dt in traced)
        if [op for op, _ in failures(traced)] != [op for op, _ in failed]:
            problems.append("the traced replay failed other ops: %s"
                            % failures(traced)[:3])
        metrics = tracer.metrics()
        for group, secs in claim_seconds(traced).items():
            metrics["catalog.claims.%s.s" % group] = (secs, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        print("%-44s %14s  %s" % ("per-layer metric", "value", "unit"))
        for name, (value, unit) in metrics.items():
            print("%-44s %14.6g  %s" % (name, value, unit))

    for op, status in failed[:5]:
        print("failed %s op: %s" % (op.kind, status))
    for p in problems:
        print("check: %s" % p)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
