"""Run one kamtori benchmark workload; print its figures as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a kamtori checkout: the library is imported from
its ``src/``.  A run sets up (imports kamtori and builds the seeded
inputs) 21 times and reports the median as setup_s, then repeats
whole rounds of the workload's operations until --seconds have passed
and at least three rounds are done,
checking every output against the oracles in ``oracles.py``.  With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced rounds and prints the
per-layer metrics, writing the last traced round's spans under
``.perfbench-out/``.  Problems found by the checks go to stderr.
Set-up and operation times are wall times rescaled to the reference
machine's speed (``Clock``); the traced run's span times are not.
"""

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
MODULES = ("errors", "jets", "arithmetic", "poisson", "birkhoff",
           "kamengine", "torusverify", "cli")
SETUP_REPEATS = 21
MIN_ROUNDS = 3          # so that the median over rounds can drop a slow one
OP_KINDS = ("fiber", "birkhoff", "sigma", "density", "strips")


def import_kamtori():
    """Import the kamtori modules afresh (drops any earlier import)."""
    for name in [m for m in sys.modules if m.split(".")[0] == "kamtori"]:
        del sys.modules[name]
    return types.SimpleNamespace(**{
        m: importlib.import_module("kamtori." + m) for m in MODULES})


# reference_loop() on this benchmark's reference machine (2 vCPUs at
# 2.1 GHz, Python 3.11.7), with nothing else running on it
REFERENCE_S = 0.0265
SETTLE_S = 0.1


def reference_loop():
    """Wall time of a fixed pure-Python loop that never calls kamtori."""
    t0 = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i % 7
    return time.perf_counter() - t0


def calibrate():
    """The reference loop's time, measured apart from the last call.

    The sleep lets whatever that call left running (worker threads still
    spinning, say) wind down, and the first loop after it is discarded,
    so the measured loop sees the machine and not the call before it.
    """
    time.sleep(SETTLE_S)
    reference_loop()
    return reference_loop()


class Clock:
    """Wall times, and the machine's speed while they were taken.

    On a shared host the machine's speed drifts by tens of percent over
    minutes, as other tenants load the sibling hardware threads.  The
    clock runs calibrate() after every timed call, so the reference loop
    is sampled all through a phase of the run but never right after a
    call, and scale() turns a wall time into the reference machine's
    time: REFERENCE_S over the median loop time of the phase.  A drift
    slower than a run then cancels.  A single loop is too noisy to
    rescale one call by (its spread between neighbours is about 10 %),
    so the scale is the phase's, not the call's.
    """

    def __init__(self):
        self.loops = [calibrate()]

    def time(self, call):
        """(result, error, wall seconds) of call()."""
        t0 = time.perf_counter()
        try:
            result, error = call(), None
        except Exception as exc:    # the caller counts and reports it
            result, error = None, exc
        wall = time.perf_counter() - t0
        self.loops.append(calibrate())
        return result, error, wall

    def scale(self):
        return REFERENCE_S / statistics.median(self.loops)


class Round:
    """Wall times, failures and problems of one pass over the operations."""

    def __init__(self, ops, clock, tracer=None):
        self.times, self.failed, self.problems = [], 0, []
        results = []
        if tracer is not None:
            tracer.install()
        try:
            for op in ops:
                result, error, wall = clock.time(op.call)
                self.times.append(wall)
                results.append((op, result, error))
        finally:
            if tracer is not None:
                tracer.uninstall()
        for op, result, error in results:
            if error is not None:
                self.failed += 1
                if not (op.expected_error is not None
                        and isinstance(error, op.expected_error)):
                    self.problems.append(
                        f"{op.name}: {type(error).__name__}: {error}")
                continue
            self.problems += [f"{op.name}: {p}" for p in op.check(result)]
            if tracer is not None and isinstance(result, str):
                tracer.counts["cli.artifact_bytes"] += len(result.encode())


def median_of(values):
    return statistics.median(list(values))


def op_medians(rounds):
    return [median_of(r.times[i] for r in rounds)
            for i in range(len(rounds[0].times))]


def round_seconds(rounds):
    """A round's time from each operation's median over the rounds, so an
    outlier in one operation does not carry the rest of its round."""
    return sum(op_medians(rounds))


def end_to_end(rounds, clock, setup_times, setup_clock):
    """Each phase's wall times are rescaled by the loops of that phase."""
    return {
        "setup_s": median_of(setup_times) * setup_clock.scale(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "round_s": round_seconds(rounds) * clock.scale(),
    }


def per_layer(rounds, traced, ops, probe_times, clock, problems):
    metrics = {}
    layer = [tracer.layer_metrics() for _, tracer in traced]
    for name in layer[0]:
        values = [m[name] for m in layer]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                problems.append(f"count {name} differs between rounds: "
                                f"{values}")
            metrics[name] = values[0]
        else:
            metrics[name] = median_of(values)

    scale = clock.scale()
    per_op = [t * scale for t in op_medians(rounds)]

    def kind_seconds(kind):
        return sum((t for t, op in zip(per_op, ops) if op.kind == kind), 0.0)

    for kind in OP_KINDS:
        metrics[f"ops.{kind}_s"] = kind_seconds(kind)
    work = sum(op.work for op in ops)
    metrics["ops.orbit_steps_per_s"] = (
        work / kind_seconds("scan") if work else 0.0)
    metrics["kamengine.replay_s"] = (
        kind_seconds("fiber") - median_of(probe_times) * scale
        if probe_times else 0.0)
    wall = round_seconds(rounds)
    untraced = wall * scale
    traced_s = round_seconds([r for r, _ in traced]) * scale
    metrics["trace.untraced_round_wall_s"] = wall
    metrics["trace.untraced_round_s"] = untraced
    metrics["trace.round_s"] = traced_s
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced - 1.0)
    metrics["trace.spans"] = len(traced[0][1].spans)
    metrics["trace.reference_loop_s"] = median_of(clock.loops)
    return metrics


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kamtori", "__init__.py")):
        print(f"perfbench: no kamtori sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  third-party import, kept out of setup_s

    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    def set_up():
        km = import_kamtori()
        return km, workload.build(km)

    setup_times, setup_clock = [], Clock()
    for _ in range(SETUP_REPEATS):
        made, error, wall = setup_clock.time(set_up)
        if error is not None:
            raise error
        km, inputs = made
        setup_times.append(wall)
    if not km.jets.__file__.startswith(SRC + os.sep):
        print(f"perfbench: imported kamtori from {km.jets.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    ops = workload.operations(km, inputs)
    probe = (workload.probes(km, inputs)
             if args.trace and hasattr(workload, "probes") else None)

    clock = Clock()
    rounds, traced, probe_times, probe_failed = [], [], [], 0
    problems = []
    start = time.perf_counter()
    while True:
        rounds.append(Round(ops, clock))
        if args.trace:
            if probe is not None:
                _, error, wall = clock.time(probe)
                if error is not None:
                    probe_failed += 1
                    problems.append(f"replay probe: {error!r}")
                probe_times.append(wall)
            tracer = Tracer()
            traced.append((Round(ops, clock, tracer), tracer))
        if (len(rounds) >= MIN_ROUNDS
                and time.perf_counter() - start >= args.seconds):
            break

    all_rounds = rounds + [r for r, _ in traced]
    for r in all_rounds:
        problems += r.problems
    if args.trace:
        metrics = per_layer(rounds, traced, ops, probe_times, clock,
                            problems)
        names = spec["per_layer"]
        os.makedirs(OUT, exist_ok=True)
        traced[-1][1].write(os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.tsv"))
    else:
        metrics = end_to_end(rounds, clock, setup_times, setup_clock)
        names = spec["end_to_end"]
    for p in dict.fromkeys(problems):
        print(f"perfbench: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(all_rounds) + len(probe_times),
        "failed": sum(r.failed for r in all_rounds) + probe_failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
