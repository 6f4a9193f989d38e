"""Run the benchmark on two checkouts in alternating pairs; write a BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json

DIR is the root of a kamtori checkout (each runs its own, unchanged
``perfbench/run.py`` from its root, for the ``run_seconds`` of
``BENCHMARK.json``).  Every workload gets ten pairs; pair i runs seed
i + 1 on both sides, one run at a time, the parent first in even pairs
and the change first in odd ones, so a drift of the host's speed does
not favour one side.  For every end-to-end metric the file records each
side's runs, median and interquartile range, and the pairs in which the
change was better; per run it keeps ``correct``, ``attempted`` and
``failed``.  ``src_lines`` holds each side's line count of
``src/kamtori/*.py``.  Progress goes to stderr.
"""

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

PAIRS = 10


def checkout_commit(root):
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def source_lines(root):
    """Lines in the checkout's src/kamtori/*.py."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "kamtori", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def run_once(root, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(runs, spec):
    """Per metric: both sides' runs, median, IQR and the change's wins."""
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(parent, change))
        entry = {"unit": metric["unit"], "better": metric["better"],
                 "bound": metric["bound"], "pairs_won": wins,
                 "pairs": len(runs)}
        for side, values in (("parent", parent), ("change", change)):
            q1, med, q3 = statistics.quantiles(values, n=4,
                                               method="inclusive")
            entry[side] = {"median": med, "iqr": q3 - q1, "runs": values}
        entry["change_worse_by"] = (
            (entry["change"]["median"] / entry["parent"]["median"] - 1)
            * (1 if lower else -1))
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    import numpy
    report = {
        "command": (f"perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0"),
        "parent_commit": checkout_commit(args.parent),
        "change_commit": checkout_commit(args.change),
        "src_lines": {"parent": source_lines(args.parent),
                      "change": source_lines(args.change)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "pairs": PAIRS,
        "order": "pair i runs seed i + 1; parent first in even pairs",
        "workloads": {},
    }
    sides = {"parent": args.parent, "change": args.change}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            pair = {"seed": i + 1, "first": order[0]}
            for side in order:
                result = run_once(sides[side], workload, i + 1, seconds)
                pair[side] = result
                print(f"{workload} pair {i + 1} {side}: "
                      f"round_s {result['metrics']['round_s']['value']:.3f} "
                      f"correct {result['correct']}", file=sys.stderr)
            runs.append(pair)
        report["workloads"][workload] = {
            "metrics": summarize(runs, spec),
            "runs": [{"seed": r["seed"], "first": r["first"],
                      **{side: {k: r[side][k] for k in
                                ("correct", "attempted", "failed")}
                         for side in sides}} for r in runs],
        }
        with open(args.out, "w") as fh:    # keep what is done so far
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
