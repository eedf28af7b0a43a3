#!/usr/bin/env python3
"""Compares two sets of benchmark runs against BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl
    python3 perfbench/compare.py --self-check [--workload W] [--runs N]
                                 [--seconds S]

Each line of a .jsonl file is the last stdout line of one run.py run. An
end-to-end metric regresses when NEW's median is worse than BASE's median
by more than the metric's bound. Exit status 1 means a regression.

--self-check tests whether the comparison catches a slowdown without
touching program code. It makes N interleaved runs in each of three arms:
a baseline, a no-op rerun, and a rerun with a delay injected inside the
binary's timed region (run.py --inject-delay, 20% by default). It passes
only if the no-op arm shows no regression and the delayed arm is flagged
on wall_s and cpu_s.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Host times that a delay of share d in the timed region raises by d. The
# throughput metrics fall by only 1 - 1/(1 + d) and are reported, not
# required. setup_s and the simulated metrics are outside the timed region.
DELAYED = ("wall_s", "cpu_s")


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def regressions(base, new):
    """{metric: worsening share} for metrics past their bound."""
    flagged = {}
    for name, spec in bounds().items():
        b = statistics.median(r["metrics"][name]["value"] for r in base)
        n = statistics.median(r["metrics"][name]["value"] for r in new)
        if b == 0:
            continue
        worse = (n - b) / b if spec["better"] == "lower" else (b - n) / b
        if worse > spec["bound"]:
            flagged[name] = round(worse, 4)
    return flagged


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def run(workload, seed, seconds, delay):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0", "--inject-delay", str(delay)],
        stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_check(workload, runs, seconds, delay_share):
    arms = {"base": [], "noop": [], "delay": []}
    for seed in range(1, runs + 1):
        arms["base"].append(run(workload, seed, seconds, 0.0))
        arms["noop"].append(run(workload, seed, seconds, 0.0))
        arms["delay"].append(run(workload, seed, seconds, delay_share))
    noop = regressions(arms["base"], arms["noop"])
    delay = regressions(arms["base"], arms["delay"])
    missed = [m for m in DELAYED if m not in delay]
    print(json.dumps({"workload": workload, "runs_per_arm": runs,
                      "delay_share": delay_share, "noop_flagged": noop, "delay_flagged": delay,
                      "delay_missed": missed}))
    return 0 if not noop and not missed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--workload", default="general_large")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=5)
    parser.add_argument("--delay", type=float, default=0.2)
    args = parser.parse_args()
    if args.self_check:
        return self_check(args.workload, args.runs, args.seconds, args.delay)
    if not args.base or not args.new:
        parser.error("give BASE.jsonl and NEW.jsonl, or --self-check")
    flagged = regressions(load(args.base), load(args.new))
    print(json.dumps({"regressions": flagged}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
