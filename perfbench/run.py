#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library from src/ plus the perfbench binary) into
$CARGO_TARGET_DIR, or .bench_build, at the repository root. Then it runs
the workload once for --seconds and times set-up in fresh processes before
and after that run.
Before it reports a speed it checks the simulated outputs:
  - the golden job at the default seed must equal expected.json on every
    run;
  - the full outputs of a recorded seed must equal expected.json;
  - the binary's own checks must hold (bit-exact parity with the coroutine
    oracle, identical outputs on every rep, and the model invariants).
A run that fails a check prints "correct": false with no metrics and exits 1.

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics (README.md defines both). Detail lines go to stdout before the
final line, and build logs go to stderr.

--record writes this run's outputs into expected.json. Use it only for the
recorded seeds, and only for a change that is meant to alter simulated
outputs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
# The default seed and a held-out seed, both with full recorded outputs.
RECORDED_SEEDS = ("1", "2")
# Set-up-only processes before and again after the main run, so set-up is
# sampled at both ends of the run, not only in the host's mood of one moment.
SETUP_LAUNCHES = 5


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def launch(binary, args):
    """Runs the binary; returns (report, seconds from spawn to ready).

    The seconds are in probe units, like every host time the binary
    reports (perfbench.cpp, ProbeHost); the raw seconds go into the
    report as "setup_raw_s".
    """
    start = time.monotonic()  # CLOCK_MONOTONIC, as the binary's steady_clock
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                          check=True)
    report = json.loads(proc.stdout)
    report["setup_raw_s"] = report["ready_s"] - start
    return report, report["setup_raw_s"] * report["probe_scale"]


def verify(report, expected, seed):
    failures = [f"check {c['name']} failed ({c['detail']})"
                for c in report["checks"] if not c["ok"]]
    recorded = expected.get(report["workload"])
    if recorded is None:
        return failures + ["no recorded outputs for this workload"]
    if report["golden"] != recorded["golden"]:
        failures.append("golden outputs differ from expected.json")
    outputs = recorded["seeds"].get(str(seed))
    if outputs is not None and report["outputs"] != outputs:
        diff = sorted(k for k in set(outputs) | set(report["outputs"])
                      if outputs.get(k) != report["outputs"].get(k))
        failures.append(f"seed {seed} outputs differ: {', '.join(diff)}")
    return failures


def record(report, seed):
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    entry = expected.setdefault(report["workload"], {"golden": {},
                                                     "seeds": {}})
    entry["golden"] = report["golden"]
    entry["seeds"][str(seed)] = report["outputs"]
    with open(EXPECTED, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def git_rev():
    # Only the checkout's own repository: git would otherwise search the
    # directories above it.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def declared_metrics():
    """Metric name -> unit for each trace mode, as BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-delay", type=float, default=0.0,
                        help="stretch each timed call by this share "
                             "(the comparison self-check)")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"perfbench: build failed: {err}")
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed)]

    def setup_launches():
        return [launch(binary, common + ["--setup-only"])
                for _ in range(SETUP_LAUNCHES)]

    launches = setup_launches()
    report, ready = launch(binary, common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inject-delay", str(args.inject_delay)])
    launches += [(report, ready)] + setup_launches()
    setup = [seconds for _, seconds in launches]

    if args.record:
        if str(args.seed) not in RECORDED_SEEDS:
            log(f"perfbench: --record takes only seeds {RECORDED_SEEDS}")
            return 1
        record(report, args.seed)
    expected = {}
    if os.path.exists(EXPECTED):
        with open(EXPECTED) as f:
            expected = json.load(f)
    failures = verify(report, expected, args.seed)

    trials = report["reps"] * report["trials_per_rep"]
    detail = {k: report[k] for k in ("workload", "seed", "crmc", "host",
                                     "reps", "trials_per_rep", "rep_wall_s",
                                     "raw_wall_s", "probe_scale",
                                     "outputs")}
    detail["host"]["git_rev"] = git_rev()
    detail["setup_samples_s"] = setup
    detail["setup_raw_samples_s"] = [r["setup_raw_s"] for r, _ in launches]
    detail["failures"] = failures
    print(json.dumps(detail))
    if failures:
        for failure in failures:
            log("perfbench: " + failure)
        print(json.dumps({"correct": False, "attempted": trials,
                          "failed": trials, "metrics": {}}))
        return 1

    end_to_end, per_layer = declared_metrics()
    if args.trace:
        values, units = report["layers"], per_layer
    else:
        values = dict(report["e2e"], setup_s=statistics.median(setup))
        units = end_to_end
    if set(values) != set(units):
        log("perfbench: metrics differ from BENCHMARK.json: "
            f"{sorted(set(values) ^ set(units))}")
        return 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    print(json.dumps({"correct": True, "attempted": trials, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
