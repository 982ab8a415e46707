#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through run.py).  Asserts that
  1. every workload in BENCHMARK.json, untraced, emits exactly the
     end_to_end metrics with their units, and traced, exactly the per_layer
     metrics with their units, with correct=true and exit status 0;
  2. a deliberately corrupted output (--corrupt-output) makes failed > 0,
     correct=false and the exit status non-zero, on every workload;
  3. in a directory holding only BENCHMARK.json and the benchmark's files,
     the command exits non-zero without printing a result.
Exit status 0 when every assertion holds.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    done = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
                          cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, result, done


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    def check(condition, message):
        if not condition:
            problems.append(message)
            print("FAIL:", message, flush=True)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, result, done = run(["--workload", workload, "--seed", "7",
                                      "--seconds", "1", "--trace", trace,
                                      "--tiny"])
            label = f"{workload} trace={trace}"
            check(code == 0, f"{label}: exit {code}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
            if result is None:
                check(False, f"{label}: no result line")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{label}: not correct")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = sorted(set(expected[trace]) - set(got))
            extra = sorted(set(got) - set(expected[trace]))
            check(not missing, f"{label}: missing metrics {missing}")
            check(not extra, f"{label}: metrics not in BENCHMARK.json {extra}")
            wrong = sorted(n for n in got if n in expected[trace] and
                           got[n] != expected[trace][n])
            check(not wrong, f"{label}: wrong units for {wrong}")
            print(f"ok: {label}", flush=True)

        code, result, _ = run(["--workload", workload, "--seed", "7",
                               "--seconds", "1", "--trace", "0", "--tiny",
                               "--corrupt-output"])
        label = f"{workload} corrupted"
        check(code != 0, f"{label}: exit status 0")
        check(result is not None and result["failed"] > 0 and
              result["correct"] is False, f"{label}: failure not counted")
        print(f"ok: {label}", flush=True)

    # The benchmark alone, without the program's sources, must refuse.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    code, result, _ = run(["--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env)
    check(code != 0 and result is None, "bare directory: did not refuse")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: bare directory refused", flush=True)

    if problems:
        print(f"selftest: {len(problems)} problem(s)")
        return 1
    print("selftest: all assertions hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
