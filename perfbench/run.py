#!/usr/bin/env python3
"""Build the pef benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and compiles
perfbench/ (the pef library, pef_sweep / pef_orchestrate / pef_serve and the
pef_perfbench program) into $CARGO_TARGET_DIR (default .bench_build); later
calls only re-check the build.  pef_perfbench's report goes to stdout and its
last line is the result JSON.  Exit status: pef_perfbench's (0 = every output
check passed), or 1 when the build fails -- for instance in a directory that
holds the benchmark but not the program's sources.

--tiny and --corrupt-output exist for perfbench/selftest.py.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; False when either step fails."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j4"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def source_hash():
    """SHA-256 over the program's sources (src/ and tools/), path + bytes."""
    digest = hashlib.sha256()
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-output", action="store_true")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    build_dir = os.path.join(build_root, "cmake")
    if not build(build_dir):
        return 1
    if not os.path.isdir(os.path.join(ROOT, "src")):
        log("no program sources next to perfbench/")
        return 1

    # Relative paths keep the daemon's Unix socket path short.
    rel = lambda path: os.path.relpath(path, ROOT)
    command = [
        os.path.join(build_dir, "pef_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--bin-dir", rel(build_dir),
        "--work-dir", rel(os.path.join(build_root, "work")),
        "--trace-dir", rel(os.path.join(build_root, "traces")),
        "--git-commit", git_commit(),
        "--source-hash", source_hash(),
    ]
    if args.tiny:
        command.append("--tiny")
    if args.corrupt_output:
        command.append("--corrupt-output")
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
