#!/usr/bin/env python3
"""Build the repo benchmark from source and run one measurement.

Run from the repository root:

    python3 ygmbench/run.py --workload a2a_small --seed 1 --seconds 20 --trace 0
    python3 ygmbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root; the benchmark's progress lines start with '#', and the last
line of standard output is the JSON result. Exits non-zero, without a result
line, when the build or the run fails.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    """Configure once, then build incrementally; tool output goes to stderr."""
    cdir = os.path.join(bdir, "cmake")
    steps = []
    if not os.path.exists(os.path.join(cdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", cdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", cdir, "-j", "4"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    return os.path.join(cdir, "ygmbench")


def git_describe():
    # The benchmark may run in an export that is not a git checkout; the
    # ceiling keeps git from describing an enclosing repository instead.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
            capture_output=True, text=True, env=env, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "none"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and None in (a.workload, a.seed, a.seconds, a.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    bdir = build_root()
    exe = build(bdir)
    if exe is None or not os.path.exists(exe):
        print("ygmbench: build failed", file=sys.stderr)
        return 1

    # Rendezvous directories of the forked backends go under the build
    # directory, by a relative path so socket names stay short. No YGM_*
    # variable reaches the program: the library reads some of them (the
    # stall watchdog, postmortem and statusz paths) outside run_options.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("YGM_")}
    env["TMPDIR"] = os.path.relpath(tmp, ROOT)

    cmd = [exe, "--git-describe", git_describe()]
    if a.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace)]
        if a.trace == 1:
            spans = os.path.join(bdir, "spans")
            os.makedirs(spans, exist_ok=True)
            cmd += ["--spans-out",
                    os.path.join(spans, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    # Own process group, so a hung run is stopped with every rank it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("ygmbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
