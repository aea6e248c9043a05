#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/main.exe with dune (a no-op when up to date), scrubs the
engine's environment knobs so every run measures the default program,
runs the workload and passes its output through.  The last line of
standard output is the JSON result.  Exits non-zero, without a result,
when the checkout does not hold the program's sources or the build or
the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Knobs the engine reads from the environment at start-up.
SCRUBBED = ("CQA_KERNEL", "CQA_DOMAINS", "CQA_PLAN_CACHE_CAP")
SOURCES = ("dune-project", "lib", "perfbench/dune", "perfbench/main.ml")


def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def flambda(env):
    try:
        out = subprocess.run(["ocamlfind", "ocamlopt", "-config"], env=env,
                             capture_output=True, text=True, timeout=30).stdout
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    for line in out.splitlines():
        if line.startswith("flambda:"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        fail("not a source checkout (missing %s)" % ", ".join(missing), 2)

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    # keep every build artefact inside the checkout: no shared dune cache
    env["DUNE_CACHE"] = "disabled"
    env["PERFBENCH_FLAMBDA"] = flambda(env)

    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if build.returncode != 0:
        fail("build failed", 3)

    cmd = ["./_build/default/perfbench/main.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e, 4)
    if run.returncode != 0:
        fail("run exited with code %d" % run.returncode, 4)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        fail("run printed no result line", 5)
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
