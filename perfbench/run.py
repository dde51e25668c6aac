#!/usr/bin/env python3
"""Wall-clock engine benchmark driver.

    python3 perfbench/run.py --workload pingpong_4B --seed 1 --seconds 10 --trace 0

Builds the engine libraries (src/) and the harness in this directory into
.bench_build/ at the repository root, then runs the harness with the
arguments given here, unchanged; the harness validates them. The last line
of standard output is the result, {"correct", "attempted", "failed",
"metrics"}: --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. The exit code is 0 only for a correct run. README.md in
this directory defines the metrics.
"""

import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "nmad_perfbench")
BUILD_TIMEOUT_S = 840
# The harness caps --seconds at 120 and adds about two seconds of set-up
# and warm-up.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then rebuilds incrementally; output goes to a log."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "nmad_perfbench",
                  "--parallel", "4"])
    log_path = os.path.join(BUILD, "build.log")
    # Runs sharing one checkout share its build tree.
    with open(os.path.join(BUILD, "lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      env=env,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build step failed (%s): %s" % (code, " ".join(cmd)))


def main():
    build()
    try:
        proc = subprocess.run([BINARY] + sys.argv[1:], stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run did not finish in time")
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    if proc.returncode != 0:
        fail("the run failed (exit code %d)" % proc.returncode, code=1)


if __name__ == "__main__":
    main()
