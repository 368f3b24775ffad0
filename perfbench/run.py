#!/usr/bin/env python3
"""End-to-end load benchmark of the esm_syncd server.

Run from the root of a checkout:

    python3 perfbench/run.py --workload durable-commit --seed 1 --seconds 10 --trace 0

Builds perfbench/bin/perfbench.exe with dune, then runs it.  The last
line of standard output is one JSON object with the run's metrics; the
lines before it (prefixed '#') are the human-readable report.
"""

import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "bin", "perfbench.exe")
SOURCES = ["dune-project", os.path.join("lib", "sync", "transport.ml")]


def main():
    os.chdir(ROOT)
    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a checkout of the library (missing %s)" % ", ".join(missing),
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bin/perfbench.exe"],
                           stdout=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    # its own process group, so that a timeout also stops the server child
    proc = subprocess.Popen([EXE, "run"] + sys.argv[1:], start_new_session=True)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
