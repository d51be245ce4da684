#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune (the
first build compiles the libraries it needs from source), then replaces
this process with it, so signals reach the benchmark directly.  Exits with
a non-zero code, printing no result, when the checkout holds no buildable
project.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        sys.stderr.write("perfbench: no dune-project at %s\n" % ROOT)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = ["dune", "build", "--root", ".", "./perfbench/main.exe"]
    if shutil.which("dune") is None and shutil.which("opam") is not None:
        build = ["opam", "exec", "--"] + build
    try:
        # The build's output goes to stderr: stdout carries only the report.
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0
    except OSError:
        built = False
    if not built or not os.path.isfile(EXE):
        sys.stderr.write("perfbench: build failed\n")
        return 2
    os.chdir(ROOT)
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
