#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload comfort-campaign --seed 1 --seconds 10 --trace 0

The Go build cache, module cache, temp files and the benchmark's own
stores and checkpoints all live under .bench_build/ in the checkout, so
nothing is read or written outside it. The benchmark binary prints its
result as the last line of standard output; this script passes its exit
code through, and exits non-zero without a result if the build fails.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
PKG = os.path.join(ROOT, "perfbench")


def main():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "mod"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "GOENV": "off",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
    })
    for key in ("GOCACHE", "GOPATH", "TMPDIR", "HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=PKG, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    run = subprocess.run([binary, *sys.argv[1:]], cwd=ROOT, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
