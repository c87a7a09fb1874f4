#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0

The Go build cache, module cache and binary live under the build
directory ($CARGO_TARGET_DIR, else .bench_build) inside the checkout,
so a run reads and writes nothing outside it. The last line of
standard output is the run's JSON result; the exit code is the
benchmark's.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        # Go's telemetry and config files go under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main(argv):
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go") or "go"
    binary = os.path.join(build, "perfbench")
    env = build_env(build)
    os.makedirs(build, exist_ok=True)
    res = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                         stdout=sys.stderr)
    if res.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    spans = os.path.join(build, "spans")
    return subprocess.run([binary, "-span-dir", spans] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
