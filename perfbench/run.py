#!/usr/bin/env python3
"""Build the whole-run benchmark and run it.

Run from the repository root:

    python3 perfbench/run.py --workload clos1024-gfcbuf --seed 1 --seconds 40 --trace 0

The Go build cache, the binary and every file the benchmark writes stay
under the build directory ($CARGO_TARGET_DIR if set, else .bench_build).
The exit code is the benchmark's; a failed build exits non-zero without
printing a result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    out = os.path.join(build, "perfbench")
    binary = os.path.join(out, "perfbench")
    os.makedirs(os.path.join(out, "tmp"), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        # The go command keeps telemetry counters under the user config
        # directory; keep them inside the build directory too.
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    ran = subprocess.run([binary, *sys.argv[1:], "-out", out], cwd=root, env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
