#!/usr/bin/env python3
"""Build the benchlive Go program from this checkout and run it.

Run from the repository root:

    python3 benchlive/run.py --workload synth-local --seed 1 --seconds 20 --trace 0

Every file the build and the run produce stays under the build
directory: $CARGO_TARGET_DIR when set, else .bench_build (both relative
to the repository root). The arguments are passed to the program
unchanged; its exit code is this script's.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    src = os.path.join(root, "benchlive")
    binary = os.path.join(build, "benchlive", "benchlive")
    env = dict(os.environ)
    # Keep the Go toolchain's caches, temporary files and settings inside
    # the build directory, offline and on the installed toolchain.
    env.update({
        "GOCACHE": os.path.join(build, "go", "cache"),
        "GOPATH": os.path.join(build, "go", "path"),
        "GOMODCACHE": os.path.join(build, "go", "path", "mod"),
        "GOTMPDIR": os.path.join(build, "go", "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "go", "config"),
        "GOENV": "off",
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOTOOLCHAIN": "local",
    })
    for key in ("GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("benchlive: build failed", file=sys.stderr)
        return built.returncode
    spans = os.path.join(build, "benchlive", "spans")
    return subprocess.run([binary, "--out", spans] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
