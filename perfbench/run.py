#!/usr/bin/env python3
"""Build the perfbench command from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py compare <base result.json> <new result.json>

Everything the build and the runs write stays under .bench_build/ at the
repository root: the Go build cache, the binary, checkpoints, span files
and result files. The exit code is the command's, or the build's when the
build fails (as it does outside a full checkout of the repository).
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    go = shutil.which("go")
    if go is None:
        print("perfbench: no go toolchain on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOPATH", "gopath"), ("TMPDIR", "tmp"),
                     ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOWORK="off", GOFLAGS="",
               CGO_ENABLED="0")
    binary = os.path.join(BUILD, "perfbench", "perfbench")
    build = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
