#!/usr/bin/env python3
"""Build the program and run one benchmark workload.

    python3 perfbench/run.py --workload paper-scaling --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The Go builds (gpmrd, gpmrfleet and the
perfbench command) go to .bench_build/, with the Go build cache and
temporary files kept there too; they are rebuilt only when a source file
changes. The last line of standard output is the result JSON; see
perfbench/README.md for the metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def sources_digest():
    """Content hash of every Go source and module file in the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def go_env():
    env = dict(os.environ)
    # XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("GOPATH", "gopath"), ("GOMODCACHE", "gopath/mod"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(BUILD, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off", GOENV="off", CGO_ENABLED="0")
    return env


def build(env, digest):
    stamp = os.path.join(BIN, "source")
    try:
        with open(stamp) as f:
            if f.read() == digest:
                return True
    except OSError:
        pass
    os.makedirs(BIN, exist_ok=True)
    steps = [
        (ROOT, "gpmrd", "./cmd/gpmrd"),
        (ROOT, "gpmrfleet", "./cmd/gpmrfleet"),
        (HERE, "perfbench", "."),
    ]
    for cwd, out, pkg in steps:
        r = subprocess.run(["go", "build", "-o", os.path.join(BIN, out), pkg], cwd=cwd, env=env)
        if r.returncode != 0:
            print(f"perfbench: building {pkg} failed", file=sys.stderr)
            return False
    with open(stamp, "w") as f:
        f.write(digest)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("paper-scaling", "tenant-stream", "fleet-serve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()
    for need in ("go.mod", "cmd/gpmrd", "cmd/gpmrfleet", "perfbench/go.mod"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} is missing: run from the root of a full checkout", file=sys.stderr)
            return 2
    env = go_env()
    digest = sources_digest()
    if not build(env, digest):
        return 1
    cmd = [os.path.join(BIN, "perfbench"), "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-root", ROOT, "-bin", BIN, "-source", digest]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
