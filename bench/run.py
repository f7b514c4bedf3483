#!/usr/bin/env python3
"""Build the benchmark program from source and run it.

Run from the repository root; every argument is passed through:

    python3 bench/run.py --workload nas-trace --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1 --out DIR        # every workload in turn
    python3 bench/run.py -compare base/results.json head/results.json

The Go build cache, the binary, temporary files, and the default
results directory all live under .bench_build/ at the repository root.
"""
import os
import signal
import subprocess
import sys


def wait_forwarding(cmd, **kwargs):
    """Run cmd to completion, passing SIGINT and SIGTERM on to it."""
    proc = subprocess.Popen(cmd, **kwargs)

    def forward(signum, _frame):
        proc.send_signal(signum)

    old = {s: signal.signal(s, forward) for s in (signal.SIGINT, signal.SIGTERM)}
    try:
        return proc.wait()
    finally:
        for s, handler in old.items():
            signal.signal(s, handler)


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTOOLCHAIN="local",
        GOFLAGS="-buildvcs=false",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CACHE_HOME=os.path.join(build, "cache"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
    )
    exe = os.path.join(build, "charisma-bench")
    try:
        built = wait_forwarding(["go", "build", "-o", exe, "."], cwd=bench, env=env,
                                stdout=sys.stderr)
    except OSError as err:
        print(f"bench: cannot run the Go toolchain: {err}", file=sys.stderr)
        return 1
    if built != 0:
        print("bench: build failed", file=sys.stderr)
        return 1
    return wait_forwarding([exe] + sys.argv[1:], cwd=root, env=env)


if __name__ == "__main__":
    sys.exit(main())
