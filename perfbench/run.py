#!/usr/bin/env python3
"""Build and run the engine benchmark from a source checkout.

    python3 perfbench/run.py --workload gs-inproc --seed 1 --seconds 20 --trace 0

Run from the checkout's root. It builds perfbench (this directory's Go
module) and cmd/morphserve into the build directory — $CARGO_TARGET_DIR if
set, else .bench_build — with the Go build cache kept there too, so nothing
is written outside the checkout. Building is not timed. Then it runs the
benchmark with the given arguments; the benchmark's last stdout line is its
JSON result. Exits non-zero, without a result, if the build fails.
"""
import os
import signal
import subprocess
import sys

# The benchmark must end within this bound once built; the first build may
# take longer and is bounded separately.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOENV="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    bench = os.path.join(build, "perfbench")
    serve = os.path.join(build, "morphserve")
    for out, pkg in ((bench, "."), (serve, "morphstream/cmd/morphserve")):
        try:
            r = subprocess.run(["go", "build", "-o", out, pkg], cwd=here, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print("perfbench: build failed: %s" % e, file=sys.stderr)
            return 2
        if r.returncode != 0:
            print("perfbench: build of %s failed" % pkg, file=sys.stderr)
            return 2
    cmd = [bench, "--workdir", os.path.join(build, "run"), "--morphserve", serve] + sys.argv[1:]
    # Its own process group, so a timeout also stops a morphserve child.
    proc = subprocess.Popen(cmd, cwd=root, env=os.environ, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
