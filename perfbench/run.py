#!/usr/bin/env python3
"""Build the benchmark driver from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload hot-smallbank --seed 1 --seconds 20 --trace 0

The driver is a Go module of its own (perfbench/go.mod) that builds against
the repository module next to it. Everything the build and the run write —
Go build cache, the binary, temporary data directories — stays under
.bench_build/ in the current directory. The build runs in its own process
group and is killed and waited for if this script is interrupted; the
driver then replaces this process, so no child outlives the run.
"""
import os
import signal
import subprocess
import sys


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"), ("GOTMPDIR", "tmp"),
                     ("TMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    # Build offline from the checkout alone.
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOWORK="off", GOFLAGS="")
    binary = os.path.join(build, "perfbench")

    proc = subprocess.Popen(["go", "build", "-o", binary, "."], cwd=src, env=env,
                            stdout=sys.stderr, start_new_session=True)

    # The handler only kills the build's process group; the wait below then
    # returns. (Waiting inside the handler would deadlock on the wait it
    # interrupted.)
    interrupted = []

    def stop(signum, _frame):
        interrupted.append(signum)
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGINT, stop)
    signal.signal(signal.SIGTERM, stop)
    rc = proc.wait()
    if interrupted:
        return 128 + interrupted[0]
    if rc != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    sys.exit(main())
