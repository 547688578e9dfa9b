#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload single-graphchi --seed 1 --seconds 20 --trace 0

Every argument is passed to the binary (see perfbench/main.go). The Go
build cache, temporary files and the binary live under .bench_build/ in
the checkout, so nothing is written outside it. The build needs the
repository's Go sources next to perfbench/; without them it fails and
the script exits non-zero without printing a result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.join(root, ".bench_build")
    binary = os.path.join(build_dir, "perfbench", "perfbench")
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOMODCACHE": os.path.join(build_dir, "gomodcache"),
        "GOTMPDIR": os.path.join(build_dir, "tmp"),
        # The go command keeps its telemetry under the user config dir.
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOFLAGS": "-buildvcs=false",
        "CGO_ENABLED": "0",
    })
    for d in ("gocache", "gomodcache", "tmp", "config", "perfbench"):
        os.makedirs(os.path.join(build_dir, d), exist_ok=True)
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed (exit %d)" % build.returncode, file=sys.stderr)
        return 1
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
