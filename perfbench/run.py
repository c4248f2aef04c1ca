#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload opt-suite|serve-cold|serve-mixed \
        --seed N --seconds S --trace 0|1 [--mixed-rate R]

Run from the root of a checkout. Builds the `epre` binary (the daemon the
serve workloads drive) and the `perfbench` binary in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then runs `perfbench`, whose
last line of output is the JSON result. Temporary files go under
.bench_tmp/ and are removed when the run ends.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, cwd, env):
    # Cargo's own output goes to stderr so the result stays the last line
    # of standard output.
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet"] + args,
        cwd=cwd,
        env=env,
        stdout=sys.stderr,
    )
    return done.returncode == 0


def main():
    if not (
        os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
        and os.path.isdir(os.path.join(ROOT, "crates"))
    ):
        print("perfbench: no repository sources next to perfbench/", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    if not build(["--bin", "epre"], ROOT, env):
        return 1
    if not build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], ROOT, env):
        return 1
    scratch = os.path.join(ROOT, ".bench_tmp", "run-%d" % os.getpid())
    bench = os.path.join(target, "release", "perfbench")
    epre = os.path.join(target, "release", "epre")
    try:
        done = subprocess.run(
            [bench] + sys.argv[1:] + ["--epre", epre, "--scratch", scratch],
            cwd=ROOT,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
