#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <replay_cached|replay_sweep|study_live> \
        --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), then runs the untraced binary for `--trace 0` or the
traced one, with its counting allocator, for `--trace 1`. The last line
of standard output is the result object; everything else is a readable
report. Exits non-zero without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def commit(root):
    """The checkout's git commit, or 'unknown' outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, check=False,
        )
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv):
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    traced = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    binary = os.path.join(target, "release",
                          "perfbench_traced" if traced else "perfbench")
    env["PERFBENCH_COMMIT"] = commit(root)
    return subprocess.run([binary] + argv, env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
