#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <train|serve|serve_small> \
        --seed <n> --seconds <s> --trace <0|1>

The binary is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`). Every argument is passed through; the last line of
standard output is the binary's JSON result. Build output goes to
standard error. Exits non-zero if the build or the run fails.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# glibc malloc settings for the timed process: freed memory is kept
# instead of returned to the kernel, so a run does not keep re-faulting
# the same pages, a cost that varies with the load on a shared host. The
# arena count stays as it is: one arena for every device thread made
# `train` steps three times slower.
MALLOC_ENV = {
    "MALLOC_TRIM_THRESHOLD_": str(128 * 1024 * 1024),
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
}


def source_id():
    """The git commit when run from a clone, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("crates", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(ROOT, "perfbench", "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target, "release", "perfbench")
    sys.stdout.flush()
    run = subprocess.run(
        [binary, *sys.argv[1:], "--commit", source_id()],
        cwd=ROOT,
        env={**env, **MALLOC_ENV},
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
