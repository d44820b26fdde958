#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <suite|corpus|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) that builds the repository's crates from
source into $CARGO_TARGET_DIR (default: .bench_build at the root). The
last line of standard output is the result object; build output goes to
standard error. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# What the built program depends on; hashed into a build id so the
# determinism record is only compared between runs of the same code.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench/Cargo.toml", "perfbench/src"]


def build_id():
    digest = hashlib.sha256()
    for name in SOURCES:
        path = ROOT / name
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode())
            digest.update(f.read_bytes())
    return digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["suite", "corpus", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        print(f"perfbench: no repository sources next to {HERE}; nothing to build", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = Path.cwd() / target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    command = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(HERE / "out"),
        "--build-id", build_id(),
    ]
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
