#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <mdc-mockup|sdc-rehearse|sdc-watch> \
        --seed N --seconds S --trace <0|1> [--size full|small] [--print-pins]

Run from the root of a checkout. The Rust package in this directory
depends on the workspace crates by path, so the build fails (and this
script exits non-zero without a result) when they are absent. Build
output goes to standard error; the benchmark's last line of standard
output is its JSON result. Cargo builds into $CARGO_TARGET_DIR, by
default `.bench_build` in the checkout; traced runs write their spans
under `.bench_build/perfbench`.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build() -> Path:
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: build failed ({done.returncode})")
    return target / "release" / "crystalnet-perfbench"


def main() -> int:
    args = sys.argv[1:]
    if "--workload" not in args:
        sys.exit("run.py: --workload is required")
    binary = build()
    cmd = [str(binary), *args,
           "--golden", str(HERE / "golden.tsv"),
           "--out-dir", str(ROOT / ".bench_build" / "perfbench")]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
