#!/usr/bin/env python3
"""Records the pinned outputs per workload and seed into golden.tsv.

    python3 perfbench/golden.py [--workload W ...] [--seeds 0-20,42,...]

Each run prints its pins (mdc-mockup: FIB digest, FIB entries and
route-ready virtual ns; sdc-rehearse: the fib_changes sequence of its
first what-ifs, a digest of those changes and the baseline FIB digest;
sdc-watch: probes, flows and incidents of one watch session). The
benchmark then checks every run whose seed is recorded here against
these values. Record them only from a commit whose behaviour is known
good: a later change that moves a pinned value changes what the
emulator computes, which the benchmark counts as a failed operation.
Remove a workload's rows before recording it again.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["mdc-mockup", "sdc-rehearse", "sdc-watch"]
DEFAULT_SEEDS = "0-20,42,20261017"


def seeds(spec: str) -> list:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", default=DEFAULT_SEEDS)
    args = ap.parse_args()
    path = HERE / "golden.tsv"
    rows = {}
    if path.exists():
        for line in path.read_text().splitlines():
            if line and not line.startswith("#"):
                w, s, k, v = line.split("\t")
                rows[(w, int(s), k)] = v
    for workload in args.workload or WORKLOADS:
        for seed in seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", "0", "--trace", "0", "--print-pins"]
            out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = out.stdout.splitlines()
            if out.returncode != 0 or '"failed": 0' not in lines[-1]:
                sys.stderr.write(out.stderr)
                sys.exit(f"golden: {workload} seed {seed} did not run cleanly")
            for line in lines:
                if line.startswith("pin\t"):
                    _, w, s, k, v = line.split("\t")
                    rows[(w, int(s), k)] = v
            print(f"{workload} seed {seed}: recorded", flush=True)
    body = "".join(f"{w}\t{s}\t{k}\t{v}\n" for (w, s, k), v in sorted(rows.items()))
    path.write_text("# workload\tseed\tkey\tvalue (written by golden.py)\n" + body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
