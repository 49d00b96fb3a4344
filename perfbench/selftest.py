#!/usr/bin/env python3
"""Self-test: the benchmark measures real, repeatable work.

    python3 perfbench/selftest.py [--seed A] [--other-seed B]

Runs every workload at reduced size (`--size small`, one second, traced)
twice with seed A and once with seed B. Every count-type metric (unit
`count`: route ops, engine events, fib_changes, probes, flows,
incidents, ...) and every pinned value must repeat exactly across the
two seed-A runs, every run must be correct, and seed B must change at
least one of them, so the benchmark cannot silently measure nothing.
Exits 0 when all hold, 1 otherwise.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ["mdc-mockup", "sdc-rehearse", "sdc-watch"]


def run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1",
           "--size", "small", "--print-pins"]
    out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"selftest: {workload} seed {seed} exited {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counts = {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}
    pins = {l.split("\t")[3]: l.split("\t")[4] for l in lines if l.startswith("pin\t")}
    return {"correct": result["correct"], "counts": counts, "pins": pins}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--other-seed", type=int, default=8)
    args = ap.parse_args()
    ok = True
    for workload in WORKLOADS:
        a1, a2 = run(workload, args.seed), run(workload, args.seed)
        b = run(workload, args.other_seed)
        problems = []
        for r, name in [(a1, "first"), (a2, "second"), (b, "other-seed")]:
            if not r["correct"]:
                problems.append(f"{name} run not correct")
        for kind in ("counts", "pins"):
            for key in sorted(a1[kind]):
                if a1[kind][key] != a2[kind].get(key):
                    problems.append(f"{kind[:-1]} {key}: {a1[kind][key]} then {a2[kind].get(key)}")
        nonzero = [k for k, v in a1["counts"].items() if v]
        if not nonzero:
            problems.append("every count is zero")
        if a1["counts"] == b["counts"] and a1["pins"] == b["pins"]:
            problems.append(f"seed {args.other_seed} changed no count or pin")
        status = "ok" if not problems else "FAILED"
        print(f"{workload}: {status} ({len(a1['counts'])} counts, "
              f"{len(a1['pins'])} pins, {len(nonzero)} nonzero)")
        for p in problems:
            print(f"  {p}")
        ok &= not problems
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
