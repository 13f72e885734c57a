"""Smoke test of the benchmark, and the one-row-per-workload table.

    python3 perfbench/selftest.py              # shortest run length, 1 s
    python3 perfbench/selftest.py --seconds 20 # the table at the real run length

Runs every workload twice untraced and once traced, and fails unless every
end-to-end and per-layer metric of BENCHMARK.json is printed with its unit,
no query fails (error_frac is 0), and decided_frac repeats exactly between
the two runs.  Prints one row per workload with every end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload}: exit {done.returncode}\n{done.stderr[-3000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def missing(result: dict, specs: list) -> list:
    got = result["metrics"]
    return [
        spec["name"] for spec in specs
        if spec["name"] not in got or got[spec["name"]]["unit"] != spec["unit"]
        or not isinstance(got[spec["name"]]["value"], (int, float))
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = bench["end_to_end"]
    problems = []
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        first, second = (run(workload, args.seed, args.seconds, 0) for _ in range(2))
        traced = run(workload, args.seed, args.seconds, 1)
        for label, result, specs in (("run 1", first, e2e), ("run 2", second, e2e),
                                     ("traced run", traced, bench["per_layer"])):
            absent = missing(result, specs)
            if absent:
                problems.append(f"{workload} {label}: missing {absent}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{workload} {label}: {result['failed']} of {result['attempted']} queries failed")
        a, b = (r["metrics"]["decided_frac"]["value"] for r in (first, second))
        if a != b:
            problems.append(f"{workload}: decided_frac {a} then {b}")
        rows.append((workload, first))

    names = [spec["name"] for spec in e2e]
    print(f"{'workload':16s} " + " ".join(f"{n:>15s}" for n in names) + f" {'error_frac':>15s}")
    for workload, result in rows:
        m = result["metrics"]
        cells = [f"{m[n]['value']:.5g} {m[n]['unit']}" for n in names]
        cells.append(f"{result['failed'] / result['attempted']:.5g} ratio")
        print(f"{workload:16s} " + " ".join(f"{c:>15s}" for c in cells))
    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
