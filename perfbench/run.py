"""The filebasis benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload toy-nf --seed 1 --seconds 20 --trace 0

One client drives the `filebasis` CLI in-process (`cli.main(argv)`, output
captured) in a closed loop: the next query starts when the previous one has
returned.  Set-up is timed in fresh interpreters; every answer is checked
after the timed loop (checks.py).  With `--trace 0` the last line of output
is a JSON object with the end-to-end metrics; with `--trace 1` the same
queries run once untraced and once with spans installed around each
module's entry points (spans.py), and the JSON carries the per-layer
metrics and the tracing overhead.

Files are written only under perfbench/_work/: the run's inputs (removed
at the end), its spans and its decided verdicts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
VERDICTS = HERE / "verdicts.json"
PROBE_TIMEOUT_S = 150
CAP_FACTOR = 1.5  # of --seconds: no new block starts after that much query time


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (wl.ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(wl.SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# set-up


def time_setups(workload: wl.Workload, seed: int, seconds: float, rundir: Path) -> list:
    """Seconds from spawning a fresh interpreter until its inputs are ready,
    once per set-up repeat.  The last repeat's files serve the run."""
    times = []
    for _ in range(workload.setup_repeats):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "workloads.py"), "--workload", workload.name,
             "--seed", str(seed), "--seconds", str(seconds), "--dir", str(rundir)],
            cwd=wl.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not out.startswith("ready "):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-2000:]}")
        times.append(float(out.split()[1]) - start)
    return times


# ---------------------------------------------------------------------------
# the closed loop


def run_queries(cli, workload: wl.Workload, plan: dict, blocks: list, tracer=None, cap_s=None) -> tuple:
    """Answer the queries of the blocks in order; (records, loop wall seconds).

    With cap_s, no new block starts once the loop has run that long, so a
    much slower host cannot stretch a run without limit."""
    records = []
    loop_start = time.perf_counter()
    for done, block in enumerate(blocks):
        if cap_s is not None and time.perf_counter() - loop_start >= cap_s:
            print(f"time cap: stopped after {done} of {len(blocks)} blocks")
            break
        for query in block:
            argv = wl.argv_of(workload, plan, query)
            if tracer is not None:
                tracer.query_id = len(records)
            start = time.perf_counter()
            try:
                code, out, err = wl.call_cli(cli, argv)
                crash = None
            except Exception:  # a raising query is a failed query, not a failed run
                code, out, err, crash = None, "", "", traceback.format_exc()
            records.append(
                {"query": query, "code": code, "stdout": out, "stderr": err,
                 "crash": crash, "seconds": time.perf_counter() - start}
            )
    return records, time.perf_counter() - loop_start


DECIDED = ("yes", "no", "ok", "fail")


def evaluate(workload: wl.Workload, plan: dict, records: list) -> tuple:
    """(number of decided answers, decided verdicts by query key, failures)
    after checking every answer."""
    inst = checks.Instance(plan["presentation_data"])
    recorded = {}
    if VERDICTS.is_file():
        recorded = json.loads(VERDICTS.read_text())["verdicts"].get(workload.name, {})
    decided, verdicts, failures = 0, {}, []
    for rec in records:
        query = rec["query"]
        key = wl.query_key(query)
        if rec["crash"] is not None:
            failures.append((key, ["raised: " + rec["crash"].strip().splitlines()[-1]]))
            continue
        verdict, errors = checks.check(inst, query, rec["code"], rec["stdout"])
        if verdict in DECIDED:
            decided += 1
            verdicts[key] = verdict
            if recorded.get(key, verdict) != verdict:
                errors.append(f"verdict {verdict} differs from the recorded {recorded[key]}")
        if errors:
            failures.append((key, errors))
    return decided, verdicts, failures


def latency_stats(seconds: list) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it
    (the median when fewer than 21 samples leave no higher one)."""
    ordered = sorted(seconds)
    n = len(ordered)
    median = statistics.median(ordered)
    index = n - 11
    if n > 1 and index >= (n - 1) / 2:
        tail, percentile = ordered[index], 100.0 * index / (n - 1)
    else:
        tail, percentile = median, 50.0
    return {"p50": median, "tail": tail, "tail_percentile": percentile, "samples": n,
            "beyond": sum(1 for s in ordered if s > tail)}


def write_verdicts(workload: wl.Workload, seed: int, verdicts: dict) -> None:
    folder = WORK / "verdicts"
    folder.mkdir(parents=True, exist_ok=True)
    (folder / f"{workload.name}-seed{seed}.json").write_text(json.dumps(verdicts, indent=1, sort_keys=True))


def print_failures(failures: list) -> None:
    for key, errors in failures[:20]:
        print(f"FAILED {key}: {'; '.join(errors)}")


def result(attempted: int, failures: list, metrics: dict) -> dict:
    """The JSON object a run prints last."""
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(cli, workload: wl.Workload, args, rundir: Path) -> dict:
    setups = time_setups(workload, args.seed, args.seconds, rundir)
    plan = json.loads((rundir / "plan.json").read_text())
    records, wall = run_queries(cli, workload, plan, plan["blocks"], cap_s=CAP_FACTOR * args.seconds)
    decided, verdicts, failures = evaluate(workload, plan, records)
    write_verdicts(workload, args.seed, verdicts)
    lat = latency_stats([r["seconds"] for r in records])
    n = len(records)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (n / wall, "1/s"),
        "latency_p50_s": (lat["p50"], "s"),
        "latency_tail_s": (lat["tail"], "s"),
        "decided_frac": (decided / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print_failures(failures)
    print(
        f"{workload.name}: {n} queries in {wall:.2f} s; latency_tail_s is the "
        f"p{lat['tail_percentile']:.1f} of {lat['samples']} samples ({lat['beyond']} beyond it); "
        f"setup_s over {len(setups)} fresh interpreters: {', '.join(f'{s:.4f}' for s in setups)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:.6g} {unit}")
    print(f"  {'error_frac':16s} {len(failures) / n:.6g} ratio")
    return result(n, failures, metrics)


def traced(cli, workload: wl.Workload, args, rundir: Path) -> dict:
    tracer = spans.Tracer()
    tracer.install()
    setup_start = time.perf_counter()
    tracer.query_id = "setup"
    try:
        plan = wl.prepare(workload, args.seed, args.seconds, rundir)
    finally:
        tracer.uninstall()
    setup_wall = time.perf_counter() - setup_start
    blocks = plan["blocks"][: max(1, len(plan["blocks"]) // 2)]
    # the untraced pass runs first, so any warm-up lands on it, not on the spans
    plain, plain_wall = run_queries(cli, workload, plan, blocks)
    tracer.install()
    try:
        spanned, spanned_wall = run_queries(cli, workload, plan, blocks, tracer)
    finally:
        tracer.uninstall()
    failures = evaluate(workload, plan, plain)[2] + evaluate(workload, plan, spanned)[2]
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    spans_file = WORK / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_file)

    total = setup_wall + spanned_wall
    metrics = {}
    print_failures(failures)
    print(f"{workload.name}: traced set-up and {len(spanned)} queries; spans in {spans_file.relative_to(wl.ROOT)}")
    print(f"  {'layer':24s} {'calls':>10s} {'self_s':>10s} {'share':>7s}")
    for name in spans.layer_names():
        calls, self_s = tracer.calls[name], tracer.self_time[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_share"] = (self_s / total, "ratio")
        print(f"  {name:24s} {calls:10d} {self_s:10.4f} {self_s / total:7.2%}")
    for name, value in tracer.counters.items():
        metrics[name] = (value, "count")
        print(f"  {name:32s} {value}")
    metrics["trace.overhead"] = (spanned_wall / plain_wall, "ratio")
    metrics["trace.absent"] = (len(tracer.absent), "count")
    print(f"  tracing overhead {spanned_wall:.3f} s traced / {plain_wall:.3f} s untraced "
          f"= {spanned_wall / plain_wall:.3f}; absent: {', '.join(tracer.absent) or 'none'}")
    return result(len(plain) + len(spanned), failures, metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    workload = wl.WORKLOADS[args.workload]
    cli = wl.load_cli()
    env = environment()
    print(f"run: workload={workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v!r}" for k, v in env.items()))
    rundir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        outcome = (traced if args.trace else measure)(cli, workload, args, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
