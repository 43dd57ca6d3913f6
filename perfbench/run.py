"""Benchmark of schurq: the workloads expand, query and checklist.

    python3 perfbench/run.py --workload expand --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from src/ next to this
directory.  Each workload runs in a fresh worker process (worker.py) with
one caller; this process makes the inputs from the seed, times set-up in
fresh interpreters, and checks every answer the worker brings back against
computations made apart from the timed calls (checks.py, oracle.py).

With --trace 0 the last line of output is one JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of one
traced round, and the overhead of tracing is printed above it.  The full
record, spans included, goes to perfbench/out/.  --workload all runs the
three workloads in turn.  Exit code 0 on a finished run, 1 when a worker
fails, 2 when the program's sources are not found.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("expand", "query", "checklist")
MIN_OPS = 40  # so that a tail percentile with ten samples beyond it exists
SETUP_PROCESSES = 11
SETUP_CODE = "import schurq; schurq.decompose((2, 1), (1,))"
WORKER_TIMEOUT = 150


def worker_env():
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", THREADS="1",
               OMP_NUM_THREADS="1")
    return env


def setup_seconds():
    """Median wall time of a fresh interpreter importing schurq and making
    one trivial decompose, after one untimed warm-up process."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    env = worker_env()
    subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT)
    times = []
    for _ in range(SETUP_PROCESSES):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=WORKER_TIMEOUT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_worker(job):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=worker_env(), timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker for {job['workload']} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def percentile(values, p):
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_latency(rounds, block):
    """(percentile, its median over blocks) of per-round latency lists.

    A block is as many whole rounds as hold at least MIN_OPS operations.
    The percentile is the highest with ten operations of a block beyond
    it, so it is the same on every commit; taking the median over the
    blocks of a run keeps a burst of noise in one block out of the figure.
    """
    per_block = -(-MIN_OPS // block)
    p = 100 * (1 - 10 / (per_block * block))
    blocks = [sum(rounds[i:i + per_block], [])
              for i in range(0, len(rounds) - per_block + 1, per_block)]
    return p, statistics.median(percentile(b, p) for b in blocks)


def check_answers(workload, ops, seed, answers):
    """(wrong answers, first reason, run-level problem) of one run.

    answers holds [op index, distinct answer, times it came back].
    """
    sys.path.insert(0, str(SRC))
    import schurq

    wrong, reason, problem = 0, None, None
    expected = {}
    for i, answer, times in answers:
        if workload == "expand":
            why = checks.check_expand(*ops[i], answer)
        elif workload == "query":
            lam, mu, _ = ops[i]
            if (lam, mu) not in expected:
                expected[lam, mu] = checks.query_expectation(
                    lam, mu, schurq.coefficient, schurq.is_multiplicity_free_bruteforce)
            why = checks.check_query(expected[lam, mu], answer)
        else:
            why = checks.check_checklist(answer)
        if why:
            wrong += times
            reason = reason or f"operation {i} {ops[i]}: {why}"
    if workload == "checklist":
        problem = checks.check_tableau_sample(
            inputs.tableau_sample(seed), schurq.Tableau,
            schurq.is_k_amenable_checklist, schurq.is_k_amenable_word)
    return wrong, reason, problem


def run(workload, seed, seconds, trace):
    setup = setup_seconds()
    ops = inputs.OPS[workload](seed)
    job = {"workload": workload, "ops": ops, "seconds": seconds,
           "trace": trace, "min_ops": MIN_OPS}
    result = run_worker(job)
    if not Path(result["schurq"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"worker imported schurq from {result['schurq']}, not {SRC}")
    wrong, reason, problem = check_answers(workload, ops, seed, result["answers"])
    raised = sum(times for _, _, times in result["errors"])
    latencies = sum(result["latencies"], [])
    tail, tail_value = tail_latency(result["latencies"], len(ops))
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (statistics.median(len(lat) / sec for lat, sec in zip(
            result["latencies"], result["round_seconds"])), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    if trace:
        metrics = {name: (value, "ms" if name.endswith("ms") else
                          "ratio" if name.endswith("yield") else "count")
                   for name, value in result["trace"]["metrics"].items()}
    summary = {
        "correct": wrong == 0 and problem is None,
        "attempted": result["attempted"],
        "failed": raised + wrong,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }

    print(f"workload {workload}: seed {seed}, backend {result['backend']}, "
          f"{len(ops)} operations a round, {result['rounds']} timed rounds, "
          f"attempted {summary['attempted']}, failed {summary['failed']}, "
          f"correct {str(summary['correct']).lower()}")
    for _, msg, times in result["errors"][:3]:
        print(f"  raised {times}x: {msg}")
    for line in (reason, problem):
        if line:
            print(f"  wrong: {line}")
    if trace:
        untraced = statistics.median(result["round_seconds"])
        traced = result["trace"]["round_seconds"]
        print(f"  tracing overhead: {100 * (traced / untraced - 1):+.1f}% "
              f"(traced round {traced:.3f} s, untraced median {untraced:.3f} s)")
        if result["trace"]["missing"]:
            print(f"  not traced, name not found: {', '.join(result['trace']['missing'])}")
    else:
        print(f"  latency_tail_ms is the {tail:.4g}th percentile of each block "
              f"of {-(-MIN_OPS // len(ops)) * len(ops)} operations, "
              f"median over the blocks of {len(latencies)} timed operations")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    record = dict(summary, workload=workload, seed=seed, seconds=seconds,
                  backend=result["backend"], rounds=result["rounds"],
                  round_seconds=result["round_seconds"],
                  trace=result.get("trace"))
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "schurq" / "__init__.py").is_file():
        print(f"schurq sources not found under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
