"""Runs one workload against schurq in a fresh process; started by run.py.

Reads a job (workload, operations, seconds, trace) as JSON on stdin and
writes the measurements as JSON on stdout.  One caller, closed loop: each
call starts when the previous one has returned.  After one untimed warm-up
round, whole rounds of the same operations run until the time is spent and
at least min_ops operations are done.  With trace on, one more round runs
with every layer traced, and its counts and times are reported.

Answers are turned into plain values after each timed call returns.  Only
the distinct answers of each operation leave the process, with how often
each came back, so memory does not grow with the number of rounds.
"""

import json
import resource
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import schurq  # noqa: E402
from schurq import verify  # noqa: E402

import tracing  # noqa: E402


def expand(api, lam, mu):
    return api.decompose(lam, mu)


def query(api, lam, mu, nus):
    verdict = api.classify(lam, mu, witness=True)
    return verdict, [api.coefficient(lam, mu, nu) for nu in nus]


def checklist(api, max_boxes, exhaustive_boxes):
    return api.suite_checklist(max_boxes, exhaustive_boxes)


def plain_expand(terms, *_):
    return sorted([list(nu), f] for nu, f in terms.items())


def plain_query(result, lam, mu, nus):
    verdict, coeffs = result
    witness = verdict.witness
    return {"free": verdict.multiplicity_free,
            "cases": list(verdict.matched_cases),
            "witness": None if witness is None else [list(witness[0]), witness[1]],
            "coeffs": [[list(nu), f] for nu, f in zip(nus, coeffs)]}


def plain_checklist(report, *_):
    return {"checked": report.checked, "failures": len(report.failures)}


# name -> (operation, its answer as plain values, its arguments from JSON)
WORKLOADS = {
    "expand": (expand, plain_expand,
               lambda lam, mu: (tuple(lam), tuple(mu))),
    "query": (query, plain_query,
              lambda lam, mu, nus: (tuple(lam), tuple(mu), [tuple(nu) for nu in nus])),
    "checklist": (checklist, plain_checklist, lambda *sizes: sizes),
}


def api_of(tracer):
    """The public calls a workload makes, traced at the call site if asked."""
    calls = {"decompose": schurq.decompose, "classify": schurq.classify,
             "coefficient": schurq.coefficient,
             "suite_checklist": verify.suite_checklist}
    if tracer is not None:
        module = {"decompose": "coefficients", "classify": "classifier",
                  "coefficient": "coefficients", "suite_checklist": "verify"}
        calls = {name: tracer.wrap(f"{module[name]}.{name}", fn)
                 for name, fn in calls.items()}
    return types.SimpleNamespace(**calls)


class Tally:
    """Distinct answers and errors per operation, with their counts."""

    def __init__(self, size):
        self.answers = [[] for _ in range(size)]
        self.errors = [{} for _ in range(size)]

    def answer(self, i, value):
        for seen in self.answers[i]:
            if seen[0] == value:
                seen[1] += 1
                return
        self.answers[i].append([value, 1])

    def error(self, i, exc):
        key = f"{type(exc).__name__}: {exc}"
        self.errors[i][key] = self.errors[i].get(key, 0) + 1

    def dump(self):
        return {"answers": [[i, v, n] for i, seen in enumerate(self.answers)
                            for v, n in seen],
                "errors": [[i, msg, n] for i, errs in enumerate(self.errors)
                           for msg, n in errs.items()]}


def run_round(call, plain, api, ops, tally, latencies, tracer=None):
    """One pass over ops; returns its wall time in seconds."""
    perf = time.perf_counter
    begin = perf()
    for i, args in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        start = perf()
        try:
            result = call(api, *args)
        except Exception as exc:  # an operation that raises counts as failed
            if tally is not None:
                tally.error(i, exc)
            continue
        end = perf()
        if latencies is not None:
            latencies.append(end - start)
        if tally is not None:
            tally.answer(i, plain(result, *args))
        if tracer is not None:
            tracer.counts["verify.checked"] += getattr(result, "checked", 0)
    return perf() - begin


def main():
    job = json.load(sys.stdin)
    call, plain, decode = WORKLOADS[job["workload"]]
    ops = [decode(*op) for op in job["ops"]]
    api = api_of(None)
    tally = Tally(len(ops))
    latencies = []  # one list per timed round

    run_round(call, plain, api, ops, None, None)  # warm-up
    rounds, round_seconds = 0, []
    begin = time.perf_counter()
    while (time.perf_counter() - begin < job["seconds"]
           or rounds * len(ops) < job["min_ops"]):
        latencies.append([])
        round_seconds.append(run_round(call, plain, api, ops, tally, latencies[-1]))
        rounds += 1
    out = {"backend": schurq.backend_name(),
           "schurq": schurq.__file__,
           "rounds": rounds,
           "round_seconds": round_seconds,
           "latencies": latencies,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_round(call, plain, api_of(tracer), ops, tally, None, tracer)
        out["trace"] = {"round_seconds": traced,
                        "metrics": tracing.layer_metrics(tracer),
                        "missing": tracer.missing,
                        "spans": [s for s in tracer.spans if s is not None]}
        rounds += 1
    out["attempted"] = rounds * len(ops)
    out.update(tally.dump())
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
