"""cantordyn benchmark: one workload per process, closed loop, one client.

    python3 cdbench/run.py --workload membership-scan --seed 1 --seconds 20 --trace 0

Run from the repository root (the library is imported from ./src; no build
step). Workloads are described in BENCHMARK.json and workloads.py.

A run:
1. sets up at least SETUP_REPS times, and for at least SETUP_MIN_S unless
   SETUP_MAX_REPS set-ups are done (fresh import of cantordyn, descriptor
   loading, tower levels and other state the queries reuse), and reports the
   median;
2. runs the workload's fixed number of warm-up rounds, then whole rounds of
   seeded queries, one at a time, until `--seconds` of query time and at
   least MIN_QUERIES queries have passed; only the queries themselves are
   timed, and every output (warm-up included) is checked against the
   independent models of model.py between rounds. Throughput is the median
   over the timed rounds of each round's queries per second, so that a
   stretch of the run on a slowed-down host moves it less than a mean would;
3. repeats the first rounds on a fresh set-up and requires byte-identical
   output, and prints the SHA-256 digest of those rounds;
4. with --trace 1, sets up again and replays the first `trace_rounds`
   rounds under the tracer, and reports per-layer figures instead of the
   end-to-end ones.

Human-readable lines go to stdout first; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 only
when every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
import types

from tracer import LAYERS, Tracer
from workloads import ROOT, WORKLOADS, Oracle

SETUP_REPS = 3  # at least; more while SETUP_MIN_S has not passed
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 11  # so that a fast set-up does not lengthen the run
MIN_QUERIES = 1000  # so that ten samples lie beyond the 99th percentile
# the kernel backend the library never calls, and its benchmark
FORBIDDEN_MODULES = ("cantordyn.kernels", "cantordyn._maskcore", "cantordyn._maskcore_py", "bench_kernels")


def import_library():
    """Import cantordyn afresh: earlier copies are dropped first."""
    for name in [n for n in sys.modules if n == "cantordyn" or n.startswith("cantordyn.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("cantordyn")
    return types.SimpleNamespace(
        **{layer: importlib.import_module("cantordyn." + layer) for layer in LAYERS}
    )


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


class Phase:
    """Rounds of calls: latencies, query time, outputs and their checks."""

    def __init__(self, keep_rounds):
        self.keep_rounds = keep_rounds  # rounds whose output texts are kept
        self.latencies = []
        self.query_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.round_s = []
        self.round_queries = []
        self.round_texts = []
        self.counts = {}

    def run_round(self, workload, state, calls):
        """Run calls one after another; returns the outputs still to check."""
        texts = []
        elapsed = 0.0
        outputs = []
        n_before = len(self.latencies)
        for call in calls:
            t0 = time.perf_counter()
            try:
                records, error = workload.run(state, call)
            except Exception as exc:  # a query that raised is a failed query
                records, error = [], f"{type(exc).__name__}: {exc}"
            elapsed += time.perf_counter() - t0
            self.latencies.extend(lat for lat, _ in records)
            self.attempted += len(records) + (error is not None)
            call_texts = [text for _, text in records]
            texts.extend(call_texts)
            if error is None:
                outputs.append((call, call_texts))
            else:
                self.failed += 1
                self.problems.append(f"{call!r:.160}: {error}")
        self.query_s += elapsed
        self.round_s.append(elapsed)
        self.round_queries.append(len(self.latencies) - n_before)
        if len(self.round_texts) < self.keep_rounds:
            self.round_texts.append(texts)
        return outputs

    def check(self, workload, oracle, state, outputs):
        """Count each call whose outputs disagree with the oracle as one failure."""
        for call, call_texts in outputs:
            try:
                problems, counts = workload.check(oracle, state, call, call_texts)
            except Exception as exc:  # malformed output the oracle cannot read
                problems, counts = [f"unreadable output: {type(exc).__name__}: {exc}"], {}
            for key, n in counts.items():
                self.counts[key] = self.counts.get(key, 0) + n
            if problems:
                self.failed += 1
                self.problems.extend(f"{call!r:.160}: {p}" for p in problems)


def digest(round_texts) -> str:
    h = hashlib.sha256()
    for texts in round_texts:
        for text in texts:
            h.update(text.encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    for needed in ("src/cantordyn/__init__.py", "descriptors"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"run.py: {needed} not found under {ROOT}; run from a cantordyn checkout",
                  file=sys.stderr)
            return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    rng = random.Random(args.seed)
    plan = workload.plan(rng)

    setup_s = []
    while len(setup_s) < SETUP_REPS or (sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        lib = import_library()
        state = workload.setup(lib, plan)
        setup_s.append(time.perf_counter() - t0)

    oracle = Oracle()
    # a fixed number of rounds, so that the digested rounds repeat exactly
    warmup = Phase(0)
    for _ in range(workload.warmup_rounds):
        calls = workload.chunk(rng, state)
        warmup.check(workload, oracle, state, warmup.run_round(workload, state, calls))
    timed = Phase(workload.digest_rounds)
    rounds = []  # the first rounds' inputs, for the digest check and the traced replay
    while timed.query_s < args.seconds or len(timed.latencies) < MIN_QUERIES:
        calls = workload.chunk(rng, state)
        if len(rounds) < max(workload.digest_rounds, workload.trace_rounds):
            rounds.append(calls)
        timed.check(workload, oracle, state, timed.run_round(workload, state, calls))

    # determinism: the first rounds again, on a fresh set-up
    n_digest = min(workload.digest_rounds, len(rounds))
    rerun = Phase(workload.digest_rounds)
    fresh = workload.setup(lib, plan)
    for calls in rounds[:n_digest]:
        rerun.run_round(workload, fresh, calls)
    out_digest = digest(timed.round_texts[:n_digest])
    problems = warmup.problems + timed.problems
    if digest(rerun.round_texts) != out_digest:
        problems.append("the same inputs gave different output bytes on a fresh set-up")

    metrics = {}
    attempted, failed = warmup.attempted + timed.attempted, warmup.failed + timed.failed
    if args.trace:
        # a fixed number of rounds, so that the traced counts repeat exactly
        n_replay = min(workload.trace_rounds, len(rounds))
        tracer = Tracer()
        traced = Phase(n_replay)
        tracer.install()
        try:
            traced_state = workload.setup(lib, plan)
            tracer.mark_setup_done()
            t_phase = time.perf_counter()
            replay = [traced.run_round(workload, traced_state, calls) for calls in rounds[:n_replay]]
            phase_s = time.perf_counter() - t_phase
        finally:
            tracer.uninstall()
        for outputs in replay:
            traced.check(workload, oracle, traced_state, outputs)
        n_same = min(n_digest, n_replay)
        if digest(traced.round_texts[:n_same]) != digest(timed.round_texts[:n_same]):
            problems.append("traced replay changed the output bytes")
        problems.extend(traced.problems)
        attempted += traced.attempted
        failed += traced.failed
        for name, (value, unit) in tracer.metrics(phase_s).items():
            metrics[name] = {"value": value, "unit": unit}
        for key, unit in (("overlap_merged", "count"), ("codes_checked", "count")):
            metrics["enumeration." + key] = {"value": traced.counts.get(key, 0), "unit": unit}
        untraced = sum(timed.round_s[:n_replay])
        metrics["trace.overhead_frac"] = {
            "value": (traced.query_s - untraced) / untraced, "unit": "ratio"}
        metrics["cli.bytes_out"] = {
            "value": sum(len(t.encode("utf-8")) for r in traced.round_texts for t in r)
            if args.workload == "enum-stream" else 0, "unit": "bytes"}
    else:
        lat = sorted(timed.latencies)
        metrics = {
            "throughput_qps": {"value": statistics.median(
                n / s for n, s in zip(timed.round_queries, timed.round_s)), "unit": "1/s"},
            "latency_p50_ms": {"value": statistics.median(lat) * 1e3, "unit": "ms"},
            "latency_p99_ms": {"value": percentile(lat, 0.99) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }

    loaded = [n for n in sys.modules if any(n == m or n.endswith("." + m) for m in FORBIDDEN_MODULES)]
    if loaded:
        problems.append(f"benchmark imported {loaded}")

    correct = not problems and failed == 0
    print(f"workload {args.workload} seed {args.seed}: {workload.warmup_rounds} warm-up rounds, "
          f"then {len(timed.round_s)} rounds, {len(timed.latencies)} queries "
          f"in {timed.query_s:.3f} s of query time")
    print(f"failed_frac {failed / max(attempted, 1):.6f} ratio ({failed} of {attempted} queries)")
    print(f"digest sha256:{out_digest} (first {n_digest} rounds, "
          f"{sum(map(len, timed.round_texts[:n_digest]))} outputs)")
    print(f"setup_s reps: {' '.join(f'{s:.4f}' for s in setup_s)}")
    for key in sorted(warmup.counts.keys() | timed.counts.keys()):
        n = warmup.counts.get(key, 0) + timed.counts.get(key, 0)
        print(f"oracle.{key} {n} count")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    for p in problems[:20]:
        print(f"PROBLEM {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
