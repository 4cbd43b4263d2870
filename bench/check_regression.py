#!/usr/bin/env python3
"""Hot-path throughput regression gate over google-benchmark JSON.

Compares a fresh BENCH_micro_runtime.json against the committed
baseline in bench/baselines/ and fails (exit 1) when any gated
benchmark -- the host dispatch path or the sim kernel -- lost more
than --threshold (default 25%) of its items_per_second. The gate
targets the failure modes that motivate it -- accidentally
serializing a lock-free path, or putting an allocation back on the
simulator's per-event path, which cost integer factors, not
percent -- so the threshold leaves room for the timing noise of
shared hardware. Only benchmarks present in
BOTH files are compared, so adding a benchmark never breaks the gate
(it starts gating once the baseline is refreshed).

Two defenses keep the gate usable on shared/virtualized hardware,
where run-to-run swings of 10%+ are routine even for unchanged code:

- **Medians, not samples.** When a file carries repeated runs
  (``--benchmark_repetitions=N``), the per-benchmark median is
  compared; `/repeats:N` name decorations are stripped so repeated
  and single-run files compare against each other.
- **Drift correction.** The median throughput ratio across all
  shared benchmarks estimates machine-state drift (CPU steal,
  thermal state) between the two recordings. When the whole suite is
  uniformly slower, losses are measured against that drift rather
  than against the absolute baseline. Only slowdowns are corrected
  (the factor is clamped at 1.0), so a uniformly *faster* machine
  never hides a real regression. The corollary is acknowledged: a
  change that slows every gated path by the same factor is
  indistinguishable from machine state here and will not trip the
  gate -- per-path regressions, the common failure mode, still do.

Benchmark timings only compare within one machine: when the context
fingerprint (cpu count, nominal MHz, build type) differs from the
baseline's, the gate reports SKIP and exits 0 rather than comparing
apples to oranges. Refresh the baseline on the machine of record
with:

    bench/bench_micro_runtime --benchmark_repetitions=5 \
        --json-out bench/baselines/BENCH_micro_runtime.json
"""

import argparse
import json
import re
import statistics
import sys


# The hot paths under the gate: ring ops, MTL admission, end-to-end
# host dispatch, the wide-machine simulated dispatch path, and the
# sim kernel's primitives (event queue schedule+run, DRAM channel
# request stream). BM_SimDispatch64Contexts used to be excluded (too
# few iterations inside the smoke's time budget); it now runs a
# pinned iteration count, which makes its throughput stable enough
# to gate.
GATED_PATTERN = re.compile(
    r"HostDispatch|HostRuntimePairDispatch|MpmcQueue|ShardedGate"
    r"|SimDispatch|EventQueueScheduleRun|DramChannelStream",
    re.ASCII)

REPEATS_DECORATION = re.compile(r"/repeats:\d+", re.ASCII)


def fingerprint(context):
    """Stable machine identity for apples-to-apples comparison."""
    return (
        context.get("num_cpus"),
        context.get("mhz_per_cpu"),
        context.get("library_build_type"),
    )


def throughputs(doc):
    """name -> median items_per_second per gated benchmark.

    Repetition aggregates are preferred when present; otherwise the
    median over the individual runs sharing a (repeat-stripped) name
    -- which is the run itself for unrepeated files.
    """
    samples = {}
    medians = {}
    for bench in doc.get("benchmarks", []):
        rate = bench.get("items_per_second")
        name = REPEATS_DECORATION.sub(
            "", bench.get("run_name") or bench.get("name", ""))
        if not rate or not GATED_PATTERN.search(name):
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "median":
                medians[name] = float(rate)
        else:
            samples.setdefault(name, []).append(float(rate))
    out = {name: statistics.median(rates)
           for name, rates in samples.items()}
    out.update(medians)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--current", required=True,
                        help="freshly generated benchmark JSON")
    parser.add_argument("--baseline", required=True,
                        help="committed baseline benchmark JSON")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max allowed fractional loss beyond "
                             "machine drift (default 0.25)")
    args = parser.parse_args()

    with open(args.current, encoding="utf-8") as handle:
        current = json.load(handle)
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)

    base_fp = fingerprint(baseline.get("context", {}))
    cur_fp = fingerprint(current.get("context", {}))
    if base_fp != cur_fp:
        print(f"SKIP: machine fingerprint changed "
              f"(baseline {base_fp}, current {cur_fp}); "
              f"refresh the baseline to re-arm the gate")
        return 0

    base_rates = throughputs(baseline)
    cur_rates = throughputs(current)
    shared = sorted(set(base_rates) & set(cur_rates))
    if not shared:
        print("SKIP: no gated benchmarks shared with the baseline")
        return 0

    # Uniform machine drift between the recordings; <= 1.0 so a
    # faster machine today cannot mask a regression.
    drift = min(1.0, statistics.median(
        cur_rates[name] / base_rates[name] for name in shared))
    if drift < 1.0:
        print(f"note: machine drift {drift:.3f}x "
              f"(median ratio over {len(shared)} benchmarks); "
              f"losses measured against drifted baseline")

    failures = []
    for name in shared:
        base = base_rates[name] * drift
        cur = cur_rates[name]
        loss = (base - cur) / base
        status = "FAIL" if loss > args.threshold else "ok"
        print(f"{status:4s} {name:40s} "
              f"{base / 1e6:10.3f}M/s -> {cur / 1e6:10.3f}M/s "
              f"({-loss:+.1%})")
        if loss > args.threshold:
            failures.append(name)

    if failures:
        print(f"FAIL: {len(failures)} gated benchmark(s) regressed "
              f"more than {args.threshold:.0%}: {', '.join(failures)}")
        return 1
    print(f"ok: {len(shared)} gated benchmark(s) within "
          f"{args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
