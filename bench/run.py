"""grassconf benchmark: end-to-end metrics untraced, per-layer metrics from
a separate traced run.

    python3 bench/run.py --workload adjacency --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py; BENCHMARK.json says why each was chosen):

* adjacency -- one case is one verify.check_adjacency call over the 25
  stratum pairs of the adjacency acceptance grid: rank-only exact kernel on
  wide inputs, plus verify's Gaussian-integer projector.
* roundtrip -- one case is one single-case verify.run_roundtrip_suite,
  cycling gamma, pr, eta: many small full RREF, solve and invert calls.
* cli -- one case is one ``python -m grassconf`` command in a fresh
  interpreter: start-up and import dominate.

One benchmark process, one case at a time, closed loop, one client; at most
one child interpreter is alive at a time.

--trace 0 prints the end-to-end metrics.  It runs passes over the
workload's fixed list of cases until ``--seconds`` have passed and at
least MIN_PASSES passes are done; a case's latency is the fastest of its
runs, and the tail is the highest percentile with ten cases beyond it.

--trace 1 repeats a smaller fixed pass, alternating traced and untraced
passes, and prints the per-layer metrics of the fastest traced pass:
per-function calls and self time, per-layer self time, rref traffic,
scalar-operation counts, the CLI start-up probes, the tracing overhead
(fastest traced pass minus fastest untraced pass) and the share of the
traced wall time that no span covers.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A full result file, with the machine, the seeds and the sample
count behind every percentile, goes to bench/out/.  The script exits 2
without a result when the package source is not next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

import procs
import tracer as tracing
import workloads

TAIL_BEYOND = 10  # the tail is the highest percentile with this many cases beyond it
MIN_PASSES = 3
HARD_CAP_S = 120.0  # stop starting passes after this, whatever the counts
SETUP_PER_PASS = 1
PROBE_REPEATS = 5
MIN_TRACE_PAIRS = 2

NOT_OBSERVABLE = (
    "retry counts of verify's 64-step chart/pr loops and 80-step shrink loops, "
    "and coefficient growth inside them, run in private functions and cannot be "
    "seen from outside the package; they wait for verify to expose per-case stats"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_case(case) -> tuple[float, str | None]:
    """(latency in s, None or a failure description); checks run untimed."""
    start = time.perf_counter()
    try:
        output = case.run()
    except Exception as exc:  # a raising case is a failed case, not a crash
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    try:
        return latency, case.check(output)
    except Exception as exc:
        return latency, f"output check raised {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[dict] = []

    def add(self, case_id: str, desc: str | None) -> None:
        self.attempted += 1
        if desc is not None:
            self.failures.append({"case": case_id, "desc": desc})


def scaled(runs: list[tuple[float, float]]) -> float:
    """Median over runs of a time scaled by the reference job's nominal
    time over its time measured just before."""
    return statistics.median(t * procs.REFERENCE_NOMINAL_S / ref for t, ref in runs)


def timed_run(workload, args, tally: Tally) -> tuple[dict, dict]:
    """Passes over the workload's fixed case list until ``--seconds`` have
    passed and at least MIN_PASSES passes are done.

    Other tenants of a shared host slow everything down, by up to about
    half, for stretches of tens of seconds.  So a fixed reference job, a
    pure-Python Fraction sum, runs just before every case and every
    set-up, and each time is reported scaled by the reference's nominal
    time over its measured time: the figures are those of the host the
    benchmark was defined on.  The reference never touches the package,
    so a change to the package moves the figures as it moves the raw
    times; the result file keeps the raw times too."""
    cases = workload.cases()
    run_case(cases[0])  # warm the file cache and lazy imports
    runs: list[list[tuple[float, float]]] = [[] for _ in cases]
    failed = [False] * len(cases)
    setup: list[tuple[float, float]] = []
    start = time.perf_counter()
    passes = 0
    while True:
        for _ in range(SETUP_PER_PASS):
            ref = procs.reference_work()
            setup.append((procs.time_setup(workload.name, args.seed), ref))
        for idx, case in enumerate(cases):
            ref = procs.reference_work()
            latency, desc = run_case(case)
            tally.add(case.case_id, desc)
            runs[idx].append((latency, ref))
            failed[idx] = failed[idx] or desc is not None
        passes += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and passes >= MIN_PASSES) or elapsed >= HARD_CAP_S:
            break
    latencies = [scaled(case_runs) for case_runs in runs]
    # a failed case ranks behind every passed one, so failures raise the tail
    ranked = [latency for _, latency in sorted(zip(failed, latencies))]
    n = len(ranked)
    tail_idx = n - 1 - TAIL_BEYOND
    metrics = {
        "cases_per_s": ((n - sum(failed)) / sum(latencies), "1/s"),
        "case_p50_ms": (statistics.median(ranked) * 1e3, "ms"),
        "case_tail_ms": (ranked[tail_idx] * 1e3, "ms"),
        "passed_frac": (1 - len(tally.failures) / tally.attempted, "ratio"),
        "setup_s": (scaled(setup), "s"),
        "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
    }
    raw = sorted(statistics.median(latency for latency, _ in case_runs) for case_runs in runs)
    details = {
        "failed_frac": len(tally.failures) / tally.attempted,
        "passes": passes,
        "run_wall_s": time.perf_counter() - start,
        "host_reference": {
            "job": f"sum of Fraction(1, i) for i < {procs.REFERENCE_TERMS}",
            "nominal_s": procs.REFERENCE_NOMINAL_S,
            "case_reference_median_s": statistics.median(ref for r in runs for _, ref in r),
            "setup_reference_median_s": statistics.median(ref for _, ref in setup),
            "unscaled_case_p50_ms": statistics.median(raw) * 1e3,
            "unscaled_setup_s": statistics.median(t for t, _ in setup),
        },
        "samples": {
            "case latency": {
                "statistic": f"median of {passes} scaled runs of each case", "cases": n,
                "runs": tally.attempted,
            },
            "cases_per_s": {"statistic": "cases passed / sum of case latencies", "cases": n},
            "case_p50_ms": {"percentile": 50, "samples": n},
            "case_tail_ms": {
                "percentile": 100 * (tail_idx + 1) / n, "samples": n, "beyond": n - 1 - tail_idx,
            },
            "setup_s": {"statistic": "median of scaled set-ups", "samples": len(setup),
                        "values": [t for t, _ in setup], "references": [r for _, r in setup]},
        },
        "case_latency_ms": {case.case_id: t * 1e3 for case, t in zip(cases, latencies)},
    }
    return metrics, details


def traced_run(workload, args, tally: Tally) -> tuple[dict, dict]:
    probes = {
        "cli.interp_s": [procs.time_bare_interpreter() for _ in range(PROBE_REPEATS)],
        "cli.import_s": [procs.time_import() for _ in range(PROBE_REPEATS)],
        "cli.import.numpy_s": [procs.numpy_import_s() for _ in range(PROBE_REPEATS)],
    }
    tr = tracing.Tracer()
    cases = workload.trace_pass()
    run_case(cases[0])
    summaries: list[dict] = []
    untraced_walls: list[float] = []
    case_times: list[dict[str, float]] = []

    def one_pass() -> tuple[int, dict[str, float]]:
        times = {}
        start = time.perf_counter_ns()
        for case in cases:
            tr.case = case.case_id
            latency, desc = run_case(case)
            tally.add(case.case_id, desc)
            times[case.case_id] = latency
        tr.case = None
        return time.perf_counter_ns() - start, times

    start = time.perf_counter()
    pairs = 0
    while True:
        for traced in ((True, False) if pairs % 2 == 0 else (False, True)):
            if traced:
                with tr.installed():
                    wall, _ = one_pass()
                summaries.append(tr.end_pass(wall))
            else:
                wall, times = one_pass()
                untraced_walls.append(wall / 1e9)
                case_times.append(times)
        pairs += 1
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds and pairs >= MIN_TRACE_PAIRS) or elapsed >= HARD_CAP_S:
            break

    fastest = min(summaries, key=lambda summary: summary["wall_ns"])
    metrics = tracing.layer_metrics(fastest)
    for name, values in probes.items():
        metrics[name] = (statistics.median(values), "s")
    is_cli = workload.name == "cli"
    for label in workloads.CLI_COMMANDS:
        metrics[f"cli.main_s.{label}"] = (min(t[label] for t in case_times) if is_cli else 0.0, "s")
    metrics["cli.main_s"] = (min(sum(t.values()) for t in case_times) if is_cli else 0.0, "s")
    traced_wall = fastest["wall_ns"] / 1e9
    untraced_wall = min(untraced_walls)
    metrics["trace.pass_s"] = (untraced_wall, "s")
    metrics["trace.traced_pass_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    metrics["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
    metrics["trace.unexplained_share"] = (
        (fastest["wall_ns"] - fastest["root_ns"]) / fastest["wall_ns"], "ratio"
    )
    metrics["trace.passes"] = (len(summaries), "count")

    spans_path = procs.OUT_DIR / f"{workload.name}-seed{args.seed}-spans.jsonl"
    details = {
        "pass_cases": [c.case_id for c in cases],
        "counts_repeat_exactly": tracing.counts_repeat(summaries),
        "missing_functions": tr.missing,
        "spans_file": str(spans_path.relative_to(procs.ROOT)),
        "spans_written": tr.write_spans(spans_path),
        "samples": {
            "per_layer": {"statistic": "fastest traced pass", "samples": len(summaries)},
            "trace.pass_s": {"statistic": "fastest untraced pass", "samples": len(untraced_walls)},
            "cli.main_s": {"statistic": "fastest untraced run", "samples": len(case_times)},
            **{name: {"statistic": "median", "samples": len(v), "values": v} for name, v in probes.items()},
        },
        "wide_bits": tracing.WIDE_BITS,
    }
    return metrics, details


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((procs.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    package = procs.SRC / "grassconf"
    if not (package / "__init__.py").is_file():
        print(f"error: no package source at {package}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(procs.SRC))
    import grassconf

    if Path(grassconf.__file__).resolve().parent != package.resolve():
        print(f"error: grassconf was imported from {grassconf.__file__}, not {package}", file=sys.stderr)
        return 2
    os.chdir(procs.ROOT)  # child commands and the cli workload use checkout-relative paths
    procs.TMP_DIR.mkdir(parents=True, exist_ok=True)

    workload = workloads.make(args.workload, args.seed)
    workload.setup()
    tally = Tally()
    run = traced_run if args.trace else timed_run
    metrics, details = run(workload, args, tally)

    declared = declared_metrics(args.trace)
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"missing {sorted(set(declared) - set(got))}, extra {sorted(set(got) - set(declared))}, "
              f"units {sorted(n for n in got if n in declared and got[n] != declared[n])}",
              file=sys.stderr)
        return 3

    failed = len(tally.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": procs.environment(),
        "inputs": workload.describe(),
        "attempted": tally.attempted,
        "failed": failed,
        "failures": tally.failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "not_observable": NOT_OBSERVABLE,
        **details,
    }
    result_path = procs.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed {args.seed}: {tally.attempted} cases, {failed} failed "
          f"-> {result_path.relative_to(procs.ROOT)}")
    if not args.trace:
        print(f"  {'failed_frac':32} {details['failed_frac']:.6g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
