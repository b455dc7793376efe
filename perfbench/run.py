"""Benchmark of the groupoid-card CLI: one command, four workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --record   # re-record digests

Each round runs the workload's whole case list in a fresh single-threaded
interpreter (perfbench/worker.py), so lazy tables are paid as a CLI user
pays them. --seconds fixes the number of rounds; wall and set-up times are
medians over rounds, case latencies pool the cases of all rounds. With
--trace 0 the end-to-end metrics are printed; with --trace 1 untraced and
traced rounds alternate and the per-layer metrics of the traced rounds are
printed. The last stdout line is the JSON result. A case fails when it exits
nonzero, when its report states a failed check, when its stdout digest
differs from perfbench/reference.json, or when its traced replay prints
different bytes from its untraced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from worker import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
ROUND_TIMEOUT_S = 150
TAIL_BEYOND = 10
# Length of one untraced round, start-up and calibration included, on a busy
# 2-core x86-64 host. The number of rounds is --seconds divided by this, so it
# does not depend on how fast the commit under test is.
ROUND_SECONDS = {"mc-sampling": 4.0, "categorified-sweep": 8.0, "elements-theorem": 8.0, "exact-moments": 8.0}
# A traced run alternates untraced and traced rounds; tracing adds up to about 30%.
TRACED_PAIR_FACTOR = 2.4
# On a much slower host, start no round that would end past this multiple
# of --seconds (judged by the longest round so far), so a run stays bounded.
# Fewer rounds move case_tail_s to another case, so the limit is set well
# above a busy host's run length (about 1.5 times --seconds).
OVERRUN_LIMIT = 2.0
# Every reported time is in reference seconds: the measured time scaled by
# CALIBRATION_REF_S over the mean time of the calibration loop
# (worker.calibrate) in the same round. The constant is the loop's typical
# time on the 2-core x86-64 host the baseline was taken on, so reference and
# measured seconds agree there when the host is quiet.
CALIBRATION_REF_S = 0.016
# Units of the metrics whose name does not end in "_s" (seconds) and that are
# not counts.
UNITS = {
    "peak_rss_mb": "MB",
    "rng.ns_per_draw": "ns",
    "groupoids.checks_per_s": "1/s",
    "groupoids.validate_sampled": "frac",
    "functors.validate_sampled": "frac",
    "trace.overhead_frac": "frac",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


class RoundError(RuntimeError):
    """A worker did not start, crashed or timed out."""


def run_round(cases_file: Path, trace_file: Path | None = None) -> dict:
    """Run one worker and return its report plus the measured set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(cases_file)]
    if trace_file is not None:
        cmd.append(str(trace_file))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(cases_file.parent / "worker.stderr", "ab") as err:
        calibration = calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            out, _ = proc.communicate()
        finally:
            timer.cancel()
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise RoundError(f"worker exited with {proc.returncode}; see {err.name}")
    report = json.loads(out.splitlines()[-1])
    report["measured_setup_s"] = setup
    report["calibrations"] = [calibration] + report["calibrations"]
    # One factor per round: single loop timings jitter more than the drift
    # they track, their mean over the round does not.
    factor = report["factor"] = CALIBRATION_REF_S / statistics.mean(report["calibrations"])
    report["setup_s"] = setup * factor
    for case in report["cases"]:
        case["ref_s"] = case["seconds"] * factor
    report["wall_s"] = sum(case["ref_s"] for case in report["cases"])
    report["measured_wall_s"] = sum(case["seconds"] for case in report["cases"])
    return report


def case_failure(result: dict, reference: dict, plain_digests: dict | None = None) -> str | None:
    if result["exit"] != 0:
        return f"exit code {result['exit']}: {result['stderr'].strip()}"
    if not result["claims_hold"]:
        return "the report states a failed check"
    expected = reference.get(result["key"])
    if expected is not None and expected != result["sha256"]:
        return "stdout differs from the recorded reference digest"
    if plain_digests is not None and plain_digests.get(result["key"]) != result["sha256"]:
        return "traced replay printed different bytes from the untraced run"
    return None


def measure(workload: str, cases_file: Path, empty_file: Path, seconds: float, trace: bool, trace_dir: Path) -> dict:
    """Set-up probes, then a number of rounds fixed by --seconds and the
    workload's nominal round length, so every commit measures the same work."""
    nominal = ROUND_SECONDS[workload] * (TRACED_PAIR_FACTOR if trace else 1)
    planned = max(1, int(seconds // nominal))
    start = time.perf_counter()
    # The first start in a fresh checkout also compiles bytecode; it is not timed.
    probes = [run_round(empty_file) for _ in range(SETUP_PROBES + 1)][1:]
    plain, traced = [], []
    longest = 0.0
    while len(plain) < planned and time.perf_counter() - start + longest <= seconds * OVERRUN_LIMIT:
        unit_start = time.perf_counter()
        plain.append(run_round(cases_file))
        if trace:
            traced.append(run_round(cases_file, trace_dir / f"trace-{len(traced)}.json"))
        longest = max(longest, time.perf_counter() - unit_start)
    probes += plain + traced
    return {
        "setups": [r["setup_s"] for r in probes],
        "measured_setups": [r["measured_setup_s"] for r in probes],
        "plain": plain,
        "traced": traced,
        "planned": planned,
    }


def end_to_end(runs: dict) -> tuple[dict, list[str]]:
    plain = runs["plain"]
    times = sorted(case["ref_s"] for r in plain for case in r["cases"])
    # The tail is the highest percentile with TAIL_BEYOND case samples beyond
    # it when all planned rounds ran. If the overrun limit cut a round, the
    # same percentile is kept, so the tail stays on the same cases.
    planned_count = runs["planned"] * len(plain[0]["cases"])
    below = max(planned_count - TAIL_BEYOND, 1)
    rank = max(-(-below * len(times) // planned_count) - 1, 0)
    metrics = {
        "setup_s": statistics.median(runs["setups"]),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "case_p50_s": statistics.median(times),
        "case_tail_s": times[rank],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    notes = [
        f"rounds: {len(plain)} untraced, {len(plain[0]['cases'])} cases each; wall_s is the median round",
        f"case_p50_s and case_tail_s pool all {len(times)} case samples; case_tail_s is "
        f"p{100 * (rank + 1) / len(times):.1f}, with {len(times) - rank - 1} samples beyond it",
        f"setup_s: median of {len(runs['setups'])} fresh starts to parser ready",
        f"times are reference seconds; measured medians: wall {statistics.median(r['measured_wall_s'] for r in plain):.6g} s, "
        f"setup {statistics.median(runs['measured_setups']):.6g} s",
    ]
    return metrics, notes


def scaled(metrics: dict, factor: float) -> dict:
    """Convert a round's layer times to reference seconds."""
    power = {"s": 1, "ns": 1, "1/s": -1}
    return {name: value * factor ** power.get(unit_of(name), 0) for name, value in metrics.items()}


def per_layer(runs: dict) -> tuple[dict, list[str], list[str]]:
    from tracer import EXACT_COUNTS, layer_metrics

    rounds = [scaled(layer_metrics(r["trace"]), r["factor"]) for r in runs["traced"]]
    metrics = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    plain_wall = statistics.median(r["wall_s"] for r in runs["plain"])
    traced_wall = statistics.median(r["wall_s"] for r in runs["traced"])
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    unsteady = [name for name in EXACT_COUNTS if len({r[name] for r in rounds}) > 1]
    notes = [
        f"traced rounds: {len(rounds)}, untraced rounds: {len(runs['plain'])}; layer times are medians over traced rounds",
        f"wall: traced {traced_wall:.6g} s, untraced {plain_wall:.6g} s (reference seconds)",
        "cycle_stats.cycle_count_s is derived: cycle_stats.monte_carlo_s minus rng.shuffle_s",
        f"groupoids.validate_sampled base: {metrics['groupoids.validations']:g} validations; "
        f"functors.validate_sampled base: {metrics['functors.validations']:g} validations",
    ]
    if unsteady:
        notes.append(f"counts differ between traced rounds: {', '.join(unsteady)}")
    return metrics, notes, unsteady


def check_rounds(runs: dict, reference: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    plain_digests: dict = {}
    for r in runs["plain"]:
        for case in r["cases"]:
            plain_digests.setdefault(case["key"], case["sha256"])
    for kind, rounds, digests in (("untraced", runs["plain"], None), ("traced", runs["traced"], plain_digests)):
        for r in rounds:
            for case in r["cases"]:
                attempted += 1
                problem = case_failure(case, reference, digests)
                if problem is not None:
                    failed += 1
                    problems.append(f"{kind} {case['key']}: {problem}")
    return attempted, failed, problems


def record(workload: str, reference_path: Path, directory: Path) -> int:
    import workloads

    cases_file = directory / "universe.json"
    cases_file.write_text(json.dumps(workloads.write_case_files(workloads.universe(workload), directory)))
    report = run_round(cases_file)
    problems = [f"{c['key']}: {p}" for c in report["cases"] if (p := case_failure(c, {})) is not None]
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    reference = json.loads(reference_path.read_text()) if reference_path.exists() else {}
    reference[workload] = {c["key"]: c["sha256"] for c in report["cases"]}
    reference_path.write_text(json.dumps(dict(sorted(reference.items())), indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(report['cases'])} digests for {workload} in {reference_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--record", action="store_true", help="record the stdout digest of every case the workload can run")
    args = parser.parse_args(argv)

    if not (SRC / "groupoid_card" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'groupoid_card'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    directory = OUT / f"{args.workload}-seed{args.seed}"
    directory.mkdir(parents=True, exist_ok=True)
    if args.record:
        return record(args.workload, args.reference, directory)

    cases_file = directory / "cases.json"
    cases_file.write_text(json.dumps(workloads.write_case_files(workloads.cases(args.workload, args.seed), directory)))
    empty_file = directory / "empty.json"
    empty_file.write_text("[]")
    reference = json.loads(args.reference.read_text()).get(args.workload, {}) if args.reference.exists() else {}
    try:
        runs = measure(args.workload, cases_file, empty_file, args.seconds, bool(args.trace), directory)
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = check_rounds(runs, reference)
    unsteady: list[str] = []
    if args.trace:
        metrics, notes, unsteady = per_layer(runs)
    else:
        metrics, notes = end_to_end(runs)
    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    print(f"  failed_frac = {failed}/{attempted} = {failed / attempted:.6g} frac")
    result = {
        "correct": failed == 0 and not unsteady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
