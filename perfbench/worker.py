"""One round of benchmark cases in a fresh interpreter.

Usage: python3 worker.py CASES_JSON [TRACE_JSON]

Prints "ready" once the CLI's parser is built (the parent times set-up up to
that line), then runs every case through ``groupoid_card.cli.main`` with
stdout captured and prints one JSON line with per-case timings, exit codes,
output digests and the calibration loop's time after each case. With
TRACE_JSON the round runs with spans and counters installed and writes them
there.
"""

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback

# Report fields that state a mathematical check; each must be true when present.
CLAIM_FIELDS = ("equal", "all_equal", "all_ok", "total_equal", "within_4se")
CALIBRATION_ITERATIONS = 60_000


def calibrate() -> float:
    """Time a fixed pure-Python loop (about 16 ms on a 2-core x86-64 host).

    On a shared host the speed of the same code drifts by tens of percent
    over seconds to minutes. The loop, timed next to each case, measures
    that drift so the parent can take it out of the round's times."""
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += (i * 2654435761) & 0xFFFF
        table[i & 1023] = total
    return time.perf_counter() - start


def claims_hold(text: str) -> bool:
    try:
        payload = json.loads(text)
    except ValueError:
        return False
    return isinstance(payload, dict) and all(payload[f] is True for f in CLAIM_FIELDS if f in payload)


def main(argv: list[str]) -> int:
    from groupoid_card import cli

    cli.build_parser()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    with open(argv[0], encoding="utf-8") as fh:
        cases = json.load(fh)
    tracer = None
    run_case = cli.main
    if len(argv) > 1:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        run_case = tracer.run_case
    results = []
    calibrations = [calibrate()]
    for index, case in enumerate(cases):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.case = index
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_case(case["argv"])
        except Exception:  # a crash is a failed case, not a failed round
            code = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        calibrations.append(calibrate())
        if tracer is not None:
            tracer.end_case()
        text = out.getvalue()
        results.append({
            "key": case["key"],
            "seconds": seconds,
            "exit": code,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "claims_hold": claims_hold(text),
            "stderr": err.getvalue()[-400:],
        })
    report = {"cases": results, "calibrations": calibrations, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        report["trace"] = tracer.summary()
        tracer.write(argv[1])
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
