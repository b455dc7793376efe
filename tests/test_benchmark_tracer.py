"""The benchmark's tracer wraps package functions and methods by name, so a
renamed or deleted name breaks the traced benchmark run. This runs the
tracer on a case, in a fresh interpreter, as perfbench/worker.py does."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_CASE = """
import contextlib, io, json, sys
sys.path[:0] = sys.argv[1:3]
from groupoid_card import cli
from tracer import Tracer

argv = sys.argv[3:]
plain = io.StringIO()
with contextlib.redirect_stdout(plain):
    plain_code = cli.main(argv)
tracer = Tracer()
tracer.install()
traced = io.StringIO()
with contextlib.redirect_stdout(traced):
    code = tracer.run_case(argv)
tracer.end_case()
print(json.dumps({"codes": [plain_code, code], "same": plain.getvalue() == traced.getvalue(),
                  "spans": sorted(tracer.summary()["inclusive"])}))
"""


def traced_spans(*argv):
    """The names of the spans of one traced run of the CLI on argv, after
    checking that it exits 0 and prints what the untraced run prints.
    Install fails with AttributeError when a wrapped name is gone."""
    result = subprocess.run(
        [sys.executable, "-c", TRACED_CASE, str(ROOT / "src"), str(ROOT / "perfbench"), *argv],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0]
    assert report["same"] is True
    return report["spans"]


def test_tracer_installs_and_traces_a_builtin_theorem():
    """The functor's law check and the group layer's first-call spans."""
    spans = traced_spans("theorem-general", "--builtin", "fixed-points", "--n", "4")
    for span in ("cli.case", "functors.build", "functors.validate", "groups.conj_table", "groups.sym_tables"):
        assert span in spans, span


def test_tracer_traces_an_action_law_check():
    """The GroupAction.validate wrapper, which reads the cached report and
    its mode, and the orbit walk, which a functor's theorem skips."""
    spans = traced_spans("verify-categorified", "--n", "4", "--p", "0,1,0,0")
    for span in ("cli.case", "groupoids.validate", "groupoids.orbits"):
        assert span in spans, span
