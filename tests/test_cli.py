import argparse
import contextlib
import copy
import csv
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_card import categorified, cli, cycle_stats, functors, groupoids, permutations
from groupoid_card.categorified import categorified_rhs_skeleton
from groupoid_card.cli import main
from groupoid_card.functors import functor_from_json
from groupoid_card.permutations import DEFAULT_TYPE_TERM_CAP
from groupoid_card.groups import SymmetricGroup, make_cyclic, make_symmetric, to_cayley_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_lemma_single(capsys):
    code, out, _ = run_cli(["verify-lemma", "--n", "3", "--p", "0,1,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "verify-lemma"
    assert payload["lhs"] == "1/2"
    assert payload["rhs"] == "1/2"
    assert payload["equal"] is True


def test_verify_lemma_length_mismatch_exits_2(capsys):
    code, _, err = run_cli(["verify-lemma", "--n", "3", "--p", "1,1"], capsys)
    assert code == 2
    assert "length" in err


@pytest.mark.parametrize("argv, n, p", [
    (["verify-lemma", "--n", "2", "--p", "1"], 2, (1,)),
    (["verify-lemma", "--n", "2", "--p", "1,-1"], 2, (1, -1)),
    (["theorem-general", "--builtin", "cycle-tuples", "--n", "3", "--p", "1,1"], 3, (1, 1)),
    (["montecarlo", "--n", "3", "--p", "0,-1,0", "--samples", "10"], 3, (0, -1, 0)),
])
def test_pvector_refusal_is_the_librarys(capsys, argv, n, p):
    """--p is parsed into integers and checked by validate_pvector, so a
    p-vector of the wrong length or with a negative entry is refused with
    the library's message."""
    with pytest.raises(ValueError) as refusal:
        permutations.validate_pvector(n, p)
    assert run_cli(argv, capsys) == (2, "", f"error: {refusal.value}\n")


@pytest.mark.parametrize("argv, key, value", [
    (["verify-lemma"], "p", []),
    (["verify-categorified"], "p", []),
    (["theorem-general", "--builtin", "cycle-tuples"], "functor", "cycle-tuples(S0, p=[])"),
    (["montecarlo", "--samples", "10"], "p", []),
])
def test_empty_pvector_is_the_empty_vector(capsys, argv, key, value):
    """--p "" is the empty p-vector: at degree 0 it is checked, as --all-p
    checks it, and at degree 2 validate_pvector refuses its length."""
    code, out, err = run_cli([*argv, "--n", "0", "--p", ""], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)[key] == value
    assert run_cli([*argv, "--n", "2", "--p", ""], capsys) == (2, "", "error: p-vector has length 0, expected degree 2\n")


def test_empty_pvector_reports_as_the_degree_0_sweep(capsys):
    """At degree 0, --all-p checks one vector, the empty one, and its CSV
    row is the row of --p ""."""
    swept = run_cli(["verify-categorified", "--n", "0", "--all-p", "--format", "csv"], capsys)
    assert swept[0] == 0
    assert run_cli(["verify-categorified", "--n", "0", "--p", "", "--format", "csv"], capsys) == swept


def test_functor_file_nested_too_deeply_exits_2(tmp_path, capsys):
    """A functor file nested 100 000 deep stops the JSON parser with a
    RecursionError, which exits 2 with one line and no traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: functor file {str(path)!r} is nested too deeply to parse\n"


@pytest.mark.parametrize("argv, message", [
    (["verify-lemma", "--n", "2", "--p", "1,x"], "could not parse p-vector '1,x'; expected comma-separated integers"),
    (["montecarlo", "--n", "3", "--p-one", "k=x", "--samples", "10"], "--p-one expects \"k=<cycle length>\", got 'k=x'"),
    (["theorem-general", "--builtin", "fixed-points"], "--builtin fixed-points requires --n"),
    (["theorem-general", "--builtin", "cycle-tuples", "--n", "3"], "--builtin cycle-tuples requires --n and --p"),
])
def test_usage_refusals_exit_2_with_their_message(capsys, argv, message):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["--builtin", "fixed-points", "--n", "3", "--p", "garbage"], "--p applies only to --builtin cycle-tuples"),
    (["--builtin", "fixed-points", "--n", "3", "--p", "1,0,0"], "--p applies only to --builtin cycle-tuples"),
    (["--p", "1,0,0"], "--p applies only to --builtin cycle-tuples"),
    (["--functor", "FILE", "--builtin", "cycle-tuples", "--n", "7", "--p", "x"], "--builtin, --n, --p cannot be given with --functor"),
    (["--functor", "FILE", "--builtin", "fixed-points"], "--builtin cannot be given with --functor"),
    (["--functor", "FILE", "--n", "3"], "--n cannot be given with --functor"),
    (["--functor", "FILE", "--p", "1"], "--p cannot be given with --functor"),
])
def test_theorem_general_refuses_flags_it_would_ignore(tmp_path, capsys, argv, message):
    """A flag the chosen functor does not read exits 2 with a one-line
    message and no traceback, before any functor is read or built; the
    functor file here is valid on its own."""
    path = tmp_path / "functor.json"
    path.write_text(json.dumps({"group": "S1", "fibers": {"0": 1}, "transports": {"0": {"0": [0]}}}))
    assert run_cli(["theorem-general", "--functor", str(path)], capsys)[0] == 0
    argv = [str(path) if word == "FILE" else word for word in argv]
    assert run_cli(["theorem-general", *argv], capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("subcommand", ["verify-lemma", "verify-categorified"])
@pytest.mark.parametrize("extra, message", [
    (["--p", "garbage", "--all-p"], "--p and --all-p cannot both be given"),
    (["--p", "1,0,0", "--all-p"], "--p and --all-p cannot both be given"),
    (["--p", "1,0,0", "--max-entry", "7"], "--max-entry bounds only the --all-p sweep; give --all-p or drop --max-entry"),
    (["--p", "1,0,0", "--max-weight", "3"], "--max-weight bounds only the --all-p sweep; give --all-p or drop --max-weight"),
    (["--max-entry", "2"], "--max-entry bounds only the --all-p sweep; give --all-p or drop --max-entry"),
])
def test_contradictory_selections_exit_2(capsys, subcommand, extra, message):
    """--p is not read past --all-p, and a sweep bound is not dropped
    without one: each is refused before any vector is checked."""
    assert run_cli([subcommand, "--n", "3", *extra], capsys) == (2, "", f"error: {message}\n")


def test_max_entry_defaults_to_2_for_the_sweep_only(capsys):
    outs = [run_cli(["verify-lemma", "--n", "6", "--all-p", *bound], capsys) for bound in ([], ["--max-entry", "2"])]
    assert outs[0] == outs[1]
    assert outs[0][0] == 0
    assert json.loads(outs[0][1])["count"] == len(list(permutations.iter_pvectors(6, max_entry=2)))


@pytest.mark.parametrize("argv, message", [
    (["verify-lemma", "--n", "2", "--p", "1_0, 0"], "could not parse p-vector '1_0, 0'; expected comma-separated integers"),
    (["verify-lemma", "--n", "2", "--p", "1, 0"], "could not parse p-vector '1, 0'; expected comma-separated integers"),
    (["montecarlo", "--n", "3", "--p-one", "k=0_1", "--samples", "10"], "--p-one expects \"k=<cycle length>\", got 'k=0_1'"),
    (["montecarlo", "--n", "3", "--p-one", "k= 1", "--samples", "10"], "--p-one expects \"k=<cycle length>\", got 'k= 1'"),
])
def test_integers_outside_the_grammar_exit_2(capsys, argv, message):
    assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("flag, text", [("--n", "1_0"), ("--n", "\u0663"), ("--samples", "1_000"), ("--seed", " 5")])
def test_integer_flags_outside_the_grammar_exit_2(capsys, flag, text):
    flags = {"--n": "3", "--p-one": "k=1", "--samples": "10", "--seed": "0", flag: text}
    code, out, err = run_cli(["montecarlo", *[word for pair in flags.items() for word in pair]], capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"groupoid-card montecarlo: error: argument {flag}: invalid int value: {text!r}\n")


def _is_integer_text(text):
    """An optional sign and one or more ASCII digits, checked here without
    the library's reader."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    return digits != "" and all(c in "0123456789" for c in digits)


# Every integer each subcommand reads from its command line: the argv of an
# accepted run, with X where the integer goes.
_INTEGER_SLOTS = [
    [subcommand, *argv]
    for subcommand in ("verify-lemma", "verify-categorified")
    for argv in (["--n", "X", "--p", "1,0,0"], ["--n", "3", "--p", "1,X,0"],
                 ["--n", "3", "--all-p", "--max-entry", "X"], ["--n", "3", "--all-p", "--max-weight", "X"])
] + [
    ["skeleton", "--n", "X"],
    ["stats", "--n", "X"],
    ["montecarlo", "--n", "X", "--p-one", "k=1", "--samples", "10"],
    ["montecarlo", "--n", "3", "--p-one", "k=X", "--samples", "10"],
    ["montecarlo", "--n", "3", "--p", "1,X,0", "--samples", "10"],
    ["montecarlo", "--n", "3", "--p-one", "k=1", "--samples", "X"],
    ["montecarlo", "--n", "3", "--p-one", "k=1", "--samples", "10", "--seed", "X"],
    ["theorem-general", "--builtin", "fixed-points", "--n", "X"],
    ["theorem-general", "--builtin", "cycle-tuples", "--n", "X", "--p", "1,0,0"],
    ["theorem-general", "--builtin", "cycle-tuples", "--n", "3", "--p", "1,X,0"],
]
# Text near the grammar (digits with a blank, an underscore, a point or a
# non-ASCII digit), and any text at all.
_NOT_INTEGERS = st.one_of(
    st.text(alphabet="0123456789+-_ ,.ex\t\u0663\u00b2\uff11", max_size=6),
    st.text(max_size=6),
).filter(lambda text: not _is_integer_text(text))


def test_every_integer_slot_is_accepted_with_an_integer(capsys):
    for argv in _INTEGER_SLOTS:
        code, _, err = run_cli([word.replace("X", "3") for word in argv], capsys)
        assert (code, err) == (0, ""), argv


@given(st.sampled_from(_INTEGER_SLOTS), _NOT_INTEGERS)
def test_every_integer_outside_the_grammar_exits_2(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([word.replace("X", text) for word in argv])
    lines = err.getvalue().splitlines()
    assert (code, out.getvalue()) == (2, "")
    assert "Traceback" not in err.getvalue()
    assert [line for line in lines if "error: " in line] == lines[-1:]


def test_verify_lemma_sweep(capsys):
    code, out, _ = run_cli(["verify-lemma", "--n", "5", "--all-p", "--max-entry", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["count"] > 1
    assert payload["failures"] == []


def test_verify_lemma_sweep_walks_only_bounded_vectors(capsys):
    # Degree 16 has 3^16 vectors with entries at most 2, and 405 of weight at most 16.
    start = time.perf_counter()
    code, out, _ = run_cli(["verify-lemma", "--n", "16", "--all-p", "--method", "cycle-type"], capsys)
    assert time.perf_counter() - start < 10
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 405
    assert payload["all_equal"] is True


def test_verify_lemma_brute_at_the_enumeration_cap(capsys):
    cycle_stats.cycle_count_histogram.cache_clear()  # so degree 10 is enumerated here
    sweep = ["verify-lemma", "--n", "10", "--all-p"]
    code, out, _ = run_cli(sweep + ["--method", "brute"], capsys)
    assert code == 0
    assert json.loads(out)["all_equal"] is True
    rows = {}
    for method in ("brute", "cycle-type"):
        code, out, _ = run_cli(sweep + ["--method", method, "--format", "csv"], capsys)
        assert code == 0
        rows[method] = list(csv.DictReader(io.StringIO(out)))
    assert len(rows["brute"]) == len(rows["cycle-type"]) > 1
    for brute, by_type in zip(rows["brute"], rows["cycle-type"]):
        assert brute["equal"] == "True"
        assert (brute["p"], brute["lhs"]) == (by_type["p"], by_type["lhs"])
    code, out, err = run_cli(["verify-lemma", "--n", "11", "--all-p", "--method", "brute"], capsys)
    assert (code, out) == (2, "")
    assert "exceeds enumeration cap 10" in err


@pytest.mark.parametrize("subcommand", ["verify-lemma", "verify-categorified"])
@pytest.mark.parametrize("flag", ["--max-entry", "--max-weight"])
def test_negative_sweep_bound_exits_2(capsys, subcommand, flag):
    code, out, err = run_cli([subcommand, "--n", "3", "--all-p", flag, "-1"], capsys)
    assert code == 2
    assert out == ""
    assert f"{flag} must be nonnegative" in err
    assert "Traceback" not in err


def test_verify_lemma_cycle_type_method(capsys):
    code, out, _ = run_cli(["verify-lemma", "--n", "8", "--p", "0,0,0,1,0,0,0,0", "--method", "cycle-type"], capsys)
    assert code == 0
    assert json.loads(out)["lhs"] == "1/4"


def test_verify_lemma_requires_p_or_all_p(capsys):
    code, _, err = run_cli(["verify-lemma", "--n", "3"], capsys)
    assert code == 2
    assert "provide" in err


def test_verify_categorified_single(capsys):
    code, out, _ = run_cli(["verify-categorified", "--n", "4", "--p", "0,2,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["lhs_card"] == payload["rhs_card"] == "1/4"
    assert payload["bridge_check"] is True


def test_verify_categorified_sweep(capsys):
    code, out, _ = run_cli(["verify-categorified", "--n", "4", "--all-p"], capsys)
    assert code == 0
    assert json.loads(out)["all_ok"] is True


@pytest.mark.parametrize("fmt, digest", [
    ("csv", "81c087c38875324d934d0198976870708a9a18cfdb5ed11766773ac4fc033f79"),
    ("json", "23c6e6bca990bcf0925a0f14164d30035d9389ef56f21caf79dcd56c8dda6c18"),
])
def test_verify_categorified_sweep_bytes_are_pinned(capsys, fmt, digest):
    """The 22 p-vectors at n = 6, from one walk of S6, print the bytes the
    one-action-per-p-vector build printed; the CSV holds q_size, orbit_count
    and both cardinalities of every p-vector."""
    code, out, _ = run_cli(["verify-categorified", "--n", "6", "--all-p", "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def plant_one_more_count_with_a_fixed_point(monkeypatch):
    """One more decorated permutation in the cycle-type count of every
    p-vector that chooses a fixed point."""
    clean = cycle_stats.decorated_permutation_counts
    monkeypatch.setattr(cycle_stats, "decorated_permutation_counts",
                        lambda n, ps: [count + (p[0] > 0) for count, p in zip(clean(n, ps), ps)])


def plant_doubled_product_order_with_a_two_cycle(monkeypatch):
    """The first component's aut order doubled in the product skeleton of
    every p-vector that chooses a 2-cycle."""
    clean = categorified.categorified_rhs_skeleton

    def doubled(n, p):
        skeleton = clean(n, p)
        if not p[1]:
            return skeleton
        first, *rest = skeleton.components
        return groupoids.GroupoidSkeleton((dataclasses.replace(first, aut_order=2 * first.aut_order), *rest))

    monkeypatch.setattr(categorified, "categorified_rhs_skeleton", doubled)


def plant_target_one_higher(monkeypatch):
    """The closed form of every Monte Carlo statistic one too high."""
    clean = cycle_stats.cll_rhs
    monkeypatch.setattr(cycle_stats, "cll_rhs", lambda n, p: clean(n, p) + 1)


def _pinned(argv, digest, code=0, fault=None):
    return pytest.param(argv, digest, code, fault, id=argv + (f" [{fault.__name__}]" if fault else ""))


@pytest.mark.parametrize("argv, digest, code, fault", [
    _pinned(f"{case} --format {fmt}", digest, code, fault)
    for case, fault, code, digests in [
        ("verify-lemma --n 4 --p 1,1,0,0", None, 0, (
            "6faa456a620351e35720ffaff062002012f392fb2159ae99277d94a1cc384107",
            "5aae076aa32040a5dd0eb7b17a81d1f518a55ea87ca4cbe96a910e1ed8dece2d",
            "a72a2027efb6422725dffb03c30d3aa93f868d55cdfa11199ab431688bfc8c2c",
        )),
        ("verify-lemma --n 6 --p 2,0,1,0,0,0 --method cycle-type", None, 0, (
            "7215e919ba5361f976e9a950bf51701db87c08ed98b22fa127373fe234bbaea0",
            "f2a3f175c7ad1edd189fd6bd8a3597be18f8dbf1a9a725d98ec05408158a381a",
            "6fd63dd6e3d252dd5ea1ee01729066dc318baf36152c98c5977b878fff4eb95b",
        )),
        ("verify-lemma --n 4 --all-p", None, 0, (
            "beb0440332f4c56c9353c6e04dcc0991ab648c294930e8b3874a0f8947d91ada",
            "6d6f66e6dc6106a7e9ae1cec1c8d1c8e7d83fcd8da1fb55a8adff8aed5f0ae8c",
            "5fa67ac857fe1c8d144e041a1214aa8ba283d50218ea5e3e005a847336804ac7",
        )),
        ("verify-lemma --n 6 --all-p --method cycle-type", None, 0, (
            "ca588b6cb916a5d6ca075d4cec801adad59c243f4e14380b74c421be9b51c5ae",
            "7d6255be9c460d847d4ffaf2dc54c028d0081bf2b5d9a811a114ae369f969ef2",
            "d4c11f96b93abdce17fb2b0a876afad29d40e232e73751f2dcb41f9fe7cd8275",
        )),
        ("verify-categorified --n 4 --p 0,1,0,0", None, 0, (
            "c074bf391e1ba152f278ac1936dd2f4f7be0641d11a7da71458c1bca6914cae6",
            "49376f96b57d81301f77b02531b5e4281fdbdc24ce658e434217e1bef25493e4",
            "63fe1986a66074fa9f07827cb12551601ffd09c0916840e1f6d0fd32bba0f0ac",
        )),
        ("verify-categorified --n 4 --all-p", None, 0, (
            "83d3d23a028f546a81f09c6cf1de559a024bf7c816a052d413946311ace20247",
            "5f9d8efa4ee02c0aa7bf140c62f36b6a36cc5fee87088de69522d1ec2c3d5324",
            "ba6e42f23e118fa6663241129f46704f82e5603846203b3d72edc49fb5c27997",
        )),
        ("montecarlo --n 6 --p 1,1,0,0,0,0 --p-one k=3 --samples 200 --seed 5", None, 0, (
            "f5dc011af3a23b97356426b53ac6a35a531e38eb3f3763bbc5d7ed39bdbb2a2a",
            "a67c10a3fb6734bcafd1dbc80bbbd5067d2dbc2d5e0cf1f2592abd716ac99b90",
            "61161e6a909586d54c667252ff7007571256e7dd18ffae686173e684d03267f1",
        )),
        # c_3 (c_3 - 1) is 0 on S3: a zero standard error on target.
        ("montecarlo --n 3 --p 0,0,2 --p-one k=1 --samples 10", None, 0, (
            "08471e313cb402c5304effb8d738afe0eacb5574df93c0b2cc17a6ffc770e105",
            "f56131d5bb8e887884dbf27e8369881eb99ccd34e48de6f7b6ccfc79c5c1ee9a",
            "55439d66141987999789f78910570f5ab993a1763ad8c5f8b2f05828784e74e0",
        )),
        ("verify-lemma --n 4 --all-p --method cycle-type", plant_one_more_count_with_a_fixed_point, 1, (
            "4b3075c132e3785ca0f585a2ab9b37c08b4a7df483b726127b7c2cf420dcdcc6",
            "9a6bc1716c94d70da3b87243ae46e8e656bf69a601cc1707dbfa26a706984bbb",
            "26cf1ce8123617d6ec31877ccd899480d8ef40dd6caaa1f15f333804456da5de",
        )),
        ("verify-categorified --n 4 --all-p", plant_doubled_product_order_with_a_two_cycle, 1, (
            "56407e4aab4ebaa7a6cd089e9f4f6c70dfe811822839da28b2e1f075c5af635a",
            "a6114ce87e6def8b34de83d6f03ead8264771c31470414a7d8f8d99ae6058b61",
            "b4ac6a9354a059cd92749b8e3201a1f3c2c273b55328c60693b6f11e037ee40b",
        )),
        # A zero standard error off target: z reads inf in CSV and text, null in JSON.
        ("montecarlo --n 3 --p 0,0,2 --p-one k=1 --samples 10", plant_target_one_higher, 1, (
            "f4c9f3588ec789ee07552ae24513dbaa772d3b3f2e3bd07d3cfa98bd11a8917d",
            "f60072f89465486b7608fb0e20704756e0373fcf9401a70e6682849c74e6a949",
            "5ace9dcb709f6707ac16c7e1a65ffa997c42567f121145d9d66c16a51bdc9efd",
        )),
        ("theorem-general --builtin fixed-points --n 4", None, 0, (
            "5e883a3c15a29904665d759bd5c4fdad28497fd3e9214e999ab32dfe8ab16e77",
            "f786f0596cdc94059d7da9fa62dba1b823072365aa1e7e96619178327211e409",
            "8b3fc8cfde66393e6439d2dac50d8d33cc528a4b7fcb5826b8c0cd4b07783323",
        )),
        ("theorem-general --builtin cycle-tuples --n 4 --p 0,1,0,0", None, 0, (
            "7e560698a1434593cf87456df783b7f9ff4be3439173f4804248465c1246aab9",
            "352062345bab19a96ea1c14976d1546104b8e037cd59b479de9fce06aa208b76",
            "a20c6b8011df063291727af762c10ec38e625d77c53e68730339e244ada27d98",
        )),
        ("stats --n 6", None, 0, (
            "4f107bf9a9be26c220460f44f62b2eb3c37b07a4c53d46924f3413a147f2d87e",
            "bdfd0df5bf8b4696fdf05209e852a32a83155ec9f43c2eb163c863285c4dd1e3",
            "28d51ca551c266f15c97ed9a89d93ffebca60d7c5379a5cbe9069a68f3bdbb24",
        )),
    ]
    for fmt, digest in zip(("json", "csv", "text"), digests)
] + [
    _pinned("verify-lemma --n 0 --all-p --format csv", "bfedceb282bc35f201b3044f107db17e1dde12902518a0bf794f9a1febfede1d"),
    _pinned("skeleton --n -1 --format csv", "6a571283f36590059af7544c125c058081ccdb0b90bc7b973db3d880df63fe79"),
])
def test_every_report_shape_prints_its_pinned_bytes(capsys, monkeypatch, argv, digest, code, fault):
    """A single report, a sweep, a failing sweep and a list of Monte Carlo
    statistics print, in each format, the bytes that the writers of each
    subcommand printed before the subcommands shared one writer. A failing
    sweep lists only the p-vectors its planted fault moves. The
    theorem-general and stats cases pin the rows and lines of their own
    writers, which no other test runs."""
    if fault:
        fault(monkeypatch)
    result = run_cli(argv.split(), capsys)
    assert (hashlib.sha256(result[1].encode()).hexdigest(), result[0], result[2]) == (digest, code, "")


def test_verify_categorified_sweep_walks_the_group_once(capsys, walks):
    """--all-p makes one sweep call: S5 is walked once for its 15 p-vectors."""
    code, out, _ = run_cli(["verify-categorified", "--n", "5", "--all-p"], capsys)
    assert (code, json.loads(out)["count"]) == (0, 15)
    assert walks == [5]


def test_verify_categorified_cap_exceeded(capsys):
    code, _, err = run_cli(["verify-categorified", "--n", "12", "--p", ",".join(["0"] * 12)], capsys)
    assert code == 2
    assert "cap" in err


def test_skeleton_output(capsys):
    code, out, _ = run_cli(["skeleton", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["cardinality"] == "1/1"
    assert {(c["aut_order"], tuple(c["label"])) for c in payload["components"]} == {
        (6, (1, 1, 1)),
        (2, (2, 1)),
        (3, (3,)),
    }

    code, out, _ = run_cli(["skeleton", "--n", "0"], capsys)
    payload = json.loads(out)
    assert payload["cardinality"] == "1/1"
    assert len(payload["components"]) == 1

    code, out, _ = run_cli(["skeleton", "--n", "-1"], capsys)
    payload = json.loads(out)
    assert payload["components"] == []
    assert payload["cardinality"] == "0/1"


def test_skeleton_degree_cap_exits_2(capsys):
    code, out, err = run_cli(["skeleton", "--n", "41"], capsys)
    assert code == 2
    assert out == ""
    assert "partition cap 40" in err
    assert "Traceback" not in err


def test_no_subcommand_takes_max_n(capsys):
    """The enumeration cap has no override: --max-n is an unknown argument
    to every subcommand, a usage error with exit 2."""
    for argv in (["verify-lemma", "--n", "3", "--p", "0,1,0"], ["verify-categorified", "--n", "3", "--p", "0,1,0"],
                 ["skeleton", "--n", "5"], ["stats", "--n", "5"],
                 ["montecarlo", "--n", "5", "--p-one", "k=1", "--samples", "2"],
                 ["theorem-general", "--builtin", "fixed-points", "--n", "3"]):
        code, out, err = run_cli(argv + ["--max-n", "11"], capsys)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --max-n 11" in err
        assert "Traceback" not in err


def test_stats(capsys):
    code, out, _ = run_cli(["stats", "--n", "6"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["all_equal"] is True
    assert payload["per_k"][0]["expected"] == "1/1"
    assert payload["per_k"][1]["expected"] == "1/2"
    assert payload["harmonic"] == "49/20"

    code, _, err = run_cli(["stats", "--n", "0"], capsys)
    assert code == 2


def test_montecarlo_p_one(capsys):
    args = ["montecarlo", "--n", "40", "--p-one", "k=2", "--samples", "2000", "--seed", "42"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == "1/2"
    assert payload["within_4se"] is True
    assert payload["seed"] == 42

    code2, out2, _ = run_cli(args, capsys)
    assert out2 == out  # identical bytes for identical configuration


def test_montecarlo_n100_bytes_are_pinned(capsys):
    """A seeded report at n = 100, three statistics from one stream of 1 000
    shuffles, prints exactly these bytes."""
    def line(ones, rhs, estimate, standard_error, z):
        p = ", ".join("1" if k in ones else "0" for k in range(1, 101))
        return ('{"command": "montecarlo", "n": 100, "p": [' + p + '], "method": "monte_carlo", '
                f'"rhs": "{rhs}", "estimate": {estimate}, "standard_error": {standard_error}, '
                f'"samples": 1000, "seed": 20260810, "generator": "splitmix64", "target": "{rhs}", '
                f'"z": {z}, "within_4se": true}}\n')

    pair = ",".join(["1", "1"] + ["0"] * 98)
    args = ["montecarlo", "--n", "100", "--p-one", "k=1", "--p-one", "k=5", "--p", pair,
            "--samples", "1000", "--seed", "20260810"]
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert out == (line({1}, "1/1", "1.01", "0.031920509377497706", "0.3132782087446727")
                   + line({5}, "1/5", "0.199", "0.013913755517206437", "-0.07187132178392466")
                   + line({1, 2}, "1/2", "0.487", "0.03226254596078666", "-0.40294402108875077"))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_montecarlo_seed_outside_the_stream_states_exits_2(capsys, seed):
    """SplitMix64 has the states 0..2^64-1 and would read any other seed mod
    2^64, so a report naming -1 would sample the stream of 2^64-1, and one
    naming 2^64 that of 0: such a seed is refused before any sample."""
    args = ["montecarlo", "--n", "20", "--p-one", "k=1", "--samples", "50", "--seed", str(seed)]
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert f"seed must lie in 0..2^64-1, got {seed}" in err
    with pytest.raises(ValueError, match="seed must lie in"):
        cycle_stats.monte_carlo_moments(20, [(1,) + (0,) * 19], 50, seed)


@pytest.mark.parametrize("seed, estimate, standard_error, z", [
    (0, "1.1", "0.14069796859708722", "0.710742315593534"),
    (2**64 - 1, "0.8", "0.1178030178747903", "-1.6977493752543305"),
])
def test_montecarlo_seeds_at_the_ends_of_the_range_keep_their_bytes(capsys, seed, estimate, standard_error, z):
    args = ["montecarlo", "--n", "20", "--p-one", "k=1", "--samples", "50", "--seed", str(seed)]
    p = ", ".join(["1"] + ["0"] * 19)
    assert run_cli(args, capsys) == (0, (
        '{"command": "montecarlo", "n": 20, "p": [' + p + '], "method": "monte_carlo", '
        f'"rhs": "1/1", "estimate": {estimate}, "standard_error": {standard_error}, '
        f'"samples": 50, "seed": {seed}, "generator": "splitmix64", "target": "1/1", '
        f'"z": {z}, "within_4se": true}}\n'), "")


def test_montecarlo_rejects_bad_config(capsys):
    code, _, err = run_cli(["montecarlo", "--n", "10", "--p-one", "k=2", "--samples", "1"], capsys)
    assert code == 2
    code, _, err = run_cli(["montecarlo", "--n", "10", "--p-one", "q=2", "--samples", "10"], capsys)
    assert code == 2
    code, _, err = run_cli(["montecarlo", "--n", "10", "--samples", "10"], capsys)
    assert code == 2
    code, _, err = run_cli(["montecarlo", "--n", "10", "--p-one", "k=11", "--samples", "10"], capsys)
    assert code == 2


def test_theorem_general_builtins(capsys):
    code, out, _ = run_cli(["theorem-general", "--builtin", "fixed-points", "--n", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_size"] == "1/1"
    assert payload["elements_cardinality"] == "1/1"
    assert payload["equal"] is True

    code, out, _ = run_cli(["theorem-general", "--builtin", "cycle-tuples", "--n", "4", "--p", "0,2,0,0"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["expected_size"] == "1/4"
    assert payload["elements_cardinality"] == "1/4"


def test_theorem_general_functor_file(tmp_path, capsys):
    group_json = to_cayley_json(make_cyclic(2))
    good = {
        "group": group_json,
        "fibers": {"0": 1, "1": 1},
        "transports": {str(h): {str(g): [0] for g in range(2)} for h in range(2)},
    }
    path = tmp_path / "good.json"
    path.write_text(json.dumps(good))
    code, out, _ = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["equal"] is True


@pytest.mark.parametrize("h", ["0", "1"])
def test_functor_file_listing_a_point_on_an_empty_fiber_exits_2(tmp_path, capsys, h):
    """On Z2 with F(1) empty, a transport [5] listed out of F(1) is refused
    as it is read, under either h: no law check reads it."""
    data = {
        "group": to_cayley_json(make_cyclic(2)),
        "fibers": {"0": 1, "1": 0},
        "transports": {"0": {"0": [0]}, "1": {"0": [0]}},
    }
    data["transports"][h]["1"] = [5]
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert (code, out) == (2, "")
    assert f"transport for (h={h}, g=1) must be empty: the fiber at g=1 is empty" in err


def test_one_point_functor_file_keeps_no_conjugation_row_per_element(tmp_path, capsys):
    """An S7 functor file with one point, in F(e): its check reads every
    row, so it conjugates e by each of the 5 040 elements, and keeps no
    conjugation row. Keeping every row, 5 040 x 5 040 entries, peaked above
    200 MiB."""
    data = {
        "group": "S7",
        "fibers": {str(g): int(g == 0) for g in range(5040)},
        "transports": {str(h): {"0": [0]} for h in range(5040)},
    }
    path = tmp_path / "one-point.json"
    path.write_text(json.dumps(data))
    tracemalloc.start()
    try:
        code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert out == (
        '{"command": "theorem-general", "functor": "json-functor", "group": "S7", "group_order": 5040, '
        '"fiber_total": 1, "expected_size": "1/5040", "elements_cardinality": "1/5040", '
        '"outdegree_cardinality": "1/5040", "equal": true, '
        '"skeleton": {"components": [{"aut_order": 5040, "label": 0}]}, '
        '"orbits": [{"representative": 0, "size": 1, "stabilizer_order": 5040}]}\n'
    )
    assert peak <= 32 * 2**20


def test_misplaced_fiber_size_is_a_bijection_failure_within_the_row_compare_cap(tmp_path, capsys, monkeypatch):
    """An S7 functor file whose one point sits in F((0 1)), rank 720, with
    every transport out of it listed: the conjugates of the transposition
    have empty fibers, so the transport of the generator (0 1 2 3 4 5 6),
    rank 873, onto one is no bijection. The check names it, in the
    generator rows it reads before any other, with no more products than
    its cap formula counts reads for one orbit, (|G| + k) total + (k + 1)
    |G| = 5 042 + 3 * 5 040: 2 a row laid out and the spanning tree's k |G|.
    A scan of every conjugation for a moved fiber size made 1 231 202
    products and took about 0.74 s on a 2-core machine, where this check
    takes about 0.05 s; an S8 file took 34 s."""
    data = {
        "group": "S7",
        "fibers": {str(g): int(g == 720) for g in range(5040)},
        "transports": {str(h): {"720": [0]} for h in range(5040)},
    }
    path = tmp_path / "misplaced.json"
    path.write_text(json.dumps(data))
    group, products = make_symmetric(7), []
    mul = group.mul
    monkeypatch.setattr(group, "mul", lambda a, b: products.append((a, b)) or mul(a, b))
    start = time.perf_counter()
    code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err == ("error: functor validation failed (bijection law, witness (873, 720)): transport(873, 720) = (0,) "
                   "is not a bijection from a fiber of size 1 onto one of size 0\n")
    assert len(products) <= 5042 + 3 * 5040
    assert elapsed < 0.4


def coset_functor_file(n):
    """An S_n functor file with two points, in F(e), whose transport(h, e)
    swaps them exactly when h^-1(0) = n - 1: it respects composition for h
    in the stabilizer of 0 only."""
    images = SymmetricGroup(n).image_table()
    return {
        "group": f"S{n}",
        "fibers": {str(g): 2 * (g == 0) for g in range(len(images))},
        "transports": {str(h): {"0": [1, 0] if tau[n - 1] == 0 else [0, 1]} for h, tau in enumerate(images)},
    }


def test_coset_functor_file_fails_within_its_cap(tmp_path, capsys, monkeypatch):
    """The S7 coset file exits 2 with a law failure after at most 5 * 5 040
    products, and its check count lies within the cap formula for the one
    orbit its check reaches: |S| for the identity row, (|G| - 1) |S| along
    the tree, k |S| for the generator rows and (k + 1) |G| for the walk.
    The row compare that scanned every (g, h) pair after a failed
    generator compare made 3 648 964 products and reported 7 257 909
    checks."""
    data = coset_functor_file(7)
    path = tmp_path / "coset.json"
    path.write_text(json.dumps(data))
    group, products = make_symmetric(7), []
    mul = group.mul
    monkeypatch.setattr(group, "mul", lambda a, b: products.append((a, b)) or mul(a, b))
    code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: functor validation failed (") and " law, witness " in err
    assert len(products) <= 5 * 5040
    report = functors.validate_functor(functor_from_json(data))
    size, order, k = 2, 5040, 2
    assert not report.ok and report.checks <= size + (order - 1) * size + k * size + (k + 1) * order


def test_functor_file_keys_that_name_no_element_exit_2(tmp_path, capsys):
    """Keys that name no element of S2, "7" and "01" among the fibers, "9"
    under h = 1, and "5" and "x" among the transports, were ignored, and
    the file exited 0. Each is refused, the first one named, as they are
    taken out one at a time; the file without them passes."""
    data = {
        "group": "S2",
        "fibers": {"0": 1, "1": 1, "7": 1, "01": 1},
        "transports": {"0": {"0": [0], "1": [0]}, "1": {"0": [0], "1": [0], "9": [0]}, "5": {"0": [0]}, "x": 3},
    }
    strays = [
        (data["fibers"], "7", '"fibers" has the key \'7\''),
        (data["fibers"], "01", '"fibers" has the key \'01\''),
        (data["transports"]["1"], "9", '"transports" for h=1 has the key \'9\''),
        (data["transports"], "5", '"transports" has the key \'5\''),
        (data["transports"], "x", '"transports" has the key \'x\''),
    ]
    path = tmp_path / "strays.json"
    for mapping, key, named in strays:
        path.write_text(json.dumps(data))
        code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {named}, which names no element 0..1\n"
        del mapping[key]
    path.write_text(json.dumps(data))
    assert run_cli(["theorem-general", "--functor", str(path)], capsys)[0] == 0


def test_theorem_general_bad_functor_exits_2(tmp_path, capsys):
    group_json = to_cayley_json(make_cyclic(2))
    bad = {
        "group": group_json,
        "fibers": {"0": 3, "1": 3},
        # transport(1, 0) is a 3-cycle, so transport(1,0) o transport(1,0)
        # cannot equal transport(1*1, 0) = identity.
        "transports": {
            "0": {"0": [0, 1, 2], "1": [0, 1, 2]},
            "1": {"0": [1, 2, 0], "1": [0, 1, 2]},
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert code == 2
    # Z/2's one row besides e is its generator's, so the walk finds the break.
    assert "walk law" in err
    assert "witness" in err

    missing = tmp_path / "absent.json"
    code, _, err = run_cli(["theorem-general", "--functor", str(missing)], capsys)
    assert code == 2

    code, _, err = run_cli(["theorem-general"], capsys)
    assert code == 2


def test_law_check_above_the_check_cap_exits_2(tmp_path, capsys, monkeypatch):
    """Nothing is sampled: a law check that would read more than the check
    cap is refused with exit code 2, a message naming the cap, and no
    traceback. A JSON functor on the Cayley table of Z/4 (one greedy
    generator) with 2-point fibers is checked as its category of elements,
    which reads (|G| + k) total + (k + 1) |G| a orbit = 5 * 8 + 8 * 4 = 72
    values for its 4 orbits; the built-in Q-action
    of S4 on 6 points reads 2 * 6 + 3 * 24 = 84 for the walk check of its
    one orbit."""
    parity = {
        "group": to_cayley_json(make_cyclic(4)),
        "fibers": {str(g): 2 for g in range(4)},
        "transports": {str(h): {str(g): [1, 0] if h % 2 else [0, 1] for g in range(4)} for h in range(4)},
        "name": "parity-json",
    }
    path = tmp_path / "parity.json"
    path.write_text(json.dumps(parity))
    monkeypatch.setattr(groupoids, "DEFAULT_CHECK_CAP", 71)
    code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: law check of 'parity-json' needs 72 reads, above the check cap 71\n"
    code, out, err = run_cli(["verify-categorified", "--n", "4", "--p", "0,2,0,0"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: law check of 'S4 on Q[0, 2, 0, 0]' needs 84 reads, above the check cap 71\n"
    monkeypatch.setattr(groupoids, "DEFAULT_CHECK_CAP", 84)
    code, out, err = run_cli(["theorem-general", "--functor", str(path)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["equal"] is True
    code, _, err = run_cli(["verify-categorified", "--n", "4", "--p", "0,2,0,0"], capsys)
    assert (code, err) == (0, "")


def test_categorified_carrier_above_the_check_cap_is_refused_before_it_is_built(capsys, forbid, monkeypatch):
    """S9 on Q for p = 0 has 9! points and at least one orbit per cycle
    type, 30; its walk check would read 2 * 362 880 + 3 * 362 880 * 30 =
    33 384 960 values. The carrier is counted over
    cycle types and refused, with the refusal its check would give, before
    any permutation is enumerated or S9 is walked. A sweep is refused the
    same way, before its one walk, at its first p-vector over the cap."""
    refuse = forbid(permutations.enumerate_permutations, permutations.list_cycle_tuples, categorified._cycle_minima_walk)
    monkeypatch.setattr(SymmetricGroup, "images_at", refuse)
    expected = "error: law check of 'S9 on Q[0, 0, 0, 0, 0, 0, 0, 0, 0]' needs 33384960 reads, above the check cap 10000000\n"
    for argv in (["--p", "0,0,0,0,0,0,0,0,0"], ["--all-p"]):
        code, out, err = run_cli(["verify-categorified", "--n", "9", *argv], capsys)
        assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize("argv, name", [
    (["--builtin", "fixed-points", "--n", "9"], "fixed-points(S9)"),
    (["--builtin", "cycle-tuples", "--n", "9", "--p", "1,0,0,0,0,0,0,0,0"], "cycle-tuples(S9, p=[1, 0, 0, 0, 0, 0, 0, 0, 0])"),
], ids=["fixed-points", "cycle-tuples"])
def test_builtin_functor_above_the_check_cap_is_refused_before_it_is_built(capsys, forbid, monkeypatch, argv, name):
    """Both S9 functors have 9! fiber points in all, and at least one orbit
    per cycle type with a point to carry, one per partition of 8; their
    walk check would read 2 * 362 880 generator images and 3 * 362 880 for
    each of 22 orbits, 24 675 840 values. The
    total is known before any fiber is built, so the functor is refused
    first, with the refusal its check would give."""
    refuse = forbid(permutations.list_cycle_tuples)
    monkeypatch.setattr(SymmetricGroup, "images_at", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(["theorem-general", *argv], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: law check of {name!r} needs 24675840 reads, above the check cap 10000000\n"


def test_degree_ten_builds_no_element_table(capsys, monkeypatch):
    """S10 has 3 628 800 elements. An empty carrier, weight(p) > 10, is laid
    out and reported without the element tables; a carrier with points and
    both built-in functors are refused by the check cap before they are
    built, so no CLI route at degree 10 but a functor file reads a table."""
    tables = SymmetricGroup._tables

    def refuse_at_ten(group):
        assert group.n != 10, "the S10 element tables were built"
        return tables(group)

    monkeypatch.setattr(SymmetricGroup, "_tables", refuse_at_ten)
    code, out, err = run_cli(["verify-categorified", "--n", "10", "--p", "0,0,0,0,0,0,0,0,0,2"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["lhs_skeleton"] == payload["rhs_skeleton"] == {"components": []}
    assert (payload["q_size"], payload["lhs_card"], payload["bridge_check"]) == (0, "0/1", True)
    refusals = [
        (["verify-categorified", "--n", "10", "--p", "0,0,0,0,0,0,0,0,0,1"], "'S10 on Q[0, 0, 0, 0, 0, 0, 0, 0, 0, 1]' needs 11612160"),
        (["theorem-general", "--builtin", "fixed-points", "--n", "10"], "'fixed-points(S10)' needs 333849600"),
        (["theorem-general", "--builtin", "cycle-tuples", "--n", "10", "--p", "0,0,0,0,0,0,0,0,0,1"],
         "'cycle-tuples(S10, p=[0, 0, 0, 0, 0, 0, 0, 0, 0, 1])' needs 11612160"),
    ]
    for argv, needs in refusals:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: law check of {needs} reads, above the check cap 10000000\n"


def test_empty_carrier_at_degree_ten_keeps_no_row_per_element(capsys):
    """The walk check of an empty carrier reads no row and no spanning tree:
    no list of 3 628 800 placeholders (about 29 MB) is kept."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(["verify-categorified", "--n", "10", "--p", "0,0,0,0,0,0,0,0,0,2"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert json.loads(out)["q_size"] == 0
    assert peak < 4_000_000


def _address_space_limit():
    """Run in the child before exec: a sweep that lists its p-vectors before
    it reads its degree cap fails its allocation instead of filling memory."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv, cap", [
    (["verify-lemma", "--n", "50", "--all-p", "--method", "cycle-type"], "partition cap 40"),
    (["verify-lemma", "--n", "100", "--all-p", "--method", "cycle-type"], "partition cap 40"),
    (["verify-lemma", "--n", "100", "--all-p", "--method", "brute"], "enumeration cap 10"),
    (["verify-categorified", "--n", "100", "--all-p"], "enumeration cap 10"),
])
def test_sweep_above_its_degree_cap_is_refused_before_listing(argv, cap):
    """A sweep reads its degree cap before it lists a p-vector: degree 50
    has 177 177 vectors within the default bounds, and degree 100 has
    66 987 338, each of length n."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "groupoid_card", *argv], capture_output=True, text=True,
                            timeout=60, preexec_fn=_address_space_limit)
    assert time.perf_counter() - start < 2
    n = argv[2]
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: degree {n} exceeds {cap}\n")


def test_empty_carrier_skips_the_walk_and_the_spanning_tree(capsys, forbid, monkeypatch):
    """weight(p) = 18 > 9: the carrier is empty, so S9 is not walked and no
    orbit is traced along its spanning tree."""
    refuse = forbid(categorified._cycle_minima_walk)
    monkeypatch.setattr(SymmetricGroup, "spanning_tree", refuse)
    code, out, err = run_cli(["verify-categorified", "--n", "9", "--p", "0,0,0,0,0,0,0,0,2"], capsys)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert (payload["q_size"], payload["orbit_count"], payload["equivalent"]) == (0, 0, True)
    assert payload["lhs_card"] == payload["rhs_card"] == "0/1"


def test_empty_functor_file_stores_no_transport():
    """An S6 functor file with every fiber empty lists no transport, and
    none is stored: the traced peak of the command stays under 4 MB (each
    of the 720 * 720 pairs stored as () took it above 60 MB)."""
    data = {"group": "S6", "fibers": {str(g): 0 for g in range(720)}, "transports": {}}
    tracemalloc.start()
    try:
        code, out, err = _run_functor_file(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 4_000_000
    assert out == (
        '{"command": "theorem-general", "functor": "json-functor", "group": "S6", "group_order": 720, '
        '"fiber_total": 0, "expected_size": "0/1", "elements_cardinality": "0/1", "outdegree_cardinality": "0/1", '
        '"equal": true, "skeleton": {"components": []}, "orbits": []}\n'
    )


def test_cycle_type_sweep_above_the_type_term_cap_exits_2():
    """Degree 40 with entries up to 3 has 75 341 p-vectors, which read
    4 857 052 type terms: the sweep is refused before any sum, with exit
    code 2, a message naming the cap, and no traceback."""
    args = [sys.executable, "-m", "groupoid_card", "verify-lemma", "--n", "40", "--all-p", "--max-entry", "3", "--method", "cycle-type"]
    start = time.perf_counter()
    result = subprocess.run(args, capture_output=True, text=True, timeout=120)
    assert time.perf_counter() - start < 30
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: 75341 p-vectors at degree 40 read 4857052 cycle-type terms, above the type-term cap {DEFAULT_TYPE_TERM_CAP}\n"
    )


def test_unbounded_weight_type_term_refusal_counts_only_weights_up_to_n():
    """With --max-weight at or above max_entry * n(n+1)/2 the weight bound
    does not bind: the sweep is every one of the 1001^40 vectors, and only
    weights up to 40 read type terms, so the refusal comes at once (counting
    every weight up to 820 000 took 5 s and 148 MB) with the same message."""
    args = ["verify-lemma", "--n", "40", "--all-p", "--method", "cycle-type", "--max-entry", "1000", "--max-weight", "10000000"]
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "groupoid_card", *args], capture_output=True, text=True,
                            timeout=60, preexec_fn=_address_space_limit)
    assert time.perf_counter() - start < 2
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: {1001 ** 40} p-vectors at degree 40 read 9035539 cycle-type terms, "
        f"above the type-term cap {DEFAULT_TYPE_TERM_CAP}\n"
    )


def test_cycle_type_sweep_above_the_type_term_cap_lists_no_pvector(capsys, forbid, monkeypatch):
    """The type-term refusal is counted from the vectors of each weight: no
    p-vector is listed or validated and no table is walked. The default
    --max-entry is not refused by it, and the brute method keeps its own
    refusal."""
    from groupoid_card import cli

    def unlisted(*args, **kwargs):
        raise AssertionError("the sweep was listed")
        yield

    monkeypatch.setattr(cli, "iter_pvectors", unlisted)
    forbid(permutations.validate_pvector, permutations.cycle_type_table, permutations.partition_walk)
    code, out, err = run_cli(["verify-lemma", "--n", "40", "--all-p", "--max-entry", "3", "--method", "cycle-type"], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: 75341 p-vectors at degree 40 read 4857052 cycle-type terms, above the type-term cap {DEFAULT_TYPE_TERM_CAP}\n"
    with pytest.raises(AssertionError, match="listed"):
        main(["verify-lemma", "--n", "40", "--all-p", "--method", "cycle-type"])
    code, out, err = run_cli(["verify-lemma", "--n", "40", "--all-p", "--max-entry", "3", "--method", "brute"], capsys)
    assert (code, out, err) == (2, "", "error: degree 40 exceeds enumeration cap 10\n")


HUGE_SWEEP = ["--n", "10", "--all-p", "--max-entry", "1000", "--max-weight", "1000"]


def test_sweep_above_the_sweep_cap_exits_2():
    """Degree 10 with entries and weight up to 1 000 spans 99 956 279 219 002 873
    p-vectors: the sweep is refused at once, with exit code 2, one line
    naming the cap, and no traceback."""
    start = time.perf_counter()
    result = subprocess.run([sys.executable, "-m", "groupoid_card", "verify-lemma", *HUGE_SWEEP],
                            capture_output=True, text=True, timeout=60, preexec_fn=_address_space_limit)
    assert time.perf_counter() - start < 2
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: the sweep lists at least ") and result.stderr.count("\n") == 1
    assert result.stderr.endswith(f" p-vectors at degree 10, above the sweep cap {permutations.DEFAULT_SWEEP_CAP}\n")


@pytest.mark.parametrize("argv", [
    ["verify-lemma", *HUGE_SWEEP],
    ["verify-lemma", *HUGE_SWEEP, "--method", "cycle-type"],
    ["verify-categorified", *HUGE_SWEEP],
])
def test_sweep_above_the_sweep_cap_lists_no_pvector(capsys, forbid, monkeypatch, argv):
    """The command asks iter_pvectors for the sweep, which refuses it at its
    first step: no vector is yielded and none is validated."""
    from groupoid_card import cli

    sweep, asked, yielded = cli.iter_pvectors, [], []

    def watched(*args, **kwargs):
        asked.append(args)
        for p in sweep(*args, **kwargs):
            yielded.append(p)
            yield p

    monkeypatch.setattr(cli, "iter_pvectors", watched)
    forbid(permutations.validate_pvector)
    code, out, err = run_cli(argv, capsys)
    assert (code, out, asked, yielded) == (2, "", [(10,)], [])
    assert err.startswith("error: the sweep lists at least ") and err.endswith(f"above the sweep cap {permutations.DEFAULT_SWEEP_CAP}\n")


def test_sweep_cap_counts_exactly_and_is_read_at_call_time(capsys, monkeypatch):
    """One vector over the cap refuses a sweep, with its exact count; at the
    cap it runs. The largest default sweep the degree caps let run,
    degree 40, is not refused, and a degree cap still refuses first."""
    count = sum(permutations.pvector_weight_counts(4))
    monkeypatch.setattr(permutations, "DEFAULT_SWEEP_CAP", count - 1)
    for argv in (["verify-lemma", "--n", "4", "--all-p"], ["verify-categorified", "--n", "4", "--all-p"]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"error: the sweep lists at least {count} p-vectors at degree 4, above the sweep cap {count - 1}\n")
    monkeypatch.setattr(permutations, "DEFAULT_SWEEP_CAP", count)
    code, out, err = run_cli(["verify-lemma", "--n", "4", "--all-p"], capsys)
    assert (code, err, json.loads(out)["count"]) == (0, "", count)
    monkeypatch.undo()
    assert sum(permutations.pvector_weight_counts(40)) == 39636
    assert permutations.sweep_size(40) == (39636, True) and 39636 <= permutations.DEFAULT_SWEEP_CAP
    code, out, err = run_cli(["verify-lemma", "--n", "50", "--all-p", "--max-entry", "1000", "--max-weight", "1000", "--method", "cycle-type"], capsys)
    assert (code, out, err) == (2, "", "error: degree 50 exceeds partition cap 40\n")


def recursive_label_json(label):
    if isinstance(label, tuple):
        return [recursive_label_json(x) for x in label]
    return label


@pytest.mark.parametrize("n", [-1, *range(13), 20, 30, 40])
def test_skeleton_json_labels_equal_the_recursive_route(capsys, n):
    """The skeleton command prints, in every format, the bytes built here
    from perm_groupoid_skeleton(n), the route its label texts bypass."""
    skeleton = groupoids.perm_groupoid_skeleton(n)
    card = "1/1" if n >= 0 else "0/1"
    code, out, _ = run_cli(["skeleton", "--n", str(n)], capsys)
    assert code == 0
    expected = [
        {"aut_order": c.aut_order, "label": recursive_label_json(c.label)}
        for c in skeleton.components
    ]
    assert json.loads(out)["components"] == expected
    assert out == json.dumps({"command": "skeleton", "n": n, "components": expected, "cardinality": card}) + "\n"

    buf = io.StringIO()
    if skeleton.components:
        writer = csv.DictWriter(buf, fieldnames=["n", "aut_order", "label"])
        writer.writeheader()
        writer.writerows({"n": n, "aut_order": c.aut_order, "label": json.dumps(c.label)} for c in skeleton.components)
    else:
        # With no component the one row is the payload, its components the empty tuple.
        writer = csv.DictWriter(buf, fieldnames=["command", "n", "components", "cardinality"])
        writer.writeheader()
        writer.writerow({"command": "skeleton", "n": n, "components": skeleton.components, "cardinality": card})
    assert run_cli(["skeleton", "--n", str(n), "--format", "csv"], capsys) == (0, buf.getvalue(), "")

    text = f"degree {n}: {len(skeleton.components)} components, cardinality {card}\n" + "".join(
        f"  partition {list(c.label)}: aut order {c.aut_order}\n" for c in skeleton.components
    )
    assert run_cli(["skeleton", "--n", str(n), "--format", "text"], capsys) == (0, text, "")


@pytest.mark.parametrize("n", range(-1, 41))
def test_skeleton_csv_is_the_bytes_of_csv_writer(capsys, n):
    """The csv format writes the groups by join, quoting each label as
    csv.writer quotes it: every label but the one-part [n] ([] at degree 0),
    which holds no comma. With no component the payload is the one row."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    groups = groupoids.perm_skeleton_groups(n)
    if groups:
        writer.writerow(("n", "aut_order", "label"))
        for z, texts in groups:
            writer.writerows((n, z, f"[{text}]") for text in texts)
    else:
        writer.writerows([("command", "n", "components", "cardinality"), ("skeleton", n, (), "0/1")])
    assert run_cli(["skeleton", "--n", str(n), "--format", "csv"], capsys) == (0, buf.getvalue(), "")


def test_skeleton_peak_memory_stays_under_eight_times_its_output():
    """Degree 40 prints 37 338 components, about 2.7 MB of JSON. The command
    keeps one label text per component, in one list per aut order, and
    writes them a chunk at a time, with no component object, dict per
    component or whole-output string, so the traced peak of the whole
    command stays under 8 times its output (about 3.1 times; one row tuple
    per component read 3.7 times, and a dict per component above 10)."""
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["skeleton", "--n", "40"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 8 * len(out.getvalue())


def test_nested_labels_keep_the_recursive_route():
    rhs = categorified_rhs_skeleton(5, (1, 1, 0, 0, 0))
    assert rhs.to_json_dict()["components"] == [
        {"aut_order": c.aut_order, "label": recursive_label_json(c.label)} for c in rhs.components
    ]
    assert groupoids.label_to_json(((2, 1), ("Z/2", (3,)))) == [[2, 1], ["Z/2", [3]]]


def _base_functors():
    cayley = {
        "group": to_cayley_json(make_cyclic(2)),
        "fibers": {"0": 1, "1": 1},
        "transports": {str(h): {str(g): [0] for g in range(2)} for h in range(2)},
        "name": "trivial-z2",
    }
    symmetric = copy.deepcopy(cayley)
    symmetric["group"] = "S2"
    return [cayley, symmetric]


def _json_paths(node, path=()):
    """Every path below node (node included), skipping the free-form name."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "name":
                yield from _json_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_paths(value, path + (i,))


def _get(node, path):
    for step in path:
        node = node[step]
    return node


def _replaced(node, path, value):
    if not path:
        return value
    out = copy.deepcopy(node)
    _get(out, path[:-1])[path[-1]] = value
    return out


# Replacements of the wrong kind for each kind of JSON value in a functor file:
# none of them can leave a well-formed functor behind.
_WRONG_KIND = {
    int: [None, "1", 1.0, True, [0], {"0": 0}],
    str: [None, 5, [], {}, "", "S", "S99", "S-1", "Z2", "S100000000000000000000"],
    list: [None, 5, "0", {}, {"0": 0}],
    dict: [None, 5, "x", [], [[0]]],
}


@st.composite
def malformed_functor_json(draw):
    base = draw(st.sampled_from(_base_functors()))
    path = draw(st.sampled_from(list(_json_paths(base))))
    value = draw(st.sampled_from(_WRONG_KIND[type(_get(base, path))]))
    return _replaced(base, path, value)


def _run_functor_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "functor.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["theorem-general", "--functor", path])
    return code, out.getvalue(), err.getvalue()


def test_base_functor_files_are_valid():
    for data in _base_functors():
        code, out, _ = _run_functor_file(data)
        assert code == 0
        assert json.loads(out)["equal"] is True


@pytest.mark.parametrize(
    "path, value",
    [
        (("transports",), []),
        (("group", "table"), 5),
        (("transports", "1", "0"), 5),
        (("group",), "S99"),
        (("group",), {"order": 0, "table": []}),
        (("fibers",), []),
    ],
)
def test_reported_malformed_functor_files_exit_2(path, value):
    """Each file is refused with exit 2 and one line, the refusal
    functor_from_json gives the same data."""
    data = _replaced(_base_functors()[0], path, value)
    with pytest.raises(ValueError) as refusal:
        functor_from_json(data)
    code, out, err = _run_functor_file(data)
    assert (code, out, err) == (2, "", f"error: {refusal.value}\n")


@given(malformed_functor_json())
def test_malformed_functor_json_exits_2(data):
    code, out, err = _run_functor_file(data)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_environment_does_not_move_the_enumeration_cap(capsys, monkeypatch):
    """GROUPOID_CARD_MAX_N is not read: degree 11 is refused with the
    default cap's message, before its 11! permutations are walked."""
    monkeypatch.setenv("GROUPOID_CARD_MAX_N", "11")
    code, out, err = run_cli(["verify-lemma", "--n", "11", "--p", "1,1,0,0,0,0,0,0,0,0,0"], capsys)
    assert (code, out, err) == (2, "", "error: degree 11 exceeds enumeration cap 10\n")


def test_deeply_nested_functor_file_exits_2(tmp_path):
    """json.load raises RecursionError on deep nesting; that is malformed
    input, so exit 2 with one line, not exit 1 with a traceback."""
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000, encoding="utf-8")
    result = subprocess.run([sys.executable, "-m", "groupoid_card", "theorem-general", "--functor", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: functor file {str(path)!r} is nested too deeply to parse\n"
    assert "Traceback" not in result.stderr


def test_a_declared_fiber_of_a_billion_points_is_refused_within_512_mb(tmp_path):
    """A file of about 100 bytes declares a fiber of 10^9 points with
    one-entry transports. The check cap is read before any row is laid out,
    so the file exits 2 at the cap under a 512 MB address-space limit: its
    broken identity transport is never laid out as 10^9 marks, which took
    170 MB at 10^7 points. The limit is set in the child only."""
    path = tmp_path / "billion.json"
    path.write_text(json.dumps({"group": "S2", "fibers": {"0": 10**9, "1": 0},
                                "transports": {"0": {"0": [0]}, "1": {"0": [0]}}}))
    assert len(path.read_bytes()) < 200
    limit = 512 * 2**20
    result = subprocess.run([sys.executable, "-m", "groupoid_card", "theorem-general", "--functor", str(path)],
                            capture_output=True, text=True, timeout=60,
                            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == ("error: law check of 'json-functor' needs 3000000004 reads, "
                             f"above the check cap {groupoids.DEFAULT_CHECK_CAP}\n")


def test_stats_above_the_partition_cap_is_refused_before_its_unit_vectors_within_1_gib():
    """stats reads the partition cap before it lists its n unit vectors of
    length n: at degree 100 000 those are 10^10 entries, and listing them
    first exited 1 under a 1 GiB address-space limit. The limit is set in
    the child only."""
    limit = 2**30
    result = subprocess.run([sys.executable, "-m", "groupoid_card", "stats", "--n", "100000"],
                            capture_output=True, text=True, timeout=60,
                            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: degree 100000 exceeds partition cap {permutations.DEFAULT_PARTITION_CAP}\n"


@pytest.mark.parametrize("fibers, message", [
    ({}, "fiber size for element 0 is missing"),
    ({"0": "x"}, "fiber size for element 0 must be an integer, got 'x'"),
    ({"0": 1, "1": -1}, "fiber size for element 1 is negative"),
    ({"0": 1}, "fiber size for element 1 is missing"),
])
def test_short_s10_fibers_file_exits_2_with_its_first_defect(tmp_path, fibers, message):
    """An S10 file that lists fewer fiber sizes than its 10! elements is
    refused at its first defect without a list of 10! sizes; the file with
    no fibers, under 50 bytes, took 1.08 s and 45 MB when that list was
    built."""
    path = tmp_path / "s10.json"
    path.write_text(json.dumps({"group": "S10", "fibers": fibers, "transports": {}}))
    result = subprocess.run([sys.executable, "-m", "groupoid_card", "theorem-general", "--functor", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", f"error: {message}\n")


def test_montecarlo_degree_cap_exits_2(capsys):
    # Refused before the --p-one vector of length n is built.
    code, out, err = run_cli(["montecarlo", "--n", "1000000000", "--p-one", "k=1", "--samples", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "exceeds Monte Carlo cap 100000" in err
    code, _, err = run_cli(["montecarlo", "--n", "100001", "--p", "1", "--samples", "2"], capsys)
    assert code == 2
    assert "cap" in err


def test_montecarlo_infinite_z_is_null_in_json(capsys):
    # No 10-cycle shows in two samples, so the standard error is 0 off target.
    args = ["montecarlo", "--n", "10", "--p", "0,0,0,0,0,0,0,0,0,1", "--samples", "2", "--seed", "2"]
    code, out, _ = run_cli(args, capsys)
    assert code == 1

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    payload = json.loads(out, parse_constant=reject)
    assert payload["standard_error"] == 0.0
    assert payload["z"] is None
    assert payload["within_4se"] is False
    code, out, _ = run_cli(args + ["--format", "text"], capsys)
    assert code == 1
    assert "z = inf (OUTSIDE 4 standard errors)" in out
    code, out, _ = run_cli(args + ["--format", "csv"], capsys)
    assert code == 1
    assert out.splitlines()[1].endswith(",inf,False")


MC_STATISTICS = [["--p-one", "k=2"], ["--p", "1,1,0,0,0,0,0,0,0,0"], ["--p-one", "k=1"], ["--p-one", "k=2"]]


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_montecarlo_statistics_share_one_pass(capsys, fmt):
    common = ["montecarlo", "--n", "10", "--samples", "300", "--seed", "11", "--format", fmt]
    single = [run_cli(common + statistic, capsys) for statistic in MC_STATISTICS]
    code, out, _ = run_cli(common + [arg for statistic in MC_STATISTICS for arg in statistic], capsys)
    assert code == 0 and all(c == 0 for c, _, _ in single)
    if fmt == "csv":
        header = single[0][1].splitlines()[0]
        assert out.splitlines() == [header] + [o.splitlines()[1] for _, o, _ in single]
    else:
        assert out == "".join(o for _, o, _ in single)


@pytest.mark.parametrize("p, estimate", [("0,0,0", 1.0), ("0,0,2", 0.0)])
@pytest.mark.parametrize("samples", [10**23, 10**400], ids=["10^23", "10^400"])
def test_montecarlo_choosing_no_length_reads_any_sample_count_without_drawing(capsys, monkeypatch, p, estimate, samples):
    """A statistic that chooses no length (the empty product, or weight above
    n) reads 1 or 0 on every permutation: its tally is one key counted
    samples times, so no shuffle is drawn and a count above 2^63 - 1 exits 0
    with a zero standard error."""
    def no_draw(self, items, passes):
        raise AssertionError("a shuffle was drawn")
        yield

    monkeypatch.setattr(cycle_stats.SplitMix64, "shuffles", no_draw)
    code, out, err = run_cli(["montecarlo", "--n", "3", "--p", p, "--samples", str(samples)], capsys)
    payload = json.loads(out)
    assert (code, err) == (0, "")
    assert (payload["estimate"], payload["standard_error"], payload["samples"]) == (estimate, 0.0, samples)


def test_montecarlo_exits_1_if_any_statistic_is_outside(capsys):
    common = ["montecarlo", "--n", "10", "--samples", "2", "--seed", "2", "--p-one", "k=1"]
    assert run_cli(common, capsys)[0] == 0
    code, out, _ = run_cli(common + ["--p-one", "k=10"], capsys)
    assert code == 1
    assert [json.loads(line)["within_4se"] for line in out.splitlines()] == [True, False]


def test_text_and_csv_formats(capsys):
    code, out, _ = run_cli(["skeleton", "--n", "3", "--format", "text"], capsys)
    assert code == 0
    assert "cardinality 1/1" in out

    code, out, _ = run_cli(["verify-lemma", "--n", "4", "--all-p", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) > 2

    code, out, _ = run_cli(["montecarlo", "--n", "10", "--p-one", "k=1", "--samples", "50", "--seed", "1", "--format", "text"], capsys)
    assert code == 0
    assert "estimate" in out


def test_unknown_subcommand_exits_2(capsys):
    assert main(["no-such-command"]) == 2


def test_subprocess_entry_point_deterministic():
    args = [
        sys.executable,
        "-m",
        "groupoid_card",
        "montecarlo",
        "--n",
        "30",
        "--p-one",
        "k=3",
        "--samples",
        "500",
        "--seed",
        "7",
    ]
    first = subprocess.run(args, capture_output=True, timeout=120)
    second = subprocess.run(args, capture_output=True, timeout=120)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["target"] == "1/3"


# One process's run of main: a pass, a usage error, an unknown subcommand,
# --help, and the pass again.
MIXED_RUN = [
    ["verify-categorified", "--n", "4", "--p", "0,2,0,0"],
    ["stats", "--n", "three"],
    ["no-such-command"],
    ["--help"],
    ["verify-categorified", "--n", "4", "--p", "0,2,0,0"],
]


def test_main_builds_its_parser_once_per_process(capsys, monkeypatch):
    """The first call builds the parser and its six subcommand parsers; no
    later call, whatever its outcome, builds one."""
    cli.build_parser.cache_clear()
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(parser, *args, **kwargs):
        built.append(parser)
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    after = []
    for argv in MIXED_RUN:
        run_cli(argv, capsys)
        after.append(len(built))
    assert after == [7] * len(MIXED_RUN)


def test_main_in_one_process_prints_what_fresh_processes_print(capsys, monkeypatch):
    """Each call of the mixed run gives the exit code, stdout and stderr of
    its own python -m groupoid_card process (help wrapped at 80 columns in
    both)."""
    monkeypatch.setenv("COLUMNS", "80")
    codes = []
    for argv in MIXED_RUN:
        in_process = run_cli(argv, capsys)
        fresh = subprocess.run([sys.executable, "-m", "groupoid_card", *argv], capture_output=True, text=True, timeout=60)
        assert in_process == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(in_process[0])
    assert codes == [0, 2, 2, 0, 0]
