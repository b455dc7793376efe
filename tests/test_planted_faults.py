"""Planted faults: a cross-check that cannot fail shows nothing, so each test
here breaks one side of an independent pair with monkeypatch, runs the
subcommand through cli.main, and asserts that the broken side exits 1 with
its check false while the other side's report is the clean run's bytes."""

import json

from groupoid_card import cycle_stats
from groupoid_card.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def plant_counts_off_by_one(monkeypatch):
    """One more decorated permutation in every cycle-type count."""
    clean = cycle_stats.decorated_permutation_counts
    monkeypatch.setattr(
        cycle_stats, "decorated_permutation_counts", lambda n, ps: [count + 1 for count in clean(n, ps)]
    )


LEMMA = ["verify-lemma", "--n", "5", "--p", "1,0,0,0,0", "--method"]


def test_cycle_type_fault_fails_the_lemma_and_spares_brute_force(capsys, monkeypatch):
    clean_brute = run_cli(LEMMA + ["brute"], capsys)
    assert clean_brute[0] == 0
    assert run_cli(LEMMA + ["cycle-type"], capsys)[0] == 0

    plant_counts_off_by_one(monkeypatch)
    code, out, _ = run_cli(LEMMA + ["cycle-type"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert (payload["lhs"], payload["rhs"]) == ("121/120", "1/1")
    assert run_cli(LEMMA + ["brute"], capsys) == clean_brute


def test_cycle_type_fault_fails_stats(capsys, monkeypatch):
    assert run_cli(["stats", "--n", "5"], capsys)[0] == 0

    plant_counts_off_by_one(monkeypatch)
    code, out, _ = run_cli(["stats", "--n", "5"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["all_equal"] is False
    assert not any(row["equal"] for row in payload["per_k"])
