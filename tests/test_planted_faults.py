"""Planted faults: a cross-check that cannot fail shows nothing, so each test
here breaks one side of an independent pair with monkeypatch, runs the
subcommand through cli.main, and asserts that the broken side exits 1 with
its check false while the other side's report is the clean run's bytes. A
fault in the rows of a built-in action is a defect of the program that its
law check catches, and exits 2 instead."""

import dataclasses
import json

from groupoid_card import categorified, cycle_stats, functors
from groupoid_card.cli import main
from groupoid_card.groupoids import GroupoidSkeleton
from test_cycle_stats import literal_monte_carlo


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


def plant_one_permutation_moved(monkeypatch):
    """One permutation moved in the brute histogram, from its last cycle-count
    vector (at n = 5 the identity's, five fixed points) to its first (the
    5-cycles', none): the total stays n!, the fixed points fall by 5."""
    clean = cycle_stats.cycle_count_histogram

    def moved(n):
        (first, a), *middle, (last, b) = clean(n)
        return ((first, a + 1), *middle, (last, b - 1))

    monkeypatch.setattr(cycle_stats, "cycle_count_histogram", moved)


def test_brute_fault_fails_the_lemma_and_spares_the_cycle_type_sum(capsys, monkeypatch):
    clean_type = run_cli(LEMMA + ["cycle-type"], capsys)
    assert clean_type[0] == 0
    assert run_cli(LEMMA + ["brute"], capsys)[0] == 0

    plant_one_permutation_moved(monkeypatch)
    code, out, _ = run_cli(LEMMA + ["brute"], capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert (payload["lhs"], payload["rhs"]) == ("23/24", "1/1")
    assert run_cli(LEMMA + ["cycle-type"], capsys) == clean_type


def plant_one_more_two_cycle(monkeypatch):
    """One more 2-cycle in every count of the package's cycle counter, as
    the Monte Carlo sampler reads it."""
    clean = cycle_stats.image_cycle_counts
    monkeypatch.setattr(cycle_stats, "image_cycle_counts",
                        lambda images: tuple(count + (k == 1) for k, count in enumerate(clean(images))))


MONTE_CARLO = ["montecarlo", "--p-one", "k=2", "--samples", "40", "--seed", "3", "--n"]


def test_cycle_counter_fault_fails_the_walk_route_and_spares_the_translate_route(capsys, monkeypatch):
    """The walk route (n = 257) has no counter of its own: a fault in
    image_cycle_counts moves its report off the literal oracle, which counts
    with cycle_decomposition, while the translate route (n = 100) reads no
    walk and keeps its report."""
    e2 = {n: tuple(int(k == 2) for k in range(1, n + 1)) for n in (100, 257)}
    clean_translate = run_cli(MONTE_CARLO + ["100"], capsys)
    assert clean_translate[0] == 0
    assert run_cli(MONTE_CARLO + ["257"], capsys)[0] == 0

    plant_one_more_two_cycle(monkeypatch)
    code, out, _ = run_cli(MONTE_CARLO + ["257"], capsys)
    assert code == 1
    assert json.loads(out)["within_4se"] is False
    assert cycle_stats.monte_carlo_moment(257, e2[257], 40, 3) != literal_monte_carlo(257, e2[257], 40, 3)
    assert run_cli(MONTE_CARLO + ["100"], capsys) == clean_translate
    assert cycle_stats.monte_carlo_moment(100, e2[100], 40, 3) == literal_monte_carlo(100, e2[100], 40, 3)


def plant_two_marks_on_one_offset(monkeypatch, pi, r):
    """M(pi, r) sends its second r-permutation where it sends its first, so
    a generator row that reads it is no permutation; the maps are built into
    an empty dict, which is dropped with the patch. Returns the list of the
    times the faulty map was read."""
    moved_ranks = categorified._moved_ranks
    reads = []

    def faulty(p, k):
        ranks = moved_ranks(p, k)
        if (p, k) == (pi, r):
            reads.append((p, k))
            ranks = list(ranks)
            ranks[1] = ranks[0]
        return ranks

    monkeypatch.setattr(categorified, "_MOVED", {})
    monkeypatch.setattr(categorified, "_moved_ranks", faulty)
    return reads


CATEGORIFIED_FIXED = ["verify-categorified", "--n", "4", "--p", "2,0,0,0"]


def test_a_non_injective_induced_map_is_an_invalid_action(capsys, monkeypatch):
    """S4's transposition of 0 and 1 swaps the first two of the identity's
    four fixed points, so its row reads M((1, 0, 2, 3), 2). Rows that come
    from the program's own formula and break the laws are a defect of the
    program, not a false claim: the command exits 2, not 1."""
    assert run_cli(CATEGORIFIED_FIXED, capsys)[0] == 0

    reads = plant_two_marks_on_one_offset(monkeypatch, (1, 0, 2, 3), 2)
    code, out, err = run_cli(CATEGORIFIED_FIXED, capsys)
    assert reads
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid action 'S4 on Q[2, 0, 0, 0]'")


def plant_doubled_stabilizer(monkeypatch, module):
    """The first orbit's stabilizer order doubled on its way into the
    quotient skeleton that module builds."""
    clean = module.skeleton_from_orbits

    def doubled(orbits):
        first, *rest = orbits
        return clean([dataclasses.replace(first, stabilizer_order=2 * first.stabilizer_order), *rest])

    monkeypatch.setattr(module, "skeleton_from_orbits", doubled)


CATEGORIFIED_TWO_CYCLE = ["verify-categorified", "--n", "4", "--p", "0,1,0,0"]


def test_quotient_skeleton_fault_fails_the_equivalence_and_spares_the_product(capsys, monkeypatch):
    code, out, _ = run_cli(CATEGORIFIED_TWO_CYCLE, capsys)
    assert code == 0
    clean = json.loads(out)

    plant_doubled_stabilizer(monkeypatch, categorified)
    code, out, _ = run_cli(CATEGORIFIED_TWO_CYCLE, capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert payload["lhs_card"] != clean["lhs_card"]
    for field in ("bridge_check", "rhs_card", "rhs_skeleton", "q_size"):
        assert payload[field] == clean[field]


def plant_doubled_product_order(monkeypatch):
    """The first component's aut order doubled in the product skeleton
    Perm_{n-|p|} x prod_k B(Z/k)^{p_k}."""
    clean = categorified.categorified_rhs_skeleton

    def doubled(n, p):
        first, *rest = clean(n, p).components
        return GroupoidSkeleton((dataclasses.replace(first, aut_order=2 * first.aut_order), *rest))

    monkeypatch.setattr(categorified, "categorified_rhs_skeleton", doubled)


def test_product_skeleton_fault_fails_the_equivalence_and_spares_the_quotient(capsys, monkeypatch):
    code, out, _ = run_cli(CATEGORIFIED_TWO_CYCLE, capsys)
    assert code == 0
    clean = json.loads(out)

    plant_doubled_product_order(monkeypatch)
    code, out, _ = run_cli(CATEGORIFIED_TWO_CYCLE, capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert payload["rhs_card"] != clean["rhs_card"]
    assert_fields_unchanged(payload, clean, ("lhs_skeleton", "lhs_card", "orbits", "q_size", "bridge_check"))


THEOREM = ["theorem-general", "--builtin", "cycle-tuples", "--n", "4", "--p", "0,1,0,0"]


def assert_fields_unchanged(payload, clean, fields):
    """Each field serializes to the clean run's bytes."""
    for field in fields:
        assert json.dumps(payload[field]) == json.dumps(clean[field]), field


def test_average_fiber_size_fault_fails_the_theorem_and_spares_the_quotient(capsys, monkeypatch):
    code, out, _ = run_cli(THEOREM, capsys)
    assert code == 0
    clean = json.loads(out)

    expected_size = functors.expected_size
    monkeypatch.setattr(functors, "expected_size", lambda functor: expected_size(functor) + 1)
    code, out, _ = run_cli(THEOREM, capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert (payload["expected_size"], clean["expected_size"]) == ("3/2", "1/2")
    assert_fields_unchanged(payload, clean, ("elements_cardinality", "outdegree_cardinality", "skeleton", "orbits"))


def test_elements_quotient_fault_fails_the_theorem_and_spares_the_average(capsys, monkeypatch):
    code, out, _ = run_cli(THEOREM, capsys)
    assert code == 0
    clean = json.loads(out)

    plant_doubled_stabilizer(monkeypatch, functors)
    code, out, _ = run_cli(THEOREM, capsys)
    assert code == 1
    payload = json.loads(out)
    assert payload["equal"] is False
    assert (payload["elements_cardinality"], clean["elements_cardinality"]) == ("3/8", "1/2")
    assert_fields_unchanged(payload, clean, ("expected_size", "fiber_total", "outdegree_cardinality", "orbits"))
