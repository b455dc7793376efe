import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_card.permutations import (
    CapExceededError,
    CycleType,
    Permutation,
    all_cycle_types,
    canonical_cycle,
    cycle_counts,
    cycle_decomposition,
    cycle_type_table,
    enumerate_permutations,
    falling_power,
    image_cycle_counts,
    iter_pvectors,
    lex_rank,
    list_cycle_tuples,
    parse_integer,
    partition_walk,
    pvector_weight_counts,
    sweep_size,
    validate_pvector,
    weight,
)
from groupoid_card.categorified import verify_categorifieds
from groupoid_card import permutations
from groupoid_card.cycle_stats import METHOD_BRUTE, METHOD_CYCLE_TYPE, expected_product_brute, verify_cll, verify_clls
from groupoid_card.functors import functor_from_json, make_cycle_tuple_functor, make_fixed_point_functor
from decorated_permutations import build_Q, conjugate_permutation
from law_cases import enumeration_cap

perm_images = st.integers(0, 6).flatmap(lambda n: st.permutations(list(range(n))))


def compose_cycles(n, cycles):
    # Independent reconstruction: each cycle (a0 .. ak-1) sends ai to a(i+1).
    images = list(range(n))
    for cyc in cycles:
        for i, a in enumerate(cyc):
            images[a] = cyc[(i + 1) % len(cyc)]
    return Permutation(tuple(images))


def test_permutation_validates_images():
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    assert Permutation(()).degree == 0


def test_composition_applies_right_factor_first():
    s = Permutation((1, 0, 2))  # (01)
    t = Permutation((0, 2, 1))  # (12)
    assert (s * t).images == (1, 2, 0)
    assert (t * s).images == (2, 0, 1)
    with pytest.raises(ValueError):
        s * Permutation((0, 1))


def test_inverse():
    p = Permutation((2, 0, 1))
    assert (p * p.inverse()).images == (0, 1, 2)
    assert (p.inverse() * p).images == (0, 1, 2)


def test_cycle_decomposition_examples():
    assert cycle_decomposition(Permutation((0, 1, 2))) == [(0,), (1,), (2,)]
    assert cycle_decomposition(Permutation((1, 0, 2))) == [(0, 1), (2,)]
    assert cycle_decomposition(Permutation((1, 2, 0, 4, 3))) == [(0, 1, 2), (3, 4)]


def test_cycle_decomposition_is_canonical_and_covers():
    for sigma in enumerate_permutations(5):
        cycles = cycle_decomposition(sigma)
        flat = [a for cyc in cycles for a in cyc]
        assert sorted(flat) == list(range(5))
        for cyc in cycles:
            assert cyc[0] == min(cyc)
        assert [min(c) for c in cycles] == sorted(min(c) for c in cycles)


@pytest.mark.parametrize("n", range(7))
def test_decomposition_round_trip(n):
    for sigma in enumerate_permutations(n):
        assert compose_cycles(n, cycle_decomposition(sigma)) == sigma


def test_cycle_count_examples():
    assert cycle_counts(Permutation((0, 1, 2))) == (3, 0, 0)
    assert cycle_counts(Permutation((1, 0, 2))) == (1, 1, 0)
    assert cycle_counts(Permutation((1, 2, 3, 4, 0))) == (0, 0, 0, 0, 1)
    assert cycle_counts(Permutation(())) == ()


@given(perm_images)
def test_cycle_counts_sum_to_degree(images):
    sigma = Permutation(tuple(images))
    counts = cycle_counts(sigma)
    assert sum(k * c for k, c in enumerate(counts, start=1)) == sigma.degree


def large_degree_images():
    """Seeded permutations at the degrees the Monte Carlo walk route counts,
    and at 5 000 points the n-cycle, whose walk ends after its first cycle,
    and the identity, whose walk starts at every point."""
    rng = random.Random(20261020)
    for n in (257, 1000, 5000):
        images = list(range(n))
        rng.shuffle(images)
        yield images
    yield [*range(1, 5000), 0]
    yield list(range(5000))


@pytest.mark.parametrize("images", large_degree_images(), ids=["257", "1000", "5000", "5000-cycle", "identity"])
def test_image_cycle_counts_equal_cycle_decomposition_at_large_degrees(images):
    lengths = Counter(map(len, cycle_decomposition(Permutation(tuple(images)))))
    assert image_cycle_counts(images) == tuple(lengths[k] for k in range(1, len(images) + 1))


def test_cycle_type_examples():
    assert CycleType(cycle_counts(Permutation((0, 1, 2, 3)))).partition() == (1, 1, 1, 1)
    assert CycleType(cycle_counts(Permutation((1, 0, 3, 2)))).partition() == (2, 2)
    assert CycleType(cycle_counts(Permutation((1, 2, 0, 4, 3)))).partition() == (3, 2)
    with pytest.raises(ValueError, match=r"^negative multiplicity in \(1, -1\)$"):
        CycleType((1, -1))


def test_conjugation_examples():
    s = Permutation((1, 0, 2))  # (01)
    t = Permutation((0, 2, 1))  # (12)
    assert conjugate_permutation(s, Permutation.identity(3)) == s
    assert conjugate_permutation(s, t).images == (2, 1, 0)  # (02)
    with pytest.raises(ValueError):
        conjugate_permutation(s, Permutation((0, 1)))


@pytest.mark.parametrize("n", [4, 5])
def test_conjugation_preserves_cycle_type_exhaustively(n):
    perms = list(enumerate_permutations(n))
    for sigma in perms:
        for tau in perms:
            assert cycle_counts(conjugate_permutation(sigma, tau)) == cycle_counts(sigma)


def test_conjugation_matches_direct_composition():
    for sigma in enumerate_permutations(4):
        for tau in enumerate_permutations(4):
            assert conjugate_permutation(sigma, tau) == tau * sigma * tau.inverse()


def test_enumeration_order_and_count():
    assert [p.images for p in enumerate_permutations(0)] == [()]
    perms = [p.images for p in enumerate_permutations(3)]
    assert len(perms) == 6
    assert perms[0] == (0, 1, 2)
    assert perms[-1] == (2, 1, 0)
    assert perms == sorted(perms)
    five = list(enumerate_permutations(5))
    assert len(five) == len(set(five)) == 120


def test_enumeration_cap():
    with pytest.raises(CapExceededError):
        enumerate_permutations(11)
    with pytest.raises(ValueError, match="^degree must be nonnegative, got -1$"):
        enumerate_permutations(-1)
    with enumeration_cap(3), pytest.raises(CapExceededError):
        enumerate_permutations(4)
    with enumeration_cap(4):
        assert len(list(enumerate_permutations(4))) == 24


def test_every_enumeration_reads_the_cap_at_call_time():
    """Every entry point that enumerates S_n, or builds it from an "S<n>"
    file, reads permutations.DEFAULT_ENUMERATION_CAP when it is called: no
    default argument or imported name holds a copy of it."""
    s4_file = {"group": "S4", "fibers": {str(g): 0 for g in range(24)}, "transports": {}}
    builds = {
        "enumerate_permutations": lambda: len(list(enumerate_permutations(4))) == 24,
        "build_Q": lambda: len(build_Q(4, (1, 0, 0, 0))) == 24,
        "expected_product_brute": lambda: expected_product_brute(4, (1, 0, 0, 0)) == 1,
        "verify_clls": lambda: verify_clls(4, [(1, 0, 0, 0)], method=METHOD_BRUTE)[0].equal,
        "verify_categorifieds": lambda: verify_categorifieds(4, [(1, 0, 0, 0)])[0].ok,
        "make_fixed_point_functor": lambda: make_fixed_point_functor(4).total_size == 24,
        "make_cycle_tuple_functor": lambda: make_cycle_tuple_functor(4, (0, 1, 0, 0)).total_size == 12,
        "functor_from_json": lambda: functor_from_json(s4_file).group.order == 24,
    }
    for name, build in builds.items():
        message = "group S4" if name == "functor_from_json" else "degree 4"
        with enumeration_cap(3), pytest.raises(CapExceededError) as refusal:
            build()
        assert str(refusal.value) == f"{message} exceeds enumeration cap 3", name
        with enumeration_cap(4):
            assert build(), name


def test_lex_rank_round_trip():
    for n in range(6):
        for rank, sigma in enumerate(enumerate_permutations(n)):
            assert lex_rank(sigma.images) == rank


def test_falling_power():
    assert falling_power(5, 2) == 20
    assert falling_power(2, 3) == 0
    assert falling_power(7, 0) == 1
    assert falling_power(0, 0) == 1
    with pytest.raises(ValueError):
        falling_power(3, -1)


@given(st.integers(0, 40), st.integers(0, 12))
def test_falling_power_matches_factorial_quotient(x, p):
    if p <= x:
        assert falling_power(x, p) == math.factorial(x) // math.factorial(x - p)
    else:
        assert falling_power(x, p) == 0


def test_weight_examples():
    assert weight(()) == 0
    assert weight((0, 0, 0)) == 0
    assert weight((1, 1, 0)) == 3
    assert weight((2, 1, 0, 0)) == 4


def test_validate_pvector():
    assert validate_pvector(3, [1, 0, 2]) == (1, 0, 2)
    with pytest.raises(ValueError):
        validate_pvector(3, (1, 1))
    with pytest.raises(ValueError):
        validate_pvector(2, (-1, 0))


@pytest.mark.parametrize("text, value", [("0", 0), ("7", 7), ("-3", -3), ("+12", 12), ("007", 7)])
def test_parse_integer_reads_a_sign_and_ascii_digits(text, value):
    assert parse_integer(text) == value


@pytest.mark.parametrize("text", ["", "+", "-", "+-1", "1_0", " 1", "1 ", "1\n", "1.0", "1e3", "0x1", "\u0663", "\u00b2", "\uff11"])
def test_parse_integer_refuses_every_other_text(text):
    """Python's int() takes the underscore, the blanks and the non-ASCII
    digits here; parse_integer takes none of them."""
    with pytest.raises(ValueError) as refusal:
        parse_integer(text)
    assert str(refusal.value) == f"{text!r} is not an integer: expected an optional sign and ASCII digits"


def test_each_pvector_is_checked_once_per_call_chain(monkeypatch):
    """A checked p-vector passed down a call chain is not checked again:
    verify_clls reads the entries of each plain tuple once by either method
    and of no vector iter_pvectors yields, which comes checked, and the
    cycle-tuple functor reads its vector once for all its fibers. A checked
    vector is still refused at another degree."""
    read = []
    entries = permutations.integer_entries
    monkeypatch.setattr(permutations, "integer_entries", lambda values, what: read.append(what) or entries(values, what))
    ps = list(iter_pvectors(6))
    for method in (METHOD_BRUTE, METHOD_CYCLE_TYPE):
        for vectors, reads in ((ps, 0), ([tuple(p) for p in ps], len(ps))):
            read.clear()
            assert all(report.equal for report in verify_clls(6, vectors, method=method))
            assert read.count("p-vector") == reads
    read.clear()
    make_cycle_tuple_functor(5, (1, 1, 0, 0, 0))
    assert read.count("p-vector") == 1
    with pytest.raises(ValueError, match="p-vector has length 3, expected degree 4"):
        validate_pvector(4, validate_pvector(3, (1, 0, 0)))


def test_non_integral_entries_are_refused_not_truncated():
    """int() would read 0.5 as 0 and 1.9 as 1, so a p-vector or an image
    that is not an integer once passed for another; each is now refused,
    naming its entry. Integral values of other types are read as ints."""
    with pytest.raises(ValueError, match=r"p-vector\[0\] must be an integer, got 0.5"):
        validate_pvector(2, [0.5, 0])
    with pytest.raises(ValueError, match=r"p-vector\[0\] must be an integer, got 1.9"):
        verify_cll(3, [1.9, 0, 0])
    with pytest.raises(ValueError, match=r"images\[1\] must be an integer, got '0'"):
        Permutation((1, "0"))
    with pytest.raises(ValueError, match=r"images\[0\] must be an integer, got 1.5"):
        Permutation((1.5, 0))
    with pytest.raises(ValueError, match=r"multiplicities\[0\] must be an integer, got 1.5"):
        CycleType((1.5, 0))
    assert validate_pvector(2, [True, 0]) == (1, 0)
    assert Permutation((True, False)).images == (1, 0)
    assert CycleType((True, 0)).multiplicities == (1, 0)


def test_iter_pvectors():
    vecs = list(iter_pvectors(3, max_entry=2, max_weight=3))
    assert (0, 0, 0) in vecs and (0, 0, 1) in vecs and (1, 1, 0) in vecs
    assert all(weight(p) <= 3 for p in vecs)
    assert all(max(p) <= 2 for p in vecs)
    assert vecs == sorted(vecs)
    assert (2, 1, 0) not in vecs  # weight 4


def test_iter_pvectors_equals_the_filtered_box():
    """The bounded walk yields exactly the vectors of the full box of entries
    0..max_entry whose weight is within max_weight, in the same order;
    a negative bound yields nothing, at n = 0 too."""
    for n in range(8):
        for max_entry in range(-1, 4):
            for max_weight in (None, -1, 0, 1, n, n + 2):
                bound = n if max_weight is None else max_weight
                box = [p for p in itertools.product(range(max_entry + 1), repeat=n) if weight(p) <= bound]
                assert list(iter_pvectors(n, max_entry=max_entry, max_weight=max_weight)) == box
    with pytest.raises(ValueError):
        list(iter_pvectors(-1))


def test_pvector_weight_counts_equal_the_listed_vectors():
    """The counts by weight equal those of the listed vectors on a grid with
    entries bounded by 0 (and -1), and with weight bounds above n."""
    for n in range(9):
        for max_entry in range(-1, 4):
            for max_weight in (None, -1, 0, 1, n, n + 2, 3 * n + 5):
                listed = Counter(weight(p) for p in iter_pvectors(n, max_entry=max_entry, max_weight=max_weight))
                counts = pvector_weight_counts(n, max_entry=max_entry, max_weight=max_weight)
                assert {w: c for w, c in enumerate(counts) if c} == listed
                assert sum(counts) == sum(listed.values())
    assert sum(pvector_weight_counts(40, max_entry=3)) == 75341
    with pytest.raises(ValueError, match="p-vector length must be nonnegative, got -1"):
        pvector_weight_counts(-1)


def test_sweep_size_is_the_listed_count():
    """sweep_size counts exactly the vectors iter_pvectors lists, on a grid
    with negative bounds and weight bounds that do not bind. A negative
    bound counts none, where the product of the entry ranges once counted
    (-4)^10 for entries up to -5, and a weight bound at or above the largest
    weight counts all (max_entry + 1)^n."""
    for n in range(8):
        for max_entry in range(-1, 4):
            for max_weight in (None, -1, 0, 1, n, n + 2, 3 * n * (n + 1) // 2):
                listed = len(list(iter_pvectors(n, max_entry=max_entry, max_weight=max_weight)))
                assert sweep_size(n, max_entry, max_weight) == (listed, True)
    assert sweep_size(10, -5) == sweep_size(10, 2, -10**9) == (0, True)
    assert sweep_size(10, 1000, 55000) == (1001**10, True)


def test_iter_pvectors_refuses_a_sweep_above_the_sweep_cap_at_its_first_step(monkeypatch):
    """iter_pvectors reads the sweep cap when its first vector is asked
    for, and a sweep above it yields no vector: a library caller gets the
    refusal the command line prints, naming the sweep's size. At the cap
    the sweep runs."""
    with pytest.raises(CapExceededError, match="^the sweep lists at least 41842784103120 p-vectors at degree 10, above the sweep cap 1000000$"):
        next(iter_pvectors(10, max_entry=1000, max_weight=1000))
    count = sum(pvector_weight_counts(4))
    sweep = iter_pvectors(4)
    monkeypatch.setattr(permutations, "DEFAULT_SWEEP_CAP", count - 1)
    with pytest.raises(CapExceededError, match=f"at least {count} p-vectors at degree 4, above the sweep cap {count - 1}$"):
        next(sweep)
    monkeypatch.setattr(permutations, "DEFAULT_SWEEP_CAP", count)
    assert len(list(iter_pvectors(4))) == count


def test_canonical_cycle():
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)
    assert canonical_cycle((3,)) == (3,)
    with pytest.raises(ValueError):
        canonical_cycle(())


def test_list_cycle_tuples_examples():
    two_fixed = Permutation((0, 1))
    choices = list(list_cycle_tuples(two_fixed, (2, 0)))
    # Two orderings of the two fixed points, nothing else.
    assert choices == [
        ((1, ((0,), (1,))),),
        ((1, ((1,), (0,))),),
    ]

    double = Permutation((1, 0, 3, 2))  # (01)(23)
    pairs = list(list_cycle_tuples(double, (0, 2, 0, 0)))
    assert len(pairs) == 2
    assert {p[0][1] for p in pairs} == {((0, 1), (2, 3)), ((2, 3), (0, 1))}

    three_cycle = Permutation((1, 2, 0))
    assert list(list_cycle_tuples(three_cycle, (1, 0, 0))) == []

    # Empty p-vector yields exactly one (empty) choice.
    assert list(list_cycle_tuples(three_cycle, (0, 0, 0))) == [()]


@pytest.mark.parametrize("n", range(6))
def test_list_cycle_tuples_count_formula(n):
    for sigma in enumerate_permutations(n):
        counts = cycle_counts(sigma)
        for p in iter_pvectors(n, max_entry=2, max_weight=n + 2):
            expected = 1
            for k, pk in enumerate(p, start=1):
                expected *= falling_power(counts[k - 1], pk)
            assert sum(1 for _ in list_cycle_tuples(sigma, p)) == expected


def test_all_cycle_types_counts_are_partition_numbers():
    partition_numbers = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for n, expected in enumerate(partition_numbers):
        types = list(all_cycle_types(n))
        assert len(types) == expected
        assert len(set(t.multiplicities for t in types)) == expected
        for lam in types:
            assert lam.degree == n
            assert len(lam.multiplicities) == n


def test_cycle_type_partition_and_centralizer():
    lam = CycleType((0, 1, 1, 0, 0))
    assert lam.partition() == (3, 2)
    assert lam.degree == 5
    assert lam.centralizer_order() == 6  # 2 * 3
    identity_type = CycleType((4, 0, 0, 0))
    assert identity_type.centralizer_order() == 24


def count_with_cycle_type(lam):
    """The number of permutations of the type: n! over its centralizer order."""
    return math.factorial(lam.degree) // lam.centralizer_order()


def test_count_with_cycle_type_examples():
    assert count_with_cycle_type(CycleType((4, 0, 0, 0))) == 1
    assert count_with_cycle_type(CycleType((1, 1, 0))) == 3
    assert count_with_cycle_type(CycleType((0, 2, 0, 0))) == 3


@pytest.mark.parametrize("n", range(8))
def test_count_with_cycle_type_matches_enumeration(n):
    # The closed form must reproduce honest counting before anything trusts it.
    observed: dict[tuple[int, ...], int] = {}
    for sigma in enumerate_permutations(n):
        key = cycle_counts(sigma)
        observed[key] = observed.get(key, 0) + 1
    for lam in all_cycle_types(n):
        assert count_with_cycle_type(lam) == observed.get(lam.multiplicities, 0)
    assert sum(observed.values()) == math.factorial(n)


@pytest.mark.parametrize("n", range(11))
def test_cycle_type_counts_sum_to_factorial(n):
    assert sum(count_with_cycle_type(lam) for lam in all_cycle_types(n)) == math.factorial(n)


def recursive_cycle_types(n):
    """The recursive largest-part-first partition generator the iterative
    table replaced, with multiplicities and z = prod_k k^{m_k} m_k! computed
    literally per partition."""

    def parts_gen(remaining, max_part):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in parts_gen(remaining - part, part):
                yield (part,) + rest

    for parts in parts_gen(n, n):
        mult = [0] * n
        for part in parts:
            mult[part - 1] += 1
        z = 1
        for k, mk in enumerate(mult, start=1):
            z *= k**mk * math.factorial(mk)
        yield tuple(mult), z, parts


@pytest.mark.parametrize("n", [*range(26), 30, 40])
def test_cycle_type_table_matches_recursive_generator(n):
    assert list(cycle_type_table(n)) == list(recursive_cycle_types(n))


def test_cycle_type_table_orders_are_the_literal_products_at_degree_40():
    """Every z carried through the walk equals prod_k k^{m_k} m_k! of the
    multiplicities it comes with, and of the partition it comes with."""
    for mult, z, parts in cycle_type_table(40):
        assert z == math.prod(k**mk * math.factorial(mk) for k, mk in enumerate(mult, start=1))
        assert mult == tuple(parts.count(k) for k in range(1, 41))


def test_cycle_type_table_yields_are_not_live_views():
    """A triple held by the caller keeps its values while the walk goes on."""
    held = []
    for entry in cycle_type_table(12):
        held.append((entry, tuple(entry[0]), entry[1], tuple(entry[2])))
    for (mult, z, parts), mult_then, z_then, parts_then in held:
        assert type(mult) is tuple and type(parts) is tuple
        assert (mult, z, parts) == (mult_then, z_then, parts_then)
    assert len({entry[0] for entry, *_ in held}) == len(held) == 77


@pytest.mark.parametrize("n", range(-1, 31))
def test_partition_walk_live_state_is_the_table(n):
    """At each visit the live state read as fresh tuples, a[1..m] with the
    multiplicities and z, is cycle_type_table's triple; a[1..low-1] is the
    previous visit's prefix, and a[low] is the first part that differs from
    it (low = 1 at the first visit)."""
    previous = None
    for (mult, z, a, m, low), triple in zip(partition_walk(n), cycle_type_table(n), strict=True):
        parts = tuple(a[1 : m + 1])
        assert (tuple(mult), z, parts) == triple
        if previous is None:
            assert low == 1
        else:
            assert parts[: low - 1] == previous[: low - 1]
            assert parts[low - 1] != previous[low - 1]
        previous = parts


@pytest.mark.parametrize("n", range(31))
def test_partition_walk_z_is_the_literal_centralizer_order(n):
    """At each visit z is prod_k k^{m_k} m_k!, with m_k counted from the
    parts a[1..m] and the factorials taken by math.factorial, not from the
    walk's multiplicities or its factors."""
    for _, z, a, m, _ in partition_walk(n):
        counts = Counter(a[1 : m + 1])
        assert z == math.prod(k**mk * math.factorial(mk) for k, mk in counts.items())


def test_cycle_type_table_negative_degree_is_empty():
    assert list(cycle_type_table(-1)) == []
    assert list(all_cycle_types(-3)) == []
