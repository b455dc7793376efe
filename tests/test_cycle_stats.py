import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_card import cycle_stats, permutations
from groupoid_card.categorified import cycle_tuple_actions
from groupoid_card import rng as rng_module
from groupoid_card.cycle_stats import (
    METHOD_BRUTE,
    METHOD_CYCLE_TYPE,
    check_cycle_type_sweep,
    cll_rhs,
    cycle_count_histogram,
    decorated_permutation_counts,
    expected_product_brute,
    expected_product_by_type,
    expected_products_by_type,
    expected_total_cycles,
    MONTE_CARLO_MAX_N,
    MomentReport,
    monte_carlo_moment,
    monte_carlo_moments,
    uncorrelated_check,
    verify_cll,
    verify_clls,
)
from groupoid_card.groupoids import cardinality, perm_groupoid_skeleton
from groupoid_card.permutations import (
    CapExceededError,
    CycleType,
    Permutation,
    cycle_decomposition,
    cycle_type_table,
    enumerate_permutations,
    falling_power,
    image_cycle_counts,
    iter_pvectors,
    partition_counts,
    weight,
)
from groupoid_card.rng import SplitMix64
from law_cases import enumeration_cap


def unit(n, k):
    return tuple(1 if m == k else 0 for m in range(1, n + 1))


def test_brute_examples():
    assert expected_product_brute(3, (0, 1, 0)) == Fraction(1, 2)
    assert expected_product_brute(3, (1, 0, 1)) == 0
    assert expected_product_brute(4, (2, 1, 0, 0)) == Fraction(1, 2)
    assert expected_product_brute(0, ()) == 1


def test_brute_cap():
    with enumeration_cap(5), pytest.raises(CapExceededError):
        expected_product_brute(6, (0,) * 6)


def test_by_type_examples():
    assert expected_product_by_type(3, (1, 1, 0)) == Fraction(1, 2)
    assert expected_product_by_type(10, unit(10, 5)) == Fraction(1, 5)
    assert expected_product_by_type(6, (0, 3, 0, 0, 0, 0)) == Fraction(1, 8)
    with pytest.raises(CapExceededError):
        expected_product_by_type(41, (0,) * 41)


def test_cll_rhs_examples():
    assert cll_rhs(5, (0,) * 5) == 1
    assert cll_rhs(4, (2, 1, 0, 0)) == Fraction(1, 2)
    assert cll_rhs(3, (2, 1, 0)) == 0
    with pytest.raises(ValueError):
        cll_rhs(3, (1, 1))


@pytest.mark.parametrize("n", range(6))
def test_exact_methods_agree_and_match_closed_form(n):
    for p in iter_pvectors(n, max_entry=2, max_weight=n + 2):
        brute = expected_product_brute(n, p)
        typed = expected_product_by_type(n, p)
        assert brute == typed
        assert brute == cll_rhs(n, p)
        if weight(p) > n:
            assert brute == 0


def test_verify_cll_reports():
    report = verify_cll(3, (1, 1, 0))
    assert report.method == METHOD_BRUTE
    assert report.lhs == report.rhs == Fraction(1, 2)
    assert report.equal

    report = verify_cll(5, (0, 0, 0, 0, 2), method=METHOD_CYCLE_TYPE)
    assert report.method == METHOD_CYCLE_TYPE
    assert report.lhs == report.rhs == 0
    assert report.equal

    report = verify_cll(6, (1, 1, 1, 0, 0, 0))
    assert report.lhs == report.rhs == Fraction(1, 6)

    with pytest.raises(ValueError):
        verify_cll(3, (0, 1, 0), method="guess")


def test_report_json_shape():
    data = verify_cll(3, (0, 1, 0)).to_json_dict()
    assert data == {
        "n": 3,
        "p": [0, 1, 0],
        "method": "brute",
        "lhs": "1/2",
        "rhs": "1/2",
        "equal": True,
    }


def test_expected_total_cycles():
    assert expected_total_cycles(1) == 1
    assert expected_total_cycles(3) == Fraction(11, 6)
    assert expected_total_cycles(5) == Fraction(137, 60)
    with pytest.raises(ValueError):
        expected_total_cycles(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_harmonic_equals_sum_of_unit_moments(n):
    total = sum(expected_product_by_type(n, unit(n, k)) for k in range(1, n + 1))
    assert total == expected_total_cycles(n)


@pytest.mark.parametrize("n,k,p", [(6, 2, 3), (6, 3, 2), (8, 2, 4), (5, 5, 1)])
def test_poisson_moment_matches_exact_expectation(n, k, p):
    assert p * k <= n
    pvec = tuple(p if m == k else 0 for m in range(1, n + 1))
    # The p-th falling moment of a Poisson variable of mean 1/k is (1/k)^p.
    assert expected_product_by_type(n, pvec) == Fraction(1, k) ** p


def test_uncorrelated_examples():
    report = uncorrelated_check(3, 1, 2)
    assert report.lhs == report.rhs == Fraction(1, 2)
    assert report.equal

    report = uncorrelated_check(5, 2, 3)
    assert report.lhs == report.rhs == Fraction(1, 6)

    with pytest.raises(ValueError):
        uncorrelated_check(3, 1, 3)
    with pytest.raises(ValueError):
        uncorrelated_check(6, 2, 2)
    with pytest.raises(ValueError):
        uncorrelated_check(4, 0, 2)
    # Beyond the j + k <= n range the product expectation really is 0.
    assert expected_product_brute(3, (1, 0, 1)) == 0
    assert expected_product_by_type(3, unit(3, 1)) * expected_product_by_type(3, unit(3, 3)) == Fraction(1, 3)


def test_monte_carlo_deterministic():
    p = unit(20, 2)
    first = monte_carlo_moment(20, p, 500, seed=42)
    second = monte_carlo_moment(20, p, 500, seed=42)
    assert first == second
    different = monte_carlo_moment(20, p, 500, seed=43)
    assert different.estimate != first.estimate


def test_monte_carlo_impossible_weight_is_exactly_zero():
    p = (0,) * 49 + (0,)
    p = list(p)
    p[48] = 1  # one 49-cycle
    p[1] = 1  # and a 2-cycle: weight 51 > 50
    report = monte_carlo_moment(50, tuple(p), 200, seed=7)
    assert report.estimate == 0.0
    assert report.standard_error == 0.0
    assert report.rhs == 0


def test_monte_carlo_hits_target_with_fixed_seed():
    report = monte_carlo_moment(30, unit(30, 1), 4000, seed=20260810)
    assert abs(report.estimate - 1.0) <= 4 * report.standard_error


def test_monte_carlo_requires_two_samples():
    with pytest.raises(ValueError):
        monte_carlo_moment(5, unit(5, 1), 1, seed=0)


def test_monte_carlo_report_fields():
    report = monte_carlo_moment(10, unit(10, 2), 100, seed=5)
    assert report.method == "monte_carlo"
    assert report.equal is None
    assert report.lhs is None
    assert report.samples == 100
    assert report.seed == 5
    data = report.to_json_dict()
    assert data["generator"] == "splitmix64"
    assert data["rhs"] == "1/2"


def literal_monte_carlo(n, p, samples, seed):
    """The Monte Carlo report written out directly: each sample shuffles the
    previous sample's images again, one `below` draw per step, and its cycles
    are counted by `cycle_decomposition`."""
    rng = SplitMix64(seed)
    images = list(range(n))
    total = total_sq = 0
    for _ in range(samples):
        reference_shuffle(rng, images)
        lengths = [len(c) for c in cycle_decomposition(Permutation(tuple(images)))]
        value = math.prod(falling_power(lengths.count(k), pk) for k, pk in enumerate(p, start=1))
        total += value
        total_sq += value * value
    variance = (total_sq - total * total / samples) / (samples - 1)
    return MomentReport(
        n=n, p=tuple(p), method="monte_carlo", rhs=cll_rhs(n, p), estimate=total / samples,
        standard_error=math.sqrt(max(variance, 0.0) / samples), samples=samples, seed=seed,
    )


MIXED_PVECTORS_30 = [
    unit(30, 1),
    unit(30, 2),
    tuple(1 if m in (1, 2) else 0 for m in range(1, 31)),  # a pair
    tuple(2 if m == 1 else 0 for m in range(1, 31)),  # a falling square
    tuple(1 if m in (29, 2) else 0 for m in range(1, 31)),  # weight 31 > 30
    unit(30, 1),  # a repeat
    (0,) * 30,
    unit(30, 30),
]


@pytest.mark.parametrize("seed", [0, 7, 20260810, 2**64 - 1])
def test_monte_carlo_moments_equal_per_p_reports(seed):
    reports = monte_carlo_moments(30, MIXED_PVECTORS_30, 300, seed)
    assert reports == [monte_carlo_moment(30, p, 300, seed) for p in MIXED_PVECTORS_30]
    assert reports[4].estimate == 0.0 and reports[4].rhs == 0
    assert reports[6].estimate == 1.0 and reports[6].standard_error == 0.0


@pytest.mark.parametrize("seed", [3, 2**64 - 2])
def test_monte_carlo_matches_literal_walk(seed):
    for p in MIXED_PVECTORS_30[:5]:
        assert monte_carlo_moment(30, p, 120, seed) == literal_monte_carlo(30, p, 120, seed)
    assert monte_carlo_moment(1, (1,), 2, seed) == literal_monte_carlo(1, (1,), 2, seed)


def pvec(n, entries):
    """The p-vector of degree n with p_k = entries[k]."""
    return tuple(entries.get(k, 0) for k in range(1, n + 1))


def route_cases():
    """(n, ps, sampler) for the route rule: small degrees, the translate
    limit n = 256 and one past it, each with a falling square (p_1 = 2), a
    p-vector of weight above n and a mix of four statistics; and at n = 100
    and 256 one chosen length whose powers cost, by the rule
    5 (top + 3 m) <= n, just below, exactly at and above the limit."""
    cases = [(0, [()], None), (1, [(1,), (2,), (0,)], "image_cycle_counts")]
    for n, sampler in ((2, "image_cycle_counts"), (3, "image_cycle_counts"), (100, "_fixed_point_counts"),
                       (256, "_fixed_point_counts"), (257, "image_cycle_counts")):
        mix = [pvec(n, {1: 1}), pvec(n, {2: 1}), pvec(n, {1: 1, 2: 1}), pvec(n, {min(n, 5): 1})]
        cases.append((n, [pvec(n, {1: 2}), pvec(n, {n: 1, 1: 1}), *mix], sampler))
    for n, below, at, above in ((100, 13, 8, 10), (256, 39, None, 47)):
        for k, sampler in ((below, "_fixed_point_counts"), (at, "_fixed_point_counts"), (above, "image_cycle_counts")):
            if k is not None:
                cases.append((n, [pvec(n, {k: 1}), pvec(n, {k: 1, 1: 1})], sampler))
    return cases


@pytest.mark.parametrize("n, ps, sampler", route_cases())
def test_monte_carlo_routes_match_literal_walk(monkeypatch, n, ps, sampler):
    """Each route gives the literal oracle's reports, and the rule picks the
    kernel named: the translate kernel runs once per call and the walk
    kernel, `image_cycle_counts`, once per sample."""
    ran = []
    for name in ("_fixed_point_counts", "image_cycle_counts"):
        original = getattr(cycle_stats, name)
        monkeypatch.setattr(cycle_stats, name, lambda *args, _f=original, _name=name: ran.append(_name) or _f(*args))
    samples = 200 if n < 100 else 40
    for seed in (3, 2**64 - 2):
        ran.clear()
        assert monte_carlo_moments(n, ps, samples, seed) == [literal_monte_carlo(n, p, samples, seed) for p in ps]
        assert set(ran) == ({sampler} if sampler else set())


@pytest.mark.parametrize("fold", [1, 2])
def test_monte_carlo_tally_fold_size_leaves_reports_equal(monkeypatch, fold):
    for n in (100, 257):
        ps = [pvec(n, {1: 1}), pvec(n, {2: 1}), pvec(n, {1: 2, 3: 1}), pvec(n, {5: 1})]
        clean = monte_carlo_moments(n, ps, 301, seed=11)
        monkeypatch.setattr(cycle_stats, "_TALLY_ENTRIES", fold)
        assert monte_carlo_moments(n, ps, 301, seed=11) == clean
        monkeypatch.undo()


@given(st.integers(1, 256).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.integers(1, min(n, 40)), min_size=1, max_size=4, unique=True).map(sorted))))
def test_mobius_counts_equal_cycle_decomposition(case):
    images, lengths = case
    divisors = sorted({d for k in lengths for d in range(1, k + 1) if k % d == 0})
    (fixes,) = cycle_stats._fixed_point_counts(list(images), iter([None]), divisors)
    cycle_lengths = [len(c) for c in cycle_decomposition(Permutation(tuple(images)))]
    assert list(fixes) == [sum(length for length in cycle_lengths if d % length == 0) for d in divisors]
    assert cycle_stats._cycle_counts(lengths, divisors, fixes) == [cycle_lengths.count(k) for k in lengths]


def test_monte_carlo_moments_edge_cases():
    assert monte_carlo_moments(30, [], 10, seed=1) == []
    assert monte_carlo_moments(0, [()], 2, seed=1)[0].estimate == 1.0
    with pytest.raises(ValueError):
        monte_carlo_moments(5, [unit(5, 1), (1, 0)], 10, seed=0)


def test_monte_carlo_degree_cap():
    # Refused before any list of the degree is built.
    with pytest.raises(CapExceededError):
        monte_carlo_moments(MONTE_CARLO_MAX_N + 1, [], 2, seed=0)
    with pytest.raises(CapExceededError):
        monte_carlo_moment(10**9, (), 2, seed=0)


def sample_permutation(n, rng):
    """One permutation as an image list, from the unbiased shuffle."""
    images = list(range(n))
    rng.shuffle(images)
    return images


def test_shuffle_uniformity():
    # Every permutation of 4 points should appear with frequency within
    # 5 standard deviations of 1/24 over 10^5 seeded draws.
    rng = SplitMix64(99)
    counts: dict[tuple, int] = {}
    draws = 100_000
    for _ in range(draws):
        images = tuple(sample_permutation(4, rng))
        counts[images] = counts.get(images, 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    sigma = math.sqrt(draws * (1 / 24) * (23 / 24))
    for images, count in counts.items():
        assert abs(count - expected) <= 5 * sigma, (images, count)


MASK64 = 2**64 - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_shuffle(rng, items):
    """Literal decreasing-index Fisher-Yates, one `below` draw per step."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def assert_shuffle_matches_reference(n, seed):
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    rng.shuffle(items)
    reference_shuffle(ref, expected)
    assert items == expected, (n, seed)
    assert rng._state == ref._state, (n, seed)


# Seeds just below 2^64, and seeds that put some lane's counter
# state + (m+1)·γ within 3 of a multiple of 2^64, so that lane wraps.
EDGE_SEEDS = [2**64 - d for d in range(1, 4)] + [(d - (m + 1) * GAMMA) & MASK64 for m in (0, 1, 5, 98, 129) for d in (-3, 0, 3)]


@pytest.mark.parametrize("n", range(131))
def test_shuffle_matches_reference_at_edge_seeds(n):
    for seed in EDGE_SEEDS:
        assert_shuffle_matches_reference(n, seed)


@given(st.integers(0, 130), st.one_of(st.integers(0, MASK64), st.integers(1, 130 * GAMMA).map(lambda d: -d & MASK64)))
def test_shuffle_matches_reference(n, seed):
    assert_shuffle_matches_reference(n, seed)


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 0xC0FFEE])
def test_shuffle_matches_reference_across_blocks(seed):
    # Longer passes run in several blocks, the last one short.
    assert_shuffle_matches_reference(2 * rng_module._LANES_MAX + 7, seed)


def passes_per_block(n):
    """Whole passes over n items in one lane block, or 1 for a longer pass."""
    return max(rng_module._LANES_MAX // (n - 1), 1) if n > 1 else 1


def assert_shuffles_match_reference(n, seed, passes):
    """`shuffles` leaves, after each pass, the images and state of that many
    one-`below`-per-step passes, and yields exactly `passes` times."""
    rng, ref = SplitMix64(seed), SplitMix64(seed)
    items, expected = list(range(n)), list(range(n))
    done = 0
    for _ in rng.shuffles(items, passes):
        reference_shuffle(ref, expected)
        done += 1
        assert items == expected, (n, seed, done)
        assert rng._state == ref._state, (n, seed, done)
    assert done == passes
    assert rng._state == ref._state, (n, seed)


@pytest.mark.parametrize("n", range(132))
def test_shuffles_match_reference_at_edge_seeds(n):
    # One pass more than a block holds, so the run crosses a block boundary.
    for seed in EDGE_SEEDS:
        assert_shuffles_match_reference(n, seed, passes_per_block(n) + 1)


@pytest.mark.parametrize("n", [2, 3, 12, 99, 100, 101, 131, 342, 343, 513, 1025])
def test_shuffles_match_reference_across_blocks(n):
    # Two pass counts that cross block boundaries: per + 1 ends one pass into
    # a second block, 2·per + 3 three passes into a third.
    per = passes_per_block(n)
    for seed in (0, 2**64 - 1, 0xC0FFEE):
        for passes in (per + 1, 2 * per + 3):
            assert_shuffles_match_reference(n, seed, passes)


@pytest.mark.parametrize("n, passes", [(0, 0), (0, 1), (0, 2049), (1, 0), (1, 3), (1, 2049),
                                       (2, 0), (100, 0), (rng_module._LANES_MAX + 2, 0)])
def test_runs_that_swap_nothing_draw_nothing(n, passes):
    # Zero passes, or too few items to swap: exactly `passes` yields, no draw.
    rng, items = SplitMix64(0xC0FFEE), list(range(n))
    assert sum(1 for _ in rng.shuffles(items, passes)) == passes
    assert items == list(range(n)) and rng._state == 0xC0FFEE


@pytest.mark.parametrize("n", [rng_module._LANES_MAX + 2, 2 * rng_module._LANES_MAX + 7])
def test_shuffles_of_passes_longer_than_a_block(n):
    # Each pass runs in several blocks, and blocks span pass boundaries.
    for seed in (0, 2**64 - 1, 0xC0FFEE):
        assert_shuffles_match_reference(n, seed, 3)


@pytest.mark.parametrize("lanes", [1, 6, 99, 990, rng_module._LANES_MAX])
def test_lane_draws_are_the_stream(lanes):
    # The lane-packed block is the next `lanes` outputs of next_u64, and is
    # withheld exactly when one of them is at least 2^64 - bound. Each block
    # size meets several bounds, and each bound several block sizes, so a
    # bound product cached under the wrong key fails.
    for seed in EDGE_SEEDS:
        ref = SplitMix64(seed)
        expected = [ref.next_u64() for _ in range(lanes)]
        draws = rng_module._lane_draws(seed, lanes, 1)
        assert draws is not None and list(draws) == expected, seed
        bound = 2**64 - max(expected)
        before = expected.index(max(expected))
        if before:
            assert list(rng_module._lane_draws(seed, before, bound)) == expected[:before]
        assert rng_module._lane_draws(seed, lanes, bound) is None
        assert list(rng_module._lane_draws(seed, lanes, bound - 1)) == expected
        assert rng_module._lane_draws(seed, lanes, bound) is None
        assert list(rng_module._lane_draws(seed, lanes, 1)) == expected


def unxorshift(y, shift):
    """The x with x ^ (x >> shift) = y, recovered from the top bits down."""
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def unmix(z):
    """The counter whose SplitMix64 output is z: the finalizer run backwards."""
    z = unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & MASK64
    z = unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & MASK64
    return unxorshift(z, 30)


def test_unmix_inverts_the_finalizer():
    for z in (0, 1, MASK64, 0x0123456789ABCDEF):
        assert SplitMix64((unmix(z) - GAMMA) & MASK64).next_u64() == z


# (n, m): draw m of a pass over n items, whose bound is n - m, is made 2^64 - 1
# and, where that bound rejects anything, the smallest draw it rejects. The pass
# then takes exactly one extra draw. The cases cover short passes, the first, a
# middle and the last lane of a block, bounds that are powers of two (nothing
# rejected, the block still set aside), bound 86 (whose smallest rejected draw, 2^64 - 84, is the lowest of
# any bound up to 100) and a lane of a second block.
REJECTION_CASES = [(4, 0), (4, 1), (7, 0), (7, 3), (100, 0), (100, 36),
                   (100, 14), (100, 50), (100, 97), (100, 98), (rng_module._LANES_MAX + 21, rng_module._LANES_MAX - 1),
                   (rng_module._LANES_MAX + 21, rng_module._LANES_MAX + 6)]


@pytest.mark.parametrize("n, m", REJECTION_CASES)
def test_shuffle_matches_reference_on_a_rejected_draw(n, m):
    bound = n - m
    smallest_rejected = 2**64 - 2**64 % bound
    for draw in {MASK64, min(smallest_rejected, MASK64)}:
        seed = (unmix(draw) - (m + 1) * GAMMA) & MASK64
        probe = SplitMix64(seed)
        for _ in range(m):
            probe.next_u64()
        assert probe.next_u64() == draw
        assert_shuffle_matches_reference(n, seed)
        extra = 1 if draw >= smallest_rejected else 0
        rng = SplitMix64(seed)
        rng.shuffle(list(range(n)))
        assert rng._state == (seed + (n - 1 + extra) * GAMMA) & MASK64


# (n, m): step m of a run of passes over n items, counted from the run's
# start, is made 2^64 - 1 and, where its bound rejects anything, the smallest
# draw it rejects. The steps lie in the second or a later pass of a
# multi-pass block (n = 100: 10 passes per block; n = 3: 512), in a second
# block, or on a power-of-two bound (n = 100, bound 64: nothing rejected, the
# block still replayed).
RUN_REJECTION_CASES = [(100, 99), (100, 99 * 4 + 13), (100, 99 * 9 + 98), (100, 99 * 2 + 36),
                       (100, 99 * 12 + 50), (3, 2 * 300 + 1), (3, 2 * 511)]


@pytest.mark.parametrize("n, m", RUN_REJECTION_CASES)
def test_shuffles_replay_a_flagged_block_mid_run(n, m):
    steps = n - 1
    per = passes_per_block(n)
    bound = n - m % steps
    smallest_rejected = 2**64 - 2**64 % bound
    passes = (m // (per * steps) + 1) * per + 2
    for draw in {MASK64, min(smallest_rejected, MASK64)}:
        seed = (unmix(draw) - (m + 1) * GAMMA) & MASK64
        probe = SplitMix64((seed + m * GAMMA) & MASK64)
        assert probe.next_u64() == draw
        block_start = m // (per * steps) * per * steps
        assert rng_module._lane_draws((seed + block_start * GAMMA) & MASK64, per * steps, n) is None
        assert_shuffles_match_reference(n, seed, passes)
        extra = 1 if draw >= smallest_rejected else 0
        rng = SplitMix64(seed)
        for _ in rng.shuffles(list(range(n)), passes):
            pass
        assert rng._state == (seed + (passes * steps + extra) * GAMMA) & MASK64


def test_below_refuses_bounds_above_two_to_the_64_before_drawing():
    # Above 2^64 the rejection limit is 0, so a draw would never be accepted.
    for bound in (2**64 + 1, 2**70, 0, -3):
        rng = SplitMix64(0xC0FFEE)
        with pytest.raises(ValueError, match=r"1\.\.2\^64"):
            rng.below(bound)
        assert rng._state == 0xC0FFEE
    rng, ref = SplitMix64(0xC0FFEE), SplitMix64(0xC0FFEE)
    assert rng.below(2**64) == ref.next_u64()
    assert rng._state == ref._state


@given(st.integers(0, 30), st.integers(0, 2**63 - 1))
def test_sampled_permutations_are_valid(n, seed):
    rng = SplitMix64(seed)
    images = sample_permutation(n, rng)
    assert sorted(images) == list(range(n))


def pvectors_up_to_weight(n, max_weight):
    """Every p-vector of length n with weight at most max_weight."""

    def rest(k, budget):
        if k > n:
            yield ()
            return
        for pk in range(budget // k + 1):
            for tail in rest(k + 1, budget - k * pk):
                yield (pk,) + tail

    return rest(1, max_weight)


def reference_brute(n, p):
    """Literal sum over every Permutation object, cycles from cycle_decomposition."""
    total = 0
    for sigma in enumerate_permutations(n):
        lengths = [len(cycle) for cycle in cycle_decomposition(sigma)]
        term = 1
        for k, pk in enumerate(p, start=1):
            term *= falling_power(lengths.count(k), pk)
        total += term
    return Fraction(total, math.factorial(n))


@pytest.mark.parametrize("n", range(8))
def test_brute_matches_literal_permutation_sum(n):
    # Weight n + 1 is included so that the vanishing side is covered too.
    for p in pvectors_up_to_weight(n, n + 1):
        assert expected_product_brute(n, p) == reference_brute(n, p), p


@pytest.mark.parametrize("n", range(11))
def test_cycle_count_histogram_counts_every_permutation(n):
    histogram = cycle_count_histogram(n)
    assert sum(count for _, count in histogram) == math.factorial(n)
    vectors = [counts for counts, _ in histogram]
    assert len(set(vectors)) == len(vectors)
    assert all(len(counts) == n and weight(counts) == n for counts in vectors)


@pytest.mark.parametrize("n", range(10))
def test_cycle_count_histogram_equals_the_literal_walk(n):
    # The tail is the largest k with (k!)^2 <= n!: 0, 1, 1, 2, 2, 3, 4, 4, 5
    # and 5 points for n = 0..9, so n <= 1 has an empty prefix.
    histogram = cycle_count_histogram(n)
    assert dict(histogram) == Counter(map(image_cycle_counts, itertools.permutations(range(n))))
    assert list(histogram) == sorted(histogram)


def test_brute_never_reads_cycle_types(monkeypatch, forbid):
    refuse = forbid(permutations.cycle_type_table, permutations.partition_walk, permutations.all_cycle_types)
    monkeypatch.setattr(CycleType, "centralizer_order", refuse)
    monkeypatch.setattr(CycleType, "partition", refuse)
    cycle_count_histogram.cache_clear()
    for n in range(7):
        for p in iter_pvectors(n, max_entry=2, max_weight=n + 1):
            assert expected_product_brute(n, p) == cll_rhs(n, p)
    with pytest.raises(AssertionError):
        expected_product_by_type(3, (1, 0, 0))


@pytest.mark.parametrize("n", range(7, 11))
def test_brute_never_reads_cycle_types_at_the_larger_tails(monkeypatch, forbid, n):
    """Degrees 7..10 glue tails of 4, 5, 5 and 6 chains, and still read no
    cycle type; p asks for a 2-cycle and an (n-2)-cycle, so the chains
    glued into long cycles are counted."""
    refuse = forbid(permutations.cycle_type_table, permutations.partition_walk, permutations.all_cycle_types)
    monkeypatch.setattr(CycleType, "centralizer_order", refuse)
    monkeypatch.setattr(CycleType, "partition", refuse)
    cycle_count_histogram.cache_clear()
    p = tuple(1 if k in (2, n - 2) else 0 for k in range(1, n + 1))
    assert expected_product_brute(n, p) == cll_rhs(n, p) == Fraction(1, 2 * (n - 2))


def test_cycle_type_route_never_enumerates(monkeypatch, forbid):
    refuse = forbid(cycle_stats.cycle_count_histogram, permutations.enumerate_permutations,
                    permutations.image_cycle_counts, permutations.cycle_counts)
    monkeypatch.setattr(itertools, "permutations", refuse)
    monkeypatch.setattr(Permutation, "__post_init__", refuse)
    for n in range(13):
        for p in iter_pvectors(n, max_entry=2, max_weight=n + 1):
            assert expected_product_by_type(n, p) == cll_rhs(n, p)
        assert cardinality(perm_groupoid_skeleton(n)) == 1
    with pytest.raises(AssertionError):
        expected_product_brute(3, (1, 0, 0))


def per_p_type_sum(n, p):
    """The cycle-type sum of one p-vector, read literally: every type of
    degree n, weighted by n!/z, whether it contributes or not."""
    n_factorial = math.factorial(n)
    total = 0
    for mult, z, _ in cycle_type_table(n):
        term = 1
        for k0, pk in enumerate(p):
            term *= falling_power(mult[k0], pk)
        total += term * (n_factorial // z)
    return Fraction(total, n_factorial)


@pytest.mark.parametrize("n", range(13))
def test_one_pass_sums_equal_the_per_p_sums(n):
    # Entries up to n and weight up to n + 2: every p that reads a type, and
    # some that read none.
    ps = list(iter_pvectors(n, max_entry=n, max_weight=n + 2))
    assert expected_products_by_type(n, ps) == [per_p_type_sum(n, p) for p in ps]
    assert [expected_product_by_type(n, p) for p in ps] == [per_p_type_sum(n, p) for p in ps]


def test_one_pass_sums_equal_the_per_p_sums_at_degree_20():
    ps = random.Random(20).sample(list(iter_pvectors(20, max_entry=3, max_weight=22)), 40)
    assert expected_products_by_type(20, ps) == [per_p_type_sum(20, p) for p in ps]
    assert expected_products_by_type(20, []) == []


def test_decorated_permutation_counts_are_the_type_sums_times_n_factorial():
    ps = list(iter_pvectors(7, max_entry=2, max_weight=8))
    counts = decorated_permutation_counts(7, ps)
    assert [Fraction(c, 5040) for c in counts] == [per_p_type_sum(7, p) for p in ps]
    assert decorated_permutation_counts(4, [(0, 2, 0, 0), (0, 0, 0, 0), (1, 0, 1, 0)]) == [6, 24, 8]


def test_verify_clls_equals_the_one_p_reports():
    ps = list(iter_pvectors(6, max_entry=2, max_weight=8))
    for method in (METHOD_BRUTE, METHOD_CYCLE_TYPE):
        assert verify_clls(6, ps, method=method) == [verify_cll(6, p, method=method) for p in ps]
    with pytest.raises(ValueError):
        verify_clls(3, [(0, 1, 0)], method="guess")


def test_partition_counts():
    assert partition_counts(0) == [1]
    assert partition_counts(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert partition_counts(40)[40] == 37338
    assert all(partition_counts(n)[n] == sum(1 for _ in cycle_type_table(n)) for n in range(16))


def test_type_term_cap_refuses_before_any_sum(monkeypatch, forbid):
    """The terms a call reads, the partitions of n - |p| summed over its
    p-vectors, are compared with the cap before any table is walked."""
    ps = list(iter_pvectors(10))
    terms = sum(partition_counts(10)[10 - weight(p)] for p in ps)
    monkeypatch.setattr(permutations, "DEFAULT_TYPE_TERM_CAP", terms)
    assert expected_products_by_type(10, ps) == [cll_rhs(10, p) for p in ps]
    monkeypatch.setattr(permutations, "DEFAULT_TYPE_TERM_CAP", terms - 1)
    forbid(permutations.cycle_type_table, permutations.partition_walk)
    with pytest.raises(CapExceededError, match=f"{len(ps)} p-vectors at degree 10 read {terms} cycle-type terms, above the type-term cap {terms - 1}"):
        expected_products_by_type(10, ps)


def test_type_term_cap_is_read_at_call_time(monkeypatch):
    """The cap is read from permutations when a sum is asked for: patching
    it there moves the refusal of every route that reads it."""
    ones = (0,) * 10
    assert expected_products_by_type(10, [ones]) == [1]
    monkeypatch.setattr(permutations, "DEFAULT_TYPE_TERM_CAP", 1)
    message = "1 p-vectors at degree 10 read 42 cycle-type terms, above the type-term cap 1"
    with pytest.raises(CapExceededError, match=message):
        expected_products_by_type(10, [ones])
    with pytest.raises(CapExceededError, match=message):
        decorated_permutation_counts(10, [ones])
    with pytest.raises(CapExceededError, match="above the type-term cap 1"):
        check_cycle_type_sweep(10)
    monkeypatch.setattr(permutations, "DEFAULT_TYPE_TERM_CAP", 42)
    assert expected_products_by_type(10, [ones]) == [1]


def test_sweep_refusal_equals_the_listed_refusal(monkeypatch):
    """check_cycle_type_sweep refuses exactly the sweeps that
    decorated_permutation_counts refuses once they are listed, with the same
    message, or passes them both; weights above n read no term."""
    monkeypatch.setattr(permutations, "DEFAULT_TYPE_TERM_CAP", 60)
    outcomes = set()
    for n in range(9):
        for max_entry in range(4):
            for max_weight in (None, 0, 2, n, n + 3):
                ps = list(iter_pvectors(n, max_entry=max_entry, max_weight=max_weight))
                try:
                    decorated_permutation_counts(n, ps)
                    listed = None
                except CapExceededError as exc:
                    listed = str(exc)
                try:
                    check_cycle_type_sweep(n, max_entry=max_entry, max_weight=max_weight)
                    counted = None
                except CapExceededError as exc:
                    counted = str(exc)
                assert counted == listed
                outcomes.add(listed is None)
    assert outcomes == {True, False}


def test_sweep_refusal_lists_no_pvector(monkeypatch, forbid):
    forbid(permutations.iter_pvectors, permutations.validate_pvector, permutations.cycle_type_table, permutations.partition_walk)
    with pytest.raises(CapExceededError, match="75341 p-vectors at degree 40 read 4857052 cycle-type terms"):
        check_cycle_type_sweep(40, max_entry=3)
    with pytest.raises(CapExceededError, match="degree 41 exceeds partition cap 40"):
        check_cycle_type_sweep(41, max_entry=3)
    check_cycle_type_sweep(40)


@pytest.mark.parametrize("build, n, cap", [
    (decorated_permutation_counts, 41, "partition cap 40"),
    (expected_products_by_type, 41, "partition cap 40"),
    (cycle_tuple_actions, 11, "enumeration cap 10"),
], ids=["decorated_permutation_counts", "expected_products_by_type", "cycle_tuple_actions"])
def test_degree_cap_is_read_before_ps_is_listed(build, n, cap):
    """Each reads its degree cap before it lists ps, as verify_clls and
    verify_categorifieds do: ps here fails when it is advanced."""

    def unlisted():
        raise AssertionError("ps was listed")
        yield

    with pytest.raises(CapExceededError, match=f"^degree {n} exceeds {cap}$"):
        build(n, unlisted())


def test_sweep_refusal_counts_weights_only_up_to_n(monkeypatch):
    """Only weights up to n read terms, and only they are counted. Where a
    weight bound above n binds, the refusal names the sweep's sweep_size:
    exact when its product bound is at most the sweep cap, else "at least"
    that bound, which is no more than the sweep's vectors. It took 1.2 s
    and 50 MB at --max-weight 200000 when every weight up to the bound was
    counted."""
    import time

    spans = []
    counts = permutations.pvector_weight_counts
    monkeypatch.setattr(cycle_stats, "pvector_weight_counts", lambda n, e, w: spans.append(w) or counts(n, e, w))
    terms = 9035539
    for max_weight in (41, 50_000, 200_000, 8_000_000):
        start = time.perf_counter()
        with pytest.raises(CapExceededError) as exc:
            check_cycle_type_sweep(40, max_entry=10_000, max_weight=max_weight)
        assert time.perf_counter() - start < 0.2
        bound, exact = permutations.sweep_size(40, 10_000, max_weight)
        assert exact == (max_weight == 41)
        assert str(exc.value) == (f"{'' if exact else 'at least '}{bound} p-vectors at degree 40 read {terms} "
                                  f"cycle-type terms, above the type-term cap {permutations.DEFAULT_TYPE_TERM_CAP}")
    assert spans == [40] * 4
    with pytest.raises(CapExceededError, match=f"^{10001 ** 40} p-vectors at degree 40 read {terms} "):
        check_cycle_type_sweep(40, max_entry=10_000, max_weight=10_000 * 820)
    bound, exact = permutations.sweep_size(40, 3, 2000)
    assert not exact and bound < sum(counts(40, 3, 2000))


def test_one_pass_route_never_enumerates(monkeypatch, forbid):
    forbid(cycle_stats.cycle_count_histogram, permutations.enumerate_permutations,
           permutations.image_cycle_counts, permutations.cycle_counts)
    monkeypatch.setattr(itertools, "permutations", forbid())
    monkeypatch.setattr(Permutation, "__post_init__", forbid())
    for n in range(13):
        ps = list(iter_pvectors(n, max_entry=2, max_weight=n + 1))
        assert expected_products_by_type(n, ps) == [cll_rhs(n, p) for p in ps]
        assert all(report.equal for report in verify_clls(n, ps, method=METHOD_CYCLE_TYPE))
