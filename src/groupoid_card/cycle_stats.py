"""Expectations of products of falling powers of cycle counts.

Treats the n! permutations of degree n as equiprobable and computes
E(prod_k c_k^(p_k falling)) two independent exact ways: by full enumeration
and by weighting cycle types with reciprocal centralizer orders. The two
serve as mutual oracles. A seeded Monte Carlo route covers degrees beyond
enumeration range; it uses SplitMix64 and the decreasing-index Fisher-Yates
shuffle, so every report is reproducible from (n, p, samples, seed).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from . import permutations
from .groupoids import rational_str
from .permutations import (
    CapExceededError,
    Permutation,
    check_enumeration_cap,
    check_partition_cap,
    check_type_term_cap,
    cycle_decomposition,
    falling_power,
    image_cycle_counts,
    partition_counts,
    partition_walk,
    pvector_weight_counts,
    sweep_size,
    validate_pvector,
    weight,
)
from .rng import SplitMix64

METHOD_BRUTE = "brute"
METHOD_CYCLE_TYPE = "cycle_type"
METHOD_MONTE_CARLO = "monte_carlo"
# Largest degree the Monte Carlo route samples: each sample holds an image
# list of this length, and on the walk route a count and a seen list too.
MONTE_CARLO_MAX_N = 100_000
# The Monte Carlo route rule (see monte_carlo_moments), measured at
# n = 10..256 on a 2-core x86-64 host, Python 3.11: a sample's power costs
# about a walk of this many points, a divisor's fixed points three times that.
_POWER_POINTS = 5
# Key entries (samples times key length) tallied before the tally is folded
# into the sums, so that it holds O(n) values.
_TALLY_ENTRIES = 1 << 14


@dataclass(frozen=True)
class MomentReport:
    """Result of one expectation check.

    Exact methods fill lhs/rhs/equal; Monte Carlo fills estimate,
    standard_error, samples and seed, and never claims exact equality.
    """

    n: int
    p: tuple[int, ...]
    method: str
    lhs: Optional[Fraction] = None
    rhs: Optional[Fraction] = None
    equal: Optional[bool] = None
    estimate: Optional[float] = None
    standard_error: Optional[float] = None
    samples: Optional[int] = None
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {"n": self.n, "p": list(self.p), "method": self.method}
        if self.lhs is not None:
            out["lhs"] = rational_str(self.lhs)
        if self.rhs is not None:
            out["rhs"] = rational_str(self.rhs)
        if self.equal is not None:
            out["equal"] = self.equal
        if self.estimate is not None:
            out["estimate"] = self.estimate
            out["standard_error"] = self.standard_error
            out["samples"] = self.samples
            out["seed"] = self.seed
            out["generator"] = "splitmix64"
        return out


@functools.cache
def cycle_count_histogram(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(cycle-count vector, number of permutations with it) for every vector
    that occurs at degree n, sorted by vector. No count comes from a
    cycle-type formula: each of the n! permutations is enumerated as a
    prefix, the images of points 0..n-k-1, plus one of the k! orders of the
    k values the prefix misses, given to the tail points n-k..n-1, and its
    cycles are walked.

    The tail k is the largest one up to n with (k!)^2 <= n!, so the k!
    gluings made per multiset of chain lengths never outnumber the n!/k!
    prefixes walked: k = 4 at n = 6, 7, k = 5 at n = 8, 9 and k = 6 at
    n = 10.

    The walk is shared by the k! permutations of one prefix. Each missing
    value starts an open chain that follows the prefix to the tail point it
    ends at, and every other prefix point lies on a closed cycle. An order of
    the missing values glues the chains: tail point t goes on to the chain
    that starts at t's image, and each cycle of that gluing is one cycle
    whose length is the sum of its chains' lengths. A count vector is coded
    as the integer sum of (n+1)^(L-1) over its cycles of length L. So a
    prefix is summed up by its closed cycles' code and its chain lengths;
    prefixes with the same summary are counted together.

    The k! orders run over all of S_k, so relabelling the chains by a
    permutation of the tail only permutes the orders: the codes the gluings
    give, with their multiplicities, depend on the multiset of chain
    lengths alone. So the lengths are kept sorted, each distinct sorted
    tuple is glued in all k! ways once into a count of codes, and that
    count is added at every closed code walked with it. Cached per degree;
    callers check the enumeration cap first."""
    n_factorial = math.factorial(n)
    k = max(j for j in range(n + 1) if math.factorial(j) ** 2 <= n_factorial)
    m = n - k
    base = n + 1
    powers = [base**length for length in range(n)]
    # An order is a permutation of the chain indices: chain t goes on to
    # chain order[t]. Its cycles are the same for every prefix.
    gluings = [cycle_decomposition(Permutation(order)) for order in itertools.permutations(range(k))]
    values = set(range(n))
    # (closed cycles' code, sorted chain lengths) -> number of prefixes walked to it.
    walks: Counter = Counter()
    for prefix in itertools.permutations(range(n), m):
        on_chain = [False] * m
        lengths = []
        for point in values.difference(prefix):
            length = 1
            while point < m:
                on_chain[point] = True
                point = prefix[point]
                length += 1
            lengths.append(length)
        closed = 0
        for start in range(m):
            if on_chain[start]:
                continue
            # Starts only move forward, so start itself need not be marked.
            length = 1
            point = prefix[start]
            while point != start:
                on_chain[point] = True
                point = prefix[point]
                length += 1
            closed += powers[length - 1]
        lengths.sort()
        walks[closed, tuple(lengths)] += 1
    by_lengths: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (closed, lengths), count in walks.items():
        by_lengths.setdefault(lengths, []).append((closed, count))
    histogram: Counter = Counter()
    for lengths, summaries in by_lengths.items():
        glued = Counter(sum(powers[sum(lengths[t] for t in cycle) - 1] for cycle in cycles) for cycles in gluings)
        for closed, count in summaries:
            for code, ways in glued.items():
                histogram[closed + code] += count * ways
    return tuple(sorted((tuple(code // power % base for power in powers), count) for code, count in histogram.items()))


def expected_product_brute(n: int, p: Sequence[int]) -> Fraction:
    """Exact expectation over every permutation of degree n, each one
    enumerated and counted into the degree's cycle-count histogram."""
    pvec = validate_pvector(n, p)
    check_enumeration_cap(n)
    total = sum(count * math.prod(map(falling_power, counts, pvec)) for counts, count in cycle_count_histogram(n))
    return Fraction(total, math.factorial(n))


def decorated_permutation_counts(n: int, ps: Sequence[Sequence[int]]) -> list[int]:
    """For each p-vector in ps, the number of permutations of degree n with an
    ordered p_k-tuple of distinct k-cycles chosen for every k: the sum over
    cycle types m of n!/z(m) * prod_k falling(m_k, p_k), with z(m) =
    prod_k k^{m_k} m_k! the type's centralizer order.

    Only the types with m_k >= p_k for every k contribute, and they are the
    partitions of n - |p| with p_k k-cycles added. So the p-vectors are
    grouped by weight, and each group walks the partitions of n - |p| once
    (partition_walk), reading only the chosen sizes' counts from the walk's
    live multiplicities. Each term is computed from the full type's own
    multiplicities and its own centralizer order: the walk yields the
    unchosen type's order z, and the full type's is z times, for each k
    with p_k > 0, the move factor k^{p_k} (m_k + p_k)!/m_k! of its m_k
    unchosen k-cycles; the term is the product of falling(m_k + p_k, p_k)
    times n! // (that order). Both are read from one table per (k, p_k),
    over the counts m_k up to (n - |p|) // k that the walk can reach; a
    chosen size above n - |p| has m_k = 0 on every visit, so its factors
    are folded into the vector's constants. The sum is read from no closed
    form, and no table is kept after the call.

    Raises CapExceededError for a degree above DEFAULT_PARTITION_CAP,
    before ps is listed, or when the terms to read, the partitions of
    n - |p| summed over ps, exceed DEFAULT_TYPE_TERM_CAP, before any sum."""
    check_partition_cap(n)
    pvecs = [validate_pvector(n, p) for p in ps]
    weights = [weight(pvec) for pvec in pvecs]
    partitions = partition_counts(n)
    check_type_term_cap(n, len(pvecs), sum(partitions[n - w] for w in weights if w <= n))
    n_factorial = math.factorial(n)
    by_weight: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
    for i, (pvec, w) in enumerate(zip(pvecs, weights)):
        if w <= n:
            by_weight.setdefault(w, []).append((i, pvec))
    totals = [0] * len(pvecs)
    for w, group in by_weight.items():
        size = n - w
        # (k, p_k) -> (move factors, falling powers), indexed by m_k.
        tables: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
        needs = []
        for i, pvec in group:
            moved, fallen, reads = 1, 1, []
            for k in itertools.compress(range(1, n + 1), pvec):
                pk = pvec[k - 1]
                if k > size:
                    moved *= k**pk * math.factorial(pk)
                    fallen *= math.factorial(pk)
                    continue
                table = tables.get((k, pk))
                if table is None:
                    fall = [falling_power(mk + pk, pk) for mk in range(size // k + 1)]
                    table = tables[k, pk] = [k**pk * f for f in fall], fall
                reads.append((k - 1, *table))
            needs.append((i, moved, fallen, reads))
        for rest, z_rest, _, _, _ in partition_walk(size):
            # rest[k-1] counts the k-cycles left unchosen, and z_rest is the
            # centralizer order of their type.
            for i, moved, fallen, reads in needs:
                # moved and fallen start at the vector's constants and take
                # the factors of each chosen size the walk reaches.
                for k0, move, fall in reads:
                    mk = rest[k0]
                    moved *= move[mk]
                    fallen *= fall[mk]
                totals[i] += fallen * (n_factorial // (z_rest * moved))
    return totals


def check_cycle_type_sweep(n: int, max_entry: int = 2, max_weight: int | None = None) -> None:
    """Refuse the sweep iter_pvectors(n, max_entry, max_weight) as
    decorated_permutation_counts would, before any p-vector is listed: the
    partition cap first, then the type-term cap on
    sum_w count[w] p(n - w) over the pvector_weight_counts. Only weights up
    to n read terms, so only they are counted. The refusal's message is the
    one decorated_permutation_counts gives the listed sweep, naming the
    sweep's sweep_size; where that is only a lower bound, which needs a
    weight bound above n, it says "at least" that many."""
    check_partition_cap(n)
    counts = pvector_weight_counts(n, max_entry, n if max_weight is None else min(max_weight, n))
    partitions = partition_counts(n)
    terms = sum(count * partitions[n - w] for w, count in enumerate(counts))
    if terms > permutations.DEFAULT_TYPE_TERM_CAP:
        vectors, exact = sweep_size(n, max_entry, max_weight)
        check_type_term_cap(n, vectors, terms, at_least=not exact)


def expected_products_by_type(n: int, ps: Sequence[Sequence[int]]) -> list[Fraction]:
    """Exact expectation for each p-vector in ps by summing over cycle types:
    each type contributes its falling-power product weighted by
    1/centralizer_order (decorated_permutation_counts over n!). Independent of
    the enumeration route. One walk of each partition table serves every p of
    the same weight. Degrees above DEFAULT_PARTITION_CAP, and more terms than
    DEFAULT_TYPE_TERM_CAP, raise CapExceededError before any sum."""
    counts = decorated_permutation_counts(n, ps)
    n_factorial = math.factorial(n)
    return [Fraction(count, n_factorial) for count in counts]


def expected_product_by_type(n: int, p: Sequence[int]) -> Fraction:
    """The cycle-type expectation for one p-vector: `expected_products_by_type`
    with ps = [p]."""
    return expected_products_by_type(n, [p])[0]


def cll_rhs(n: int, p: Sequence[int]) -> Fraction:
    """Closed form the expectation must equal: prod_k 1/k^{p_k} when the
    weight p_1 + 2 p_2 + ... + n p_n is at most n, else exactly 0."""
    pvec = validate_pvector(n, p)
    if weight(pvec) > n:
        return Fraction(0)
    denom = 1
    for k in itertools.compress(range(1, n + 1), pvec):
        denom *= k ** pvec[k - 1]
    return Fraction(1, denom)


def verify_clls(n: int, ps: Sequence[Sequence[int]], method: str = METHOD_BRUTE) -> list[MomentReport]:
    """Compare one exact method against the closed form, as exact rationals,
    for every p-vector in ps; the cycle-type route sums them all in one
    `expected_products_by_type` call. The method's degree cap is read
    first, so a refused degree lists no ps."""
    if method not in (METHOD_BRUTE, METHOD_CYCLE_TYPE):
        raise ValueError(f"unknown exact method {method!r}")
    brute = method == METHOD_BRUTE
    if brute:
        check_enumeration_cap(n)
    else:
        check_partition_cap(n)
    pvecs = [validate_pvector(n, p) for p in ps]
    lhss = [expected_product_brute(n, pvec) for pvec in pvecs] if brute else expected_products_by_type(n, pvecs)
    reports = []
    for pvec, lhs in zip(pvecs, lhss):
        rhs = cll_rhs(n, pvec)
        reports.append(MomentReport(n=n, p=pvec, method=method, lhs=lhs, rhs=rhs, equal=lhs == rhs))
    return reports


def verify_cll(n: int, p: Sequence[int], method: str = METHOD_BRUTE) -> MomentReport:
    """The report for one p-vector: `verify_clls` with ps = [p]."""
    return verify_clls(n, [p], method)[0]


def expected_total_cycles(n: int) -> Fraction:
    """Expected number of cycles of a uniform permutation: the n-th harmonic
    number 1 + 1/2 + ... + 1/n, exactly."""
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    return sum((Fraction(1, k) for k in range(1, n + 1)), Fraction(0))


def uncorrelated_check(n: int, j: int, k: int) -> MomentReport:
    """Verify E(c_j c_k) = E(c_j) E(c_k) exactly, which requires j != k and
    j + k <= n (beyond that the left side vanishes while the right does not)."""
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"cycle lengths must lie in 1..{n}, got j={j}, k={k}")
    if j == k:
        raise ValueError("cycle lengths must differ")
    if j + k > n:
        raise ValueError(f"j + k = {j + k} exceeds n = {n}; there the product identity fails")
    pair = tuple(1 if m in (j, k) else 0 for m in range(1, n + 1))
    ej = tuple(1 if m == j else 0 for m in range(1, n + 1))
    ek = tuple(1 if m == k else 0 for m in range(1, n + 1))
    lhs, mean_j, mean_k = expected_products_by_type(n, [pair, ej, ek])
    rhs = mean_j * mean_k
    return MomentReport(n=n, p=pair, method=METHOD_CYCLE_TYPE, lhs=lhs, rhs=rhs, equal=lhs == rhs)


def check_monte_carlo_degree(n: int) -> None:
    """Refuse a degree above MONTE_CARLO_MAX_N, before anything of that length
    is built."""
    if n > MONTE_CARLO_MAX_N:
        raise CapExceededError(f"degree {n} exceeds Monte Carlo cap {MONTE_CARLO_MAX_N}")


def _cycle_counts(lengths: list[int], divisors: list[int], fixes: Sequence[int]) -> list[int]:
    """c_k for each k in lengths, from fix(σ^d) = sum_{j | d} j c_j for each d
    in divisors, which holds every divisor of every k: solved for d c_d in
    increasing d (Möbius inversion)."""
    points: dict[int, int] = {}  # d -> d c_d, the points on d-cycles
    for d, fix in zip(divisors, fixes):
        points[d] = fix - sum(count for j, count in points.items() if d % j == 0)
    return [points[k] // k for k in lengths]


def _fixed_point_counts(images: list[int], passes: Iterator[None], divisors: list[int]) -> Iterator[tuple[int, ...]]:
    """After each pass, fix(σ^d) for each d in divisors, 1 first, where σ is
    the image list of at most 256 points: σ^d is σ^(d-1) translated through
    σ's bytes, and i is fixed by σ^d when its byte in σ^d XOR the identity's
    bytes is 0."""
    n = len(images)
    pad = bytes(256 - n)
    identity = int.from_bytes(bytes(range(n)) * len(divisors), "little")
    size = n * len(divisors)
    steps = [d in divisors for d in range(2, divisors[-1] + 1)]
    starts = range(0, size, n)
    ends = range(n, size + 1, n)
    zeros = [0] * len(divisors)
    for _ in passes:
        power = powers = bytearray(images)
        table = powers + pad
        for wanted in steps:
            power = power.translate(table)
            if wanted:
                powers += power
        moved = (int.from_bytes(powers, "little") ^ identity).to_bytes(size, "little")
        yield (*map(moved.count, zeros, starts, ends),)


def monte_carlo_moments(n: int, ps: Sequence[Sequence[int]], samples: int, seed: int) -> list[MomentReport]:
    """Sample mean and standard error of prod_k c_k^(p_k falling), one report
    per p-vector in ps, all read from one stream of uniform permutations.

    The samples are the passes of one `SplitMix64.shuffles` run over one
    image list, so each equals the one a separate `shuffle` call per sample
    gives; each report's sums are exact integers, so it equals the report of
    a run with its p-vector alone. Deterministic given (n, ps, samples, seed).

    Only the lengths k chosen by a p-vector of weight at most n are counted:
    a heavier one reads 0 on every permutation. Let top be the longest and m
    the number of their divisors. When n <= 256 and
    _POWER_POINTS * (top + 3 m) <= n (at n = 100: k = 1, 2, 3, 5 and the four
    together), a sample's key is fix(σ^d) for each divisor d, from
    byte-translated powers (`_fixed_point_counts`), inverted to c_k by
    `_cycle_counts`; else it is the chosen lengths' entries of
    `image_cycle_counts`. The keys are tallied in runs of about
    _TALLY_ENTRIES counts, and the falling-power products and their squares
    are added once per distinct key of a run.

    The seed must lie in 0..2^64-1, the states SplitMix64 has: any other
    integer would be read mod 2^64 and reported as given, so it is refused.
    """
    check_monte_carlo_degree(n)
    pvecs = [validate_pvector(n, p) for p in ps]
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in 0..2^64-1, got {seed}")
    live = [(i, pvec) for i, pvec in enumerate(pvecs) if weight(pvec) <= n]
    lengths = sorted({k for _, pvec in live for k in itertools.compress(range(1, n + 1), pvec)})
    needs = [(i, [pvec[k - 1] for k in lengths]) for i, pvec in live]
    # Bytes name at most 256 points.
    divisors = sorted({d for k in lengths for d in range(1, k + 1) if k % d == 0}) if n <= 256 else []
    images = list(range(n))
    passes = SplitMix64(seed).shuffles(images, samples)
    # counts_of(key) lists c_k for the chosen lengths; a walk's key is that list.
    counts_of = tuple
    if divisors and _POWER_POINTS * (lengths[-1] + 3 * len(divisors)) <= n:
        keys = _fixed_point_counts(images, passes, divisors)
        counts_of = functools.partial(_cycle_counts, lengths, divisors)
    else:
        # (*map(...),): each tuple(map(...)) would be shrunk, and CPython
        # would keep 2 000 of them on a free list (0.1 MB at length 4).
        at = [k - 1 for k in lengths]
        keys = ((*map(image_cycle_counts(images).__getitem__, at),) for _ in passes)
    # A key holds at most max(len(lengths), len(divisors)) counts. With no
    # chosen length every sample has the one key (), and nothing is drawn.
    fold = max(_TALLY_ENTRIES // max(len(lengths), len(divisors), 1), 1)
    tallies = (Counter(itertools.islice(keys, fold)) for _ in range(0, samples, fold)) if lengths else [{(): samples}]
    totals = [0] * len(pvecs)
    totals_sq = [0] * len(pvecs)
    for tally in tallies:
        for key, count in tally.items():
            counts = counts_of(key)
            for i, need in needs:
                value = math.prod(map(falling_power, counts, need))
                totals[i] += count * value
                totals_sq[i] += count * value * value
    reports = []
    for pvec, total, total_sq in zip(pvecs, totals, totals_sq):
        # A zero spread reads 0.0 exactly, with no float of samples.
        standard_error = 0.0
        if total_sq * samples != total * total:
            variance = (total_sq - total * total / samples) / (samples - 1)
            standard_error = math.sqrt(max(variance, 0.0) / samples)
        reports.append(MomentReport(
            n=n,
            p=pvec,
            method=METHOD_MONTE_CARLO,
            rhs=cll_rhs(n, pvec),
            estimate=total / samples,
            standard_error=standard_error,
            samples=samples,
            seed=seed,
        ))
    return reports


def monte_carlo_moment(n: int, p: Sequence[int], samples: int, seed: int) -> MomentReport:
    """The Monte Carlo report for one p-vector: `monte_carlo_moments` with ps = [p]."""
    return monte_carlo_moments(n, [p], samples, seed)[0]
