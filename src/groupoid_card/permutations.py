"""Permutations of {0, ..., n-1}: cycle structure, conjugation, enumeration.

Everything is pure and immutable. Enumeration streams are deterministic
(lexicographic on image tuples) and restartable.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 10
DEFAULT_PARTITION_CAP = 40
# Most cycle-type terms one exact sum over cycle types may read: the
# partitions of n - |p|, summed over its p-vectors. A term takes about 0.8 us
# on a shared 2-core x86-64 host under Python 3.11 (the degree-40 sweep
# below as a subprocess, 2.4 s in all, median of 5 runs of 2.3-2.6 s), so a
# call stays under about 5 s there, and every default --all-p sweep up to
# DEFAULT_PARTITION_CAP fits (degree 40 reads 3 225 386 terms).
DEFAULT_TYPE_TERM_CAP = 4_000_000
# Most p-vectors one sweep may list, read by iter_pvectors when its first
# vector is asked for. The largest default sweep that the degree caps let
# run, degree 40, lists 39 636.
DEFAULT_SWEEP_CAP = 1_000_000


class CapExceededError(ValueError):
    """A request would exceed a configured desk-scale cap."""


def integer_entries(values: Iterable, what: str) -> tuple[int, ...]:
    """The entries of values read with operator.index, so that an entry such
    as 1.5 raises ValueError naming it, what[i], where int() would truncate it."""
    entries = tuple(values)
    for i, x in enumerate(entries):
        if not hasattr(type(x), "__index__"):
            raise ValueError(f"{what}[{i}] must be an integer, got {x!r}")
    return tuple(map(operator.index, entries))


# The one integer grammar of text input: an optional sign and ASCII digits,
# with no blank, underscore or other digit around or between them.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_integer(text: str) -> int:
    """The integer text spells in the grammar above, or a ValueError naming
    text. int() alone would also take "1_0", " 1" and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(f"{text!r} is not an integer: expected an optional sign and ASCII digits")
    return int(text)


Cycle = tuple[int, ...]


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0, ..., n-1}, stored as its tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        images = integer_entries(self.images, "images")
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"images {images!r} are not a bijection of 0..{len(images) - 1}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def compose(self, other: "Permutation") -> "Permutation":
        """(self * other)(x) = self(other(x)): the right factor acts first."""
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        simg, oimg = self.images, other.images
        return Permutation(tuple(simg[i] for i in oimg))

    __mul__ = compose

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


def canonical_cycle(entries: Sequence[int]) -> Cycle:
    """Rotate a cycle so its minimum entry comes first."""
    entries = tuple(entries)
    if not entries:
        raise ValueError("a cycle cannot be empty")
    i = entries.index(min(entries))
    return entries[i:] + entries[:i]


def cycle_decomposition(sigma: Permutation) -> list[Cycle]:
    """Disjoint cycles covering all points, fixed points included as 1-cycles.

    Each cycle starts at its minimum entry and the list is sorted by that
    minimum, so equal permutations decompose identically.
    """
    images = sigma.images
    seen = bytearray(len(images))
    cycles: list[Cycle] = []
    for start in range(len(images)):
        if seen[start]:
            continue
        entry = start
        cycle = [entry]
        seen[entry] = 1
        entry = images[entry]
        while entry != start:
            cycle.append(entry)
            seen[entry] = 1
            entry = images[entry]
        cycles.append(tuple(cycle))
    return cycles


def cycle_counts(sigma: Permutation) -> tuple[int, ...]:
    """All cycle counts at once: entry k-1 is the number of k-cycles."""
    return image_cycle_counts(sigma.images)


def image_cycle_counts(images: Sequence[int]) -> tuple[int, ...]:
    """cycle_counts of a tuple of images that is already known to be a
    bijection of 0..n-1; it is not checked."""
    n = len(images)
    counts = [0] * n
    seen = [False] * n
    left = n
    for start in range(n):
        if seen[start]:
            continue
        # Starts only move forward, so start itself need not be marked.
        length = 1
        entry = images[start]
        while entry != start:
            seen[entry] = True
            entry = images[entry]
            length += 1
        counts[length - 1] += 1
        left -= length
        if not left:
            break
    return tuple(counts)


@dataclass(frozen=True)
class CycleType:
    """Multiplicity vector of cycle lengths: multiplicities[k-1] = #k-cycles."""

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        mult = integer_entries(self.multiplicities, "multiplicities")
        object.__setattr__(self, "multiplicities", mult)
        if any(x < 0 for x in mult):
            raise ValueError(f"negative multiplicity in {mult!r}")

    @property
    def degree(self) -> int:
        return sum(k * mk for k, mk in enumerate(self.multiplicities, start=1))

    def partition(self) -> tuple[int, ...]:
        """Cycle lengths in weakly decreasing order."""
        parts: list[int] = []
        for k in range(len(self.multiplicities), 0, -1):
            parts.extend([k] * self.multiplicities[k - 1])
        return tuple(parts)

    def centralizer_order(self) -> int:
        """prod_k k^{m_k} m_k!, the size of the conjugation stabilizer."""
        z = 1
        for k, mk in enumerate(self.multiplicities, start=1):
            z *= k**mk * math.factorial(mk)
        return z


def partition_walk(n: int) -> Iterator[tuple[list[int], int, list[int], int]]:
    """Walk the partitions of n in reverse lexicographic order, by Knuth,
    TAOCP Vol. 4A, 7.2.1.4, Algorithm P, yielding the walk's live state at
    each visit as (mult, z, a, m):

    - mult[k-1] counts the parts of size k, for k in 1..n;
    - z = prod_k k^{m_k} m_k! is their centralizer order;
    - a[1..m] are the parts, weakly decreasing.

    mult and a are the walk's own lists, rewritten by the next step: a
    caller reads them and keeps nothing of them, and never writes to them.

    Each step rewrites only a suffix of the partition, so mult is moved
    only at the part sizes the step changes, and z by one multiply and one
    exact division by small integers and the factorials up to n. When a 2
    becomes 1 + 1, with t 2s and o 1s, that is (o + 1)(o + 2) / 2t.
    Otherwise the last part above 1, x + 1, drops to x, and it and the o
    1s after it are refilled as j more parts x and a last part r <= x:
    x^{j+1} (d + j + 1)! r (e + 1) / ((x + 1) c o! d!), with c, d and e the
    counts of parts x + 1, x and r just before each is moved, in that
    order. Nothing for n < 0; for n = 0 one visit with no part, mult empty
    and z = 1."""
    if n < 0:
        return
    mult = [0] * n
    # a[0] = 0 stops the scan for a 2, and q indexes the last part greater
    # than 1.
    a = [0] * (n + 1)
    if n == 0:
        yield mult, 1, a, 0
        return
    factorials = [math.factorial(k) for k in range(n + 1)]
    mult[n - 1] = 1
    z = n
    m, rest = 1, n
    while True:
        a[m] = rest
        q = m - (rest == 1)
        while True:
            yield mult, z, a, m
            if a[q] != 2:
                break
            twos, ones = mult[1], mult[0]
            z = z * ((ones + 1) * (ones + 2)) // (2 * twos)
            mult[1] = twos - 1
            mult[0] = ones + 2
            a[q] = 1
            q -= 1
            m += 1
            a[m] = 1
        if q == 0:
            return
        # a[q] = x + 1 > 2 drops to x; the 1s after it, all of mult[0], and
        # the unit it lost, ones + 1 in all, are refilled as j more parts x
        # and a last part rest <= x.
        x = a[q] - 1
        ones = m - q
        j, rest = divmod(ones, x)
        rest += 1
        c = mult[x]
        mult[x] = c - 1
        mult[0] = 0
        d = mult[x - 1]
        mult[x - 1] = d + j + 1
        e = mult[rest - 1]
        mult[rest - 1] = e + 1
        z = z * (x ** (j + 1) * factorials[d + j + 1] * rest * (e + 1)) // ((x + 1) * c * factorials[ones] * factorials[d])
        a[q] = x
        a[q + 1 : q + 1 + j] = [x] * j
        m = q + 1 + j


def cycle_type_table(n: int) -> Iterator[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Every cycle type of degree n as (multiplicities, centralizer order,
    partition), with multiplicities of length n and the partition's parts
    weakly decreasing, in partition_walk's order: fresh tuples of its live
    state at each visit. Nothing for n < 0; one empty type for n = 0."""
    for mult, z, a, m in partition_walk(n):
        yield tuple(mult), z, tuple(a[1 : m + 1])


def partition_counts(n: int) -> list[int]:
    """The number of partitions of each degree 0..n, counted by adding parts
    of each size in turn; no partition is listed."""
    counts = [1] + [0] * n
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            counts[m] += counts[m - k]
    return counts


def all_cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types of degree n, i.e. integer partitions of n, as
    length-n multiplicity vectors. Parts are generated largest-first."""
    for mult, _, _ in cycle_type_table(n):
        yield CycleType(mult)


def check_enumeration_cap(n: int) -> None:
    """Refuse a degree above DEFAULT_ENUMERATION_CAP, read at call time,
    before anything is enumerated."""
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(f"degree {n} exceeds enumeration cap {DEFAULT_ENUMERATION_CAP}")


def check_partition_cap(n: int) -> None:
    """Refuse a degree above DEFAULT_PARTITION_CAP, before any partition is listed."""
    if n > DEFAULT_PARTITION_CAP:
        raise CapExceededError(f"degree {n} exceeds partition cap {DEFAULT_PARTITION_CAP}")


def check_type_term_cap(n: int, vectors: int, terms: int, at_least: bool = False) -> None:
    """Refuse an exact sum over cycle types for vectors p-vectors at degree n
    (at least that many, when at_least) that reads more than
    DEFAULT_TYPE_TERM_CAP terms, read at call time, before any term is read."""
    if terms > DEFAULT_TYPE_TERM_CAP:
        raise CapExceededError(
            f"{'at least ' if at_least else ''}{vectors} p-vectors at degree {n} read {terms} cycle-type terms, "
            f"above the type-term cap {DEFAULT_TYPE_TERM_CAP}"
        )


def enumerate_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations, lexicographic in the image tuple, each exactly once."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    check_enumeration_cap(n)
    return (Permutation(images) for images in itertools.permutations(range(n)))


def lex_rank(images: Sequence[int]) -> int:
    """Position of an image tuple in the lexicographic enumeration of its degree."""
    n = len(images)
    rank = 0
    for i in range(n):
        smaller = sum(1 for j in range(i + 1, n) if images[j] < images[i])
        rank += smaller * math.factorial(n - 1 - i)
    return rank


# falling_power(x, p) = x(x-1)...(x-p+1); the number of ordered p-tuples of
# distinct items chosen from x. Empty product for p = 0; zero when p > x;
# ValueError for a negative p.
falling_power = math.perm


class _PVector(tuple):
    """A checked p-vector. Only validate_pvector and iter_pvectors build one."""


def validate_pvector(n: int, p: Sequence[int]) -> tuple[int, ...]:
    """Check that p has length n and nonnegative integer entries. The tuple
    returned is marked as checked and is handed back as it is when it comes
    in again for degree n, so a call chain that passes it on checks each
    p-vector once."""
    if type(p) is _PVector and len(p) == n:
        return p
    pvec = integer_entries(p, "p-vector")
    if len(pvec) != n:
        raise ValueError(f"p-vector has length {len(pvec)}, expected degree {n}")
    if any(x < 0 for x in pvec):
        raise ValueError(f"p-vector entries must be nonnegative: {pvec!r}")
    return _PVector(pvec)


def weight(p: Sequence[int]) -> int:
    """The weighted sum p_1 + 2 p_2 + ... + n p_n."""
    return sum(map(operator.mul, itertools.count(1), p))


def iter_pvectors(n: int, max_entry: int = 2, max_weight: int | None = None) -> Iterator[tuple[int, ...]]:
    """All p-vectors of length n with entries <= max_entry and weight <= max_weight
    (default n), in lexicographic order, each checked, so validate_pvector
    hands it back as it is. At the first step a sweep whose sweep_size is
    above DEFAULT_SWEEP_CAP, read then, is refused with CapExceededError.

    The vectors are counted like an odometer: each step raises the last
    entry p_k that is below max_entry and whose k fits in the weight still
    left, and sets the entries after it to 0, so no vector over the weight
    is built."""
    count, _ = sweep_size(n, max_entry, max_weight)
    if count > DEFAULT_SWEEP_CAP:
        raise CapExceededError(f"the sweep lists at least {count} p-vectors at degree {n}, above the sweep cap {DEFAULT_SWEEP_CAP}")
    if not count:
        return
    p = [0] * n
    left = n if max_weight is None else max_weight
    while True:
        yield _PVector(p)
        k = n
        while k:
            pk = p[k - 1]
            if pk < max_entry and k <= left:
                p[k - 1] = pk + 1
                left -= k
                break
            left += k * pk
            p[k - 1] = 0
            k -= 1
        else:
            return


def pvector_weight_counts(n: int, max_entry: int = 2, max_weight: int | None = None) -> list[int]:
    """counts[w] = the number of p-vectors of weight w that
    iter_pvectors(n, max_entry, max_weight) yields, for w from 0 up to the
    largest weight reached; nothing is listed. The coordinates are added one
    at a time: with p_k free in 0..max_entry, the new count at w sums the old
    counts at w, w - k, ..., w - max_entry k, a window slid along w."""
    if n < 0:
        raise ValueError(f"p-vector length must be nonnegative, got {n}")
    if max_weight is None:
        max_weight = n
    if max_weight < 0 or (n and max_entry < 0):
        return []
    top = min(max_weight, max_entry * n * (n + 1) // 2)
    counts = [1] + [0] * top
    for k in range(1, n + 1):
        span = (max_entry + 1) * k
        added = counts[:]
        for w in range(k, top + 1):
            added[w] += added[w - k]
            if w >= span:
                added[w] -= counts[w - span]
        counts = added
    return counts


def sweep_size(n: int, max_entry: int = 2, max_weight: int | None = None) -> tuple[int, bool]:
    """The number of p-vectors iter_pvectors(n, max_entry, max_weight)
    yields and True, or a lower bound above DEFAULT_SWEEP_CAP, read at call
    time, and False; nothing is listed. Both sweep refusals name it. A
    negative bound lists none, and a weight bound at or above the largest
    weight, max_entry n(n+1)/2, lists all (max_entry + 1)^n. Else every
    p-vector with p_k <= max_weight // (k n) for each k has weight at most
    max_weight, so the product of those ranges bounds the count from below.
    Only a bound at or under the cap is followed by the exact count, the sum
    of pvector_weight_counts, and the bound keeps the weights it spans to
    about DEFAULT_SWEEP_CAP at most."""
    if n < 0:
        raise ValueError(f"p-vector length must be nonnegative, got {n}")
    if max_weight is None:
        max_weight = n
    if max_weight < 0 or (n and max_entry < 0):
        return 0, True
    if max_entry * n * (n + 1) // 2 <= max_weight:
        return (max_entry + 1) ** n, True
    count = 1
    for k in range(1, n + 1):
        count *= min(max_entry, max_weight // (k * n)) + 1
    if count > DEFAULT_SWEEP_CAP:
        return count, False
    return sum(pvector_weight_counts(n, max_entry, max_weight)), True


# For each k with p_k > 0: (k, ordered tuple of p_k distinct canonical cycles).
CycleTupleChoice = tuple[tuple[int, tuple[Cycle, ...]], ...]


def list_cycle_tuples(sigma: Permutation, p: Sequence[int]) -> Iterator[CycleTupleChoice]:
    """Every way to choose, for each k, an ordered p_k-tuple of distinct
    k-cycles of sigma. Yields prod_k falling_power(c_k(sigma), p_k) choices;
    nothing when some p_k exceeds the available k-cycles."""
    pvec = validate_pvector(sigma.degree, p)
    by_length: dict[int, list[Cycle]] = {}
    for cyc in cycle_decomposition(sigma):
        by_length.setdefault(len(cyc), []).append(cyc)
    ks: list[int] = []
    streams: list[list[tuple[Cycle, ...]]] = []
    for k, pk in enumerate(pvec, start=1):
        if pk == 0:
            continue
        ks.append(k)
        streams.append(list(itertools.permutations(by_length.get(k, []), pk)))
    for combo in itertools.product(*streams):
        yield tuple(zip(ks, combo))
