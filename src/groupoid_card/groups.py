"""Finite groups with dense integer element indices 0..order-1.

Cyclic, symmetric and product groups multiply structurally; arbitrary groups
come in through validated Cayley tables. All instances are immutable and all
operations are pure. A conjugation row is computed with mul and inv when it
is first read, and kept. No group keeps a full |G|^2 table: a formula
functor's law check keeps only the conjugation rows of its generators, and
a data functor's conjugates only the elements of nonempty fibers, keeping
no row.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import index, itemgetter
from typing import NamedTuple, Sequence

from .permutations import CapExceededError, Permutation, integer_entries, lex_rank

DEFAULT_CAYLEY_ORDER_CAP = 256


class SpanningTree(NamedTuple):
    """A breadth-first spanning tree of a group over its generators, in
    positions: position j stands for elements[j], the identity at 0.

    products[i][j] is the position of generators[i] * elements[j], so each
    generator's products are a permutation of the positions. steps lists
    the tree's edges a block at a time, in the order reached: step
    (i, parents) reaches the next len(parents) positions, the m-th of them
    being generators[i] * elements[parents[m]]. A value v_j kept per
    position is therefore filled along the tree, from v_0, by one map per
    step."""

    generators: list[int]
    elements: list[int]
    products: list[list[int]]
    steps: list[tuple[int, list[int]]]


class GroupValidationError(ValueError):
    """A group axiom failed; carries the axiom name and a witnessing tuple."""

    def __init__(self, axiom: str, witness: tuple | None, message: str):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class FiniteGroup:
    """Base class. Elements are the indices 0..order-1; the identity is 0
    unless a subclass says otherwise."""

    name = "group"
    order = 1
    # Set by every subclass when it is built; none is assumed, so a
    # subclass that sets none fails on the first read.
    _generators: list[int]

    def __init__(self) -> None:
        self._conj_rows: dict[int, list[int]] = {}
        self._tree: SpanningTree | None = None

    @property
    def identity(self) -> int:
        return 0

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def elements(self) -> range:
        return range(self.order)

    def check_element(self, a: int) -> int:
        a = index(a)
        if not 0 <= a < self.order:
            raise ValueError(f"element index {a} out of range for {self.name} of order {self.order}")
        return a

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1, the result of conjugating g by h, read from row h."""
        g = self.check_element(g)
        return self.conjugation_row(h)[g]

    def conjugation_row(self, h: int) -> list[int]:
        """h g h^-1 for g in 0..order-1, computed with mul and inv on the
        first read (2|G| products) and kept; callers must not modify it."""
        h = self.check_element(h)
        rows = self._conjugation_table()
        row = rows.get(h)
        if row is None:
            mul, hinv = self.mul, self.inv(h)
            row = rows[h] = [mul(mul(h, g), hinv) for g in range(self.order)]
        return row

    def _conjugation_table(self) -> dict[int, list[int]]:
        """The conjugation rows read so far, by h."""
        return self._conj_rows

    def generators(self) -> list[int]:
        """The group's one generating set, chosen by its class (none is
        assumed): every law check compares over it, and spanning_tree()
        closes over it. The list is kept; callers must not modify it."""
        return self._generators

    def spanning_tree(self) -> SpanningTree:
        """A breadth-first spanning tree of the group over generators(),
        built on the first call and kept; ValueError if they miss an
        element.

        Each element is multiplied once by each generator, in index order,
        and the tree is laid out from those products. The reached set is
        closed a level at a time, one generator after another, so the
        children of one generator in one level take consecutive positions
        (one step), and every product is kept by position."""
        if self._tree is None:
            mul, order, generators = self.mul, self.order, self.generators()
            # moved_by[i][g] = generators[i] * g.
            moved_by = [list(map(mul, repeat(s, order), range(order))) for s in generators]
            elements = [self.identity]
            position = [-1] * order
            position[self.identity] = 0
            products = [[0] * order for _ in generators]
            steps: list[tuple[int, list[int]]] = []
            frontier = range(1)
            while frontier:
                for i, moved in enumerate(moved_by):
                    row, parents = products[i], []
                    for j in frontier:
                        parent = elements[j]
                        child = moved[parent]
                        if position[child] < 0:
                            position[child] = len(elements)
                            elements.append(child)
                            # position[parent] is j, as the int the products
                            # already hold, so the steps make none of their own.
                            parents.append(position[parent])
                        row[j] = position[child]
                    if parents:
                        steps.append((i, parents))
                frontier = range(frontier.stop, len(elements))
            if len(elements) < order:
                raise ValueError(f"the generators {generators} of {self.name} reach {len(elements)} of its {order} elements")
            self._tree = SpanningTree(generators, elements, products, steps)
        return self._tree

    def multiplication_table(self) -> list[list[int]]:
        """Full Cayley table; round-trips through from_cayley_table."""
        return [[self.mul(a, b) for b in self.elements()] for a in self.elements()]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} of order {self.order}>"


class CyclicGroup(FiniteGroup):
    """Z/k with addition mod k."""

    def __init__(self, k: int):
        super().__init__()
        if k < 1:
            raise ValueError(f"cyclic group order must be at least 1, got {k}")
        self.order = k
        self.name = f"Z/{k}"
        self._generators = [1] if k > 1 else []

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order


class SymmetricGroup(FiniteGroup):
    """S_n: elements are permutations of {0..n-1}, indexed by lexicographic
    rank of their image tuples. Multiplication is composition, right factor
    first: (sigma * tau)(x) = sigma(tau(x)). Every element operation reads
    one pair of tables, all n! image tuples and their ranks, built on first
    use; the generators, ranked when the group is built, build none."""

    def __init__(self, n: int):
        super().__init__()
        if n < 0:
            raise ValueError(f"symmetric group degree must be nonnegative, got {n}")
        self.n = n
        self.order = math.factorial(n)
        self.name = f"S{n}"
        self._images: tuple[tuple[int, ...], ...] | None = None
        self._rank_of: dict[tuple[int, ...], int] | None = None
        # s = (0 1) and t = (0 1 ... n-1), ranked with lex_rank, so no
        # element table is built; S2 has s alone, and S0 and S1 none.
        self._generators = [lex_rank((1, 0, *range(2, n)))] if n >= 2 else []
        if n > 2:
            self._generators.append(lex_rank((*range(1, n), 0)))

    def _tables(self) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
        """The image tuple of every rank and the rank of every image tuple,
        built on the first call and kept."""
        if self._images is None:
            import itertools

            self._images = tuple(itertools.permutations(range(self.n)))
            self._rank_of = {images: i for i, images in enumerate(self._images)}
        return self._images, self._rank_of

    def images_at(self, a: int) -> tuple[int, ...]:
        """The image tuple of element a, without building a Permutation."""
        return self._tables()[0][self.check_element(a)]

    def image_table(self) -> tuple[tuple[int, ...], ...]:
        """The image tuple of every element, indexed by rank: the group's own
        table, read-only, so a walk of all n! elements copies nothing."""
        return self._tables()[0]

    def permutation_at(self, a: int) -> Permutation:
        return Permutation(self.images_at(a))

    def mul(self, a: int, b: int) -> int:
        images, rank_of = self._tables()
        fa, fb = images[a], images[b]
        # itemgetter of one index returns a bare item, not a tuple; below
        # degree 2 the only permutation is the identity, so fa is the product.
        product = itemgetter(*fb)(fa) if self.n > 1 else fa
        return rank_of[product]

    def inv(self, a: int) -> int:
        images, rank_of = self._tables()
        out = [0] * self.n
        for i, img in enumerate(images[a]):
            out[img] = i
        return rank_of[tuple(out)]


class ProductGroup(FiniteGroup):
    """Direct product; the pair (a, b) is packed as a * |H| + b."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        super().__init__()
        self.left = left
        self.right = right
        self.order = left.order * right.order
        self.name = f"({left.name}x{right.name})"
        # Each factor's generators, embedded: the left factor's first.
        m = right.order
        self._generators = [a * m + right.identity for a in left.generators()] + [
            left.identity * m + b for b in right.generators()]

    def _split(self, a: int) -> tuple[int, int]:
        return divmod(a, self.right.order)

    def mul(self, a: int, b: int) -> int:
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return self.left.mul(a1, b1) * self.right.order + self.right.mul(a2, b2)

    def inv(self, a: int) -> int:
        a1, a2 = self._split(a)
        return self.left.inv(a1) * self.right.order + self.right.inv(a2)


class CayleyGroup(FiniteGroup):
    """Group given by an explicit multiplication table, validated by
    from_cayley_table. Its generators are the set that the table's
    associativity check compares over (_magma_generators), less the
    identity, so each index not in the subgroup generated so far, in index
    order: read off the table on the first read, or kept by
    from_cayley_table, which has chosen them already."""

    name = "cayley"

    def __init__(self, table: tuple[tuple[int, ...], ...], identity: int, inverses: tuple[int, ...]):
        super().__init__()
        self.order = len(table)
        self.table = table
        self._identity = identity
        self._inverses = inverses
        self._generators: list[int] | None = None

    def generators(self) -> list[int]:
        if self._generators is None:
            self._generators = [s for s in _magma_generators(self.table) if s != self._identity]
        return self._generators

    @property
    def identity(self) -> int:
        return self._identity

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inverses[a]


@lru_cache(maxsize=None)
def make_cyclic(k: int) -> CyclicGroup:
    """Z/k; rejects k = 0."""
    return CyclicGroup(k)


@lru_cache(maxsize=None)
def make_symmetric(n: int) -> SymmetricGroup:
    """S_n of order n! (the trivial group for n = 0)."""
    return SymmetricGroup(n)


def make_product(left: FiniteGroup, right: FiniteGroup) -> ProductGroup:
    """Direct product with componentwise operations."""
    return ProductGroup(left, right)


def from_cayley_table(table: Sequence[Sequence[int]]) -> CayleyGroup:
    """Build a group from an m x m table of element indices, checking closure,
    associativity, a two-sided identity and inverses, in that order.

    Associativity is checked exhaustively over a generating set (Light's
    test; Clifford & Preston, The Algebraic Theory of Semigroups, vol. 1,
    1961, 1.2). The set A of the b with (x b) y = x (b y) for all x, y is
    closed under the product: for a, b in A,
    (x (a b)) y = ((x a) b) y = (x a) (b y) = x (a (b y)) = x ((a b) y),
    each step one use of a or b being in A. So a set S of members of A that
    generates the table under the product makes A everything: the table is
    associative. S is chosen greedily (_magma_generators) and no group axiom
    is assumed; a group table gets at most floor(log2 m) + 1 of them, so a
    passing table costs about m^2 |S| lookups, not m^3, and S less the
    identity is the group's generators(). A table that fails is scanned
    over all m^3 triples in lexicographic order, so the witness is always
    the lowest failing triple.

    Raises GroupValidationError naming the first failing axiom and a witness.
    Orders above DEFAULT_CAYLEY_ORDER_CAP, which bounds that m^3 scan, are
    refused.
    """
    m = len(table)
    if m == 0:
        raise GroupValidationError("shape", None, "a group table cannot be empty")
    if m > DEFAULT_CAYLEY_ORDER_CAP:
        raise CapExceededError(f"table order {m} exceeds associativity validation cap {DEFAULT_CAYLEY_ORDER_CAP}")
    rows: list[tuple[int, ...]] = []
    for i, row in enumerate(table):
        # A row is read per entry, for its message, only when it fails.
        entries = tuple(row)
        if not set(map(type, entries)) <= {int}:
            entries = integer_entries(entries, f"table[{i}]")
        if len(entries) != m:
            raise GroupValidationError("shape", (i,), f"row {i} has length {len(entries)}, expected {m}")
        if min(entries) < 0 or max(entries) >= m:
            for j, x in enumerate(entries):
                if not 0 <= x < m:
                    raise GroupValidationError("closure", (i, j), f"entry table[{i}][{j}] = {x} is outside 0..{m - 1}")
        rows.append(entries)
    tbl = tuple(rows)

    generators = _magma_generators(tbl)
    # Each (s, x) is one row compare: row (x s) against x read along row s.
    if any(tbl[row_x[s]] != tuple(map(row_x.__getitem__, tbl[s])) for s in generators for row_x in tbl):
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]:
                        raise GroupValidationError(
                            "associativity", (a, b, c),
                            f"associativity fails at triple ({a}, {b}, {c}): ({a}*{b})*{c} = {tbl[tbl[a][b]][c]} but {a}*({b}*{c}) = {tbl[a][tbl[b][c]]}",
                        )

    identity = None
    for e in range(m):
        if all(tbl[e][g] == g and tbl[g][e] == g for g in range(m)):
            identity = e
            break
    if identity is None:
        raise GroupValidationError("identity", None, "no two-sided identity element")

    inverses = []
    for g in range(m):
        h = next((h for h in range(m) if tbl[g][h] == identity and tbl[h][g] == identity), None)
        if h is None:
            raise GroupValidationError("inverse", (g,), f"element {g} has no two-sided inverse")
        inverses.append(h)

    group = CayleyGroup(tbl, identity, tuple(inverses))
    group._generators = [s for s in generators if s != identity]
    return group


def _magma_generators(table: tuple[tuple[int, ...], ...]) -> list[int]:
    """A set that generates the table under its product, chosen greedily:
    each index not yet reached, in index order, joins it, and the reached
    set is closed again under every product of two members, both ways
    round. Each ordered pair of members is multiplied once."""
    columns = list(zip(*table))
    reached: set[int] = set()
    members: list[int] = []
    generators: list[int] = []
    done = 0
    for g in range(len(table)):
        if g in reached:
            continue
        generators.append(g)
        reached.add(g)
        members.append(g)
        while done < len(members):
            e = members[done]
            done += 1
            # Products of e with the members handled so far, e included.
            handled = members[:done]
            new = set(map(table[e].__getitem__, handled))
            new.update(map(columns[e].__getitem__, handled))
            new -= reached
            reached |= new
            members.extend(new)
    return generators


def json_int(value, what: str) -> int:
    """A JSON integer (not a bool, float or string), or a ValueError naming what it is."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def from_cayley_json(data: dict) -> CayleyGroup:
    """Ingest {"order": m, "table": [[...]]} and validate it as a group.
    Anything but a list of lists of integers is rejected before validation."""
    if not isinstance(data, dict) or "order" not in data or "table" not in data:
        raise ValueError('Cayley JSON must be an object with "order" and "table" keys')
    order = json_int(data["order"], "Cayley order")
    table = data["table"]
    if not isinstance(table, list) or not all(isinstance(row, list) for row in table):
        raise ValueError("Cayley table must be a list of rows, each a list of element indices")
    if len(table) != order:
        raise ValueError(f"declared order {order} does not match table size {len(table)}")
    for i, row in enumerate(table):
        # A row is read per entry, for its message, only when it fails.
        if not set(map(type, row)) <= {int}:
            for j, x in enumerate(row):
                json_int(x, f"Cayley table entry [{i}][{j}]")
    return from_cayley_table(table)


def to_cayley_json(group: FiniteGroup) -> dict:
    """Export any group's multiplication table in the ingestible JSON shape."""
    return {"order": group.order, "table": group.multiplication_table()}

