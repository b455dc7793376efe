"""Finite groups with dense integer element indices 0..order-1.

Cyclic, symmetric and product groups multiply structurally; arbitrary groups
come in through validated Cayley tables. All instances are immutable and all
operations are pure. A conjugation row is computed when it is first read
and kept: from mul and inv, or, once the spanning tree exists, composed from
the rows of its tree parent and generator. A multiplication row is computed
on each read. No group keeps a full |G|^2 table: a passing law check reads
only the rows of its generators.
"""

from __future__ import annotations

import math
from functools import lru_cache
from operator import index, itemgetter
from typing import Callable, Sequence

from .permutations import CapExceededError, Permutation, integer_entries, lex_rank

DEFAULT_CAYLEY_ORDER_CAP = 256
# Generators, and relations as pairs of words in them (FiniteGroup.presentation).
_Presentation = tuple[list[int], list[tuple[tuple[int, ...], tuple[int, ...]]]]


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

    def __init__(self) -> None:
        self._conj_rows: dict[int, list[int]] = {}
        self._tree: tuple[list[int], list[tuple[int, int, int]]] | None = None
        # The tree edge of each element whose parent is not the identity, by child.
        self._tree_steps: dict[int, tuple[int, int, int]] | None = None
        self._conjugator: Callable[[int, int], int] | None = None

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
        """h g h^-1, the result of conjugating g by h."""
        return self.conjugator()(self.check_element(g), self.check_element(h))

    def conjugator(self) -> Callable[[int, int], int]:
        """conjugate without the index checks, for callers that conjugate
        valid indices many times: one read of row h, filled on first use."""
        if self._conjugator is None:
            rows, fill = self._conjugation_table(), self._fill_conjugation_row
            self._conjugator = lambda g, h: (rows.get(h) or fill(h))[g]
        return self._conjugator

    def conjugation_row(self, h: int) -> list[int]:
        """h g h^-1 for g in 0..order-1, computed on the first read and kept;
        callers must not modify it."""
        h = self.check_element(h)
        return self._conjugation_table().get(h) or self._fill_conjugation_row(h)

    def _conjugation_table(self) -> dict[int, list[int]]:
        """The conjugation rows read so far, by h."""
        return self._conj_rows

    def _fill_conjugation_row(self, h: int) -> list[int]:
        """Fill and keep row h. Once the spanning tree exists, a row whose
        tree edge (h, s, parent) has a parent other than the identity is
        composed from rows s and parent, filled first the same way:
        (s p) g (s p)^-1 = s (p g p^-1) s^-1. The identity's row is the
        identity map; a generator's row, and every row read before the tree
        exists, costs 2|G| products."""
        rows = self._conj_rows
        composed: list[int] = []
        if self._tree is not None:
            if self._tree_steps is None:
                self._tree_steps = {edge[0]: edge for edge in self._tree[1] if edge[2] != self.identity}
            steps = self._tree_steps
            while h not in rows and h in steps:
                composed.append(h)
                h = steps[h][2]
        row = rows.get(h) or self._conjugate_by(h)
        for child in reversed(composed):
            s = steps[child][1]
            row = rows[child] = list(map((rows.get(s) or self._conjugate_by(s)).__getitem__, row))
        return row

    def _conjugate_by(self, h: int) -> list[int]:
        if h == self.identity:
            row = list(range(self.order))
        else:
            mul, hinv = self.mul, self.inv(h)
            row = [mul(mul(h, g), hinv) for g in range(self.order)]
        self._conj_rows[h] = row
        return row

    def multiplication_row(self, g: int) -> list[int]:
        """g x for x in 0..order-1, computed with mul on each read."""
        g = self.check_element(g)
        mul = self.mul
        return [mul(g, x) for x in range(self.order)]

    def presentation(self) -> _Presentation | None:
        """Generators and defining relations, or None for a group known
        only by its table. A relation is a pair of words in the generators
        (element indices), the word s_1 ... s_m standing for that product;
        the empty word is the identity. Any assignment of permutations to
        the generators that satisfies every relation extends to exactly one
        homomorphism from the group (von Dyck's theorem)."""
        return None

    def spanning_tree(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """Generators and a breadth-first spanning tree of the group over them.

        A group with a presentation takes its generators. A group known by
        its table takes greedy ones: elements are taken in index order, each
        one not yet reached becomes a generator, and the set reached from the
        identity is closed again under left multiplication by the
        generators. Each greedy generator at least doubles the reached
        subgroup, so there are at most log2(order) of them. Either way each
        element is multiplied once by each generator. Returns the generators
        and the edges (child, generator, parent), child = generator * parent,
        in the order reached; the identity is the root and has no edge, and
        every generator is a child of the identity."""
        if self._tree is None:
            mul = self.mul
            reached = [self.identity]
            seen = bytearray(self.order)
            seen[self.identity] = 1
            edges: list[tuple[int, int, int]] = []

            def close(generators: list[int], known: int) -> None:
                # Elements reached before index known are closed under all
                # generators but the last already; later ones need every one.
                i = 0
                while i < len(reached):
                    parent = reached[i]
                    for s in generators[-1:] if i < known else generators:
                        child = mul(s, parent)
                        if not seen[child]:
                            seen[child] = 1
                            reached.append(child)
                            edges.append((child, s, parent))
                    i += 1

            presentation = self.presentation()
            if presentation is not None:
                generators = list(presentation[0])
                close(generators, 0)
            else:
                generators = []
                for a in range(self.order):
                    if not seen[a]:
                        generators.append(a)
                        close(generators, len(reached))
            self._tree = (generators, edges)
        return self._tree

    def element_repr(self, a: int) -> str:
        return str(self.check_element(a))

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

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order

    def presentation(self) -> _Presentation:
        """One generator s = 1 and the relation s^k = e; none for k = 1."""
        if self.order == 1:
            return [], []
        return [1], [((1,) * self.order, ())]


class SymmetricGroup(FiniteGroup):
    """S_n: elements are permutations of {0..n-1}, indexed by lexicographic
    rank of their image tuples. Multiplication is composition, right factor
    first: (sigma * tau)(x) = sigma(tau(x)). Every element operation reads
    one pair of tables, all n! image tuples and their ranks, built on first
    use; presentation() builds none."""

    def __init__(self, n: int):
        super().__init__()
        if n < 0:
            raise ValueError(f"symmetric group degree must be nonnegative, got {n}")
        self.n = n
        self.order = math.factorial(n)
        self.name = f"S{n}"
        self._images: list[tuple[int, ...]] | None = None
        self._rank_of: dict[tuple[int, ...], int] | None = None

    def _tables(self) -> tuple[list[tuple[int, ...]], dict[tuple[int, ...], int]]:
        """The image tuple of every rank and the rank of every image tuple,
        built on the first call and kept."""
        if self._images is None:
            import itertools

            self._images = list(itertools.permutations(range(self.n)))
            self._rank_of = {images: i for i, images in enumerate(self._images)}
        return self._images, self._rank_of

    def images_at(self, a: int) -> tuple[int, ...]:
        """The image tuple of element a, without building a Permutation."""
        return self._tables()[0][self.check_element(a)]

    def permutation_at(self, a: int) -> Permutation:
        return Permutation(self.images_at(a))

    def index_of(self, perm: Permutation) -> int:
        if perm.degree != self.n:
            raise ValueError(f"degree mismatch: {perm.degree} vs {self.n}")
        return self._tables()[1][perm.images]

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

    def presentation(self) -> _Presentation:
        """The adjacent transpositions t_i = (i-1 i) for i = 1..n-1, with
        t_i t_i = e, the braid relations t_i t_{i+1} t_i = t_{i+1} t_i t_{i+1},
        and the far commutations t_i t_j = t_j t_i for j > i + 1 (Coxeter &
        Moser, Generators and Relations for Discrete Groups, 1957, 6.2).
        S6 has 5 generators, 15 relations and 58 letters."""
        t = []
        for i in range(self.n - 1):
            images = list(range(self.n))
            images[i], images[i + 1] = i + 1, i
            t.append(lex_rank(tuple(images)))
        relations = [((a, a), ()) for a in t]
        relations += [((a, b, a), (b, a, b)) for a, b in zip(t, t[1:])]
        relations += [((a, b), (b, a)) for i, a in enumerate(t) for b in t[i + 2 :]]
        return t, relations

    def element_repr(self, a: int) -> str:
        return str(list(self.permutation_at(a).images))


class ProductGroup(FiniteGroup):
    """Direct product; the pair (a, b) is packed as a * |H| + b."""

    def __init__(self, left: FiniteGroup, right: FiniteGroup):
        super().__init__()
        self.left = left
        self.right = right
        self.order = left.order * right.order
        self.name = f"({left.name}x{right.name})"

    def _split(self, a: int) -> tuple[int, int]:
        return divmod(a, self.right.order)

    def mul(self, a: int, b: int) -> int:
        a1, a2 = self._split(a)
        b1, b2 = self._split(b)
        return self.left.mul(a1, b1) * self.right.order + self.right.mul(a2, b2)

    def inv(self, a: int) -> int:
        a1, a2 = self._split(a)
        return self.left.inv(a1) * self.right.order + self.right.inv(a2)

    def presentation(self) -> _Presentation | None:
        """Each factor's generators and relations, embedded, and a b = b a
        for every generator a of the left factor and b of the right (Holt,
        Eick & O'Brien, Handbook of Computational Group Theory, 2005, ch. 5);
        None unless both factors have a presentation."""
        left, right = self.left.presentation(), self.right.presentation()
        if left is None or right is None:
            return None
        m = self.right.order
        embed_left = {a: a * m + self.right.identity for a in left[0]}
        embed_right = {b: self.left.identity * m + b for b in right[0]}
        relations = []
        for embed, (_, factor_relations) in ((embed_left, left), (embed_right, right)):
            relations += [(tuple(embed[x] for x in u), tuple(embed[x] for x in v)) for u, v in factor_relations]
        relations += [((a, b), (b, a)) for a in embed_left.values() for b in embed_right.values()]
        return [*embed_left.values(), *embed_right.values()], relations

    def element_repr(self, a: int) -> str:
        a1, a2 = self._split(a)
        return f"({self.left.element_repr(a1)},{self.right.element_repr(a2)})"


class CayleyGroup(FiniteGroup):
    """Group given by an explicit multiplication table, validated on construction."""

    def __init__(self, table: tuple[tuple[int, ...], ...], identity: int, inverses: tuple[int, ...], name: str = "cayley"):
        super().__init__()
        self.order = len(table)
        self.table = table
        self._identity = identity
        self._inverses = inverses
        self.name = name

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
    associativity (all m^3 triples), a two-sided identity and inverses.

    Raises GroupValidationError naming the first failing axiom and a witness.
    The O(m^3) associativity scan refuses orders above DEFAULT_CAYLEY_ORDER_CAP.
    """
    m = len(table)
    if m == 0:
        raise GroupValidationError("shape", None, "a group table cannot be empty")
    if m > DEFAULT_CAYLEY_ORDER_CAP:
        raise CapExceededError(f"table order {m} exceeds associativity validation cap {DEFAULT_CAYLEY_ORDER_CAP}")
    rows: list[tuple[int, ...]] = []
    for i, row in enumerate(table):
        entries = integer_entries(row, f"table[{i}]")
        if len(entries) != m:
            raise GroupValidationError("shape", (i,), f"row {i} has length {len(entries)}, expected {m}")
        for j, x in enumerate(entries):
            if not 0 <= x < m:
                raise GroupValidationError("closure", (i, j), f"entry table[{i}][{j}] = {x} is outside 0..{m - 1}")
        rows.append(entries)
    tbl = tuple(rows)

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

    return CayleyGroup(tbl, identity, tuple(inverses))


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
        for j, x in enumerate(row):
            json_int(x, f"Cayley table entry [{i}][{j}]")
    return from_cayley_table(table)


def to_cayley_json(group: FiniteGroup) -> dict:
    """Export any group's multiplication table in the ingestible JSON shape."""
    return {"order": group.order, "table": group.multiplication_table()}

