"""Finite groups with dense integer element indices 0..order-1.

Cyclic, symmetric and product groups multiply structurally; arbitrary groups
come in through validated Cayley tables. All instances are immutable and all
operations are pure. A conjugation row is computed with mul and inv when it
is first read, and kept; a multiplication row is computed on each read. No
group keeps a full |G|^2 table: a functor's law check keeps only the
conjugation rows of its generators, and its row compare conjugates only the
elements of nonempty fibers, keeping no row.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from operator import index, itemgetter
from typing import NamedTuple, Optional, Sequence

from .permutations import CapExceededError, Permutation, integer_entries, lex_rank

DEFAULT_CAYLEY_ORDER_CAP = 256
# Most cosets one coset enumeration may define. Certifying S9 defines
# 117 839 (about 1.1 s on a 2-core x86 machine); no CLI route certifies S10,
# whose every nonempty carrier is refused by the check cap first.
DEFAULT_COSET_CAP = 250_000
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

    def multiplication_row(self, g: int) -> list[int]:
        """g x for x in 0..order-1, computed with mul on each read."""
        g = self.check_element(g)
        mul = self.mul
        return [mul(g, x) for x in range(self.order)]

    def presentation(self) -> _Presentation | None:
        """Generators and relations, or None for a group known only by its
        table. A relation is a pair of words in the generators (element
        indices), the word s_1 ... s_m standing for that product; the empty
        word is the identity. The relations hold in the group, and when
        certified() is True they define it: any assignment of permutations
        to the generators that satisfies every relation then extends to
        exactly one homomorphism from the group (von Dyck's theorem). Reading
        it certifies nothing, so a refusal that reads only its size costs no
        enumeration."""
        return None

    def certified(self) -> bool:
        """Whether presentation() is shown to define this group exactly;
        a relator check is a pass only when it is. False for a group with
        no presentation."""
        return False

    def spanning_tree(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """Generators and a breadth-first spanning tree of the group over them.

        A group with a presentation starts from its generators (both of S_n's
        from degree 3), a group known by its table from none. Greedy ones
        follow: elements are taken in index order, each one not yet reached
        becomes a generator, and the set reached from the identity is closed
        again under left multiplication by the generators. Generators that
        generate the group leave no element for a greedy one, and each greedy
        generator at least doubles the reached subgroup, so a table gets at
        most log2(order) of them. Each element is multiplied once by each
        generator. Returns the generators and the edges (child, generator,
        parent), child = generator * parent, in the order reached; the
        identity is the root and has no edge, and every generator is a
        child of the identity."""
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
            generators = [] if presentation is None else list(presentation[0])
            close(generators, 0)
            while len(reached) < self.order:
                generators.append(seen.index(0))
                close(generators, len(reached))
            self._tree = (generators, edges)
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

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order

    def presentation(self) -> _Presentation:
        """One generator s = 1 and the relation s^k = e; none for k = 1."""
        if self.order == 1:
            return [], []
        return [1], [((1,) * self.order, ())]

    def certified(self) -> bool:
        """True with no enumeration: s^k = e bounds the presented group's
        order by k, and s = 1 has order k."""
        return True


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
        self._images: tuple[tuple[int, ...], ...] | None = None
        self._rank_of: dict[tuple[int, ...], int] | None = None
        self._certified: bool | None = None

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

    def presentation(self) -> _Presentation:
        """s = (0 1) and t = (0 1 ... n-1), with s^2 = t^n = (s t)^(n-1) =
        (s t^(n-1) s t)^3 = e and (s t^(n-j) s t^j)^2 = e for
        2 <= j <= n/2 (Coxeter & Moser, Generators and Relations for
        Discrete Groups, 1957, 6.2); words have no inverse letters, so
        t^(n-1) stands for t^-1. S2 has s alone with s^2 = e, and S0 and S1
        no generator. S6 has 2 generators, 6 relations and 74 letters.
        The generators are ranked with lex_rank, so no element table is
        built; certified() checks, once, that the relations define S_n."""
        n = self.n
        if n < 2:
            return [], []
        s = lex_rank((1, 0, *range(2, n)))
        if n == 2:
            return [s], [((s, s), ())]
        t = lex_rank((*range(1, n), 0))
        relations = [((s, s), ()), ((t,) * n, ()), ((s, t) * (n - 1), ()), ((s, *(t,) * (n - 1), s, t) * 3, ())]
        relations += [((s, *(t,) * (n - j), s, *(t,) * j) * 2, ()) for j in range(2, n // 2 + 1)]
        return [s, t], relations

    def certified(self) -> bool:
        """certify_presentation(self, self.presentation()), run on the
        first call and kept."""
        if self._certified is None:
            self._certified = certify_presentation(self, self.presentation()) is not None
        return self._certified


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

    def certified(self) -> bool:
        """Whether both factors' presentations are certified: theirs and the
        commutators present the direct product of the presented factors."""
        return self.left.certified() and self.right.certified()


class CayleyGroup(FiniteGroup):
    """Group given by an explicit multiplication table, validated on construction."""

    name = "cayley"

    def __init__(self, table: tuple[tuple[int, ...], ...], identity: int, inverses: tuple[int, ...]):
        super().__init__()
        self.order = len(table)
        self.table = table
        self._identity = identity
        self._inverses = inverses

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


class CosetEnumeration(NamedTuple):
    """What one coset enumeration found: the index, or None when it stopped
    at DEFAULT_COSET_CAP, and the cosets it defined on the way."""

    index: Optional[int]
    defined: int


def enumerate_cosets(
    generators: Sequence[int],
    relations: Sequence[tuple[Sequence[int], Sequence[int]]],
    subgroup: Sequence[Sequence[int]],
) -> CosetEnumeration:
    """The index, in the group presented by generators and relations, of
    the subgroup generated by the words in subgroup: Todd-Coxeter coset
    enumeration in the HLT strategy (Todd & Coxeter, Proc. Edinburgh Math.
    Soc. 5, 1936; Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 2005, 5.1). Letter 2i is generator i and 2i + 1 its inverse; a
    relation u = v is the relator u v^-1. The subgroup's words are scanned
    from coset 0; then each live coset in turn has every relator scanned
    from it, filling the gaps with new cosets, and its undefined entries
    defined. A scan that closes two different cosets makes them one
    (coincidence), and the larger one dies with all its entries moved. The
    index is the number of live cosets once every live coset is done, or
    None when a definition would take the cosets defined past
    DEFAULT_COSET_CAP, read at call time."""
    cap = DEFAULT_COSET_CAP
    letter = {g: 2 * i for i, g in enumerate(generators)}
    relators = [w for w in ([letter[x] for x in u] + [letter[x] ^ 1 for x in reversed(v)] for u, v in relations) if w]
    width = 2 * len(generators)
    table = [[-1] * width]
    parent = [0]  # parent[c] == c exactly while coset c lives

    class Full(Exception):
        pass

    def define(c: int, x: int) -> None:
        d = len(table)
        if d >= cap:
            raise Full
        table.append([-1] * width)
        parent.append(d)
        table[c][x] = d
        table[d][x ^ 1] = c

    def rep(c: int) -> int:
        root = c
        while parent[root] != root:
            root = parent[root]
        while parent[c] != root:
            parent[c], c = root, parent[c]
        return root

    def merge(a: int, b: int, dead: list[int]) -> None:
        a, b = rep(a), rep(b)
        if a != b:
            a, b = min(a, b), max(a, b)
            parent[b] = a
            dead.append(b)

    def coincidence(a: int, b: int) -> None:
        dead: list[int] = []
        merge(a, b, dead)
        for gamma in dead:  # grows while it is read
            for x, delta in enumerate(table[gamma]):
                if delta < 0:
                    continue
                table[delta][x ^ 1] = -1
                mu, nu = rep(gamma), rep(delta)
                if table[mu][x] >= 0:
                    merge(nu, table[mu][x], dead)
                elif table[nu][x ^ 1] >= 0:
                    merge(mu, table[nu][x ^ 1], dead)
                else:
                    table[mu][x] = nu
                    table[nu][x ^ 1] = mu

    def scan_and_fill(c: int, word: list[int]) -> None:
        f, i, b, j = c, 0, c, len(word) - 1
        while True:
            while i <= j:
                d = table[f][word[i]]
                if d < 0:
                    break
                f, i = d, i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                d = table[b][word[j] ^ 1]
                if d < 0:
                    break
                b, j = d, j - 1
            if j < i:
                coincidence(f, b)
                return
            if i == j:
                table[f][word[i]] = b
                table[b][word[i] ^ 1] = f
                return
            define(f, word[i])

    try:
        for word in subgroup:
            scan_and_fill(0, [letter[x] for x in word])
        c = 0
        while c < len(table):
            for word in relators:
                if parent[c] != c:
                    break
                scan_and_fill(c, word)
            if parent[c] == c:
                for x in range(width):
                    if table[c][x] < 0:
                        define(c, x)
            c += 1
    except Full:
        return CosetEnumeration(None, len(table))
    return CosetEnumeration(sum(1 for c, p in enumerate(parent) if c == p), len(table))


def certify_presentation(group: FiniteGroup, presentation: _Presentation) -> Optional[CosetEnumeration]:
    """The coset enumeration that shows presentation to define group
    exactly, or None when it does not. The relations must hold in group
    and the generators reach every element of spanning_tree(), so the
    presented group maps onto group. The enumeration (enumerate_cosets)
    takes the cosets of the subgroup generated by the last generator t,
    whose order is at most m for the shortest relation t^m = e listed;
    index times m then bounds the presented group's order, and a bound
    equal to |group| makes the map an isomorphism. With no generator the
    presented group is trivial. An enumeration stopped by the coset cap,
    another index, or no relation t^m = e leaves it uncertified."""
    generators, relations = presentation

    def product(word: Sequence[int]) -> int:
        return reduce(group.mul, word, group.identity)

    if any(product(u) != product(v) for u, v in relations) or group.spanning_tree()[0] != list(generators):
        return None
    subgroup: list[tuple[int, ...]] = []
    bound: Optional[int] = 1
    if generators:
        t = generators[-1]
        subgroup = [(t,)]
        bound = min((len(u) for u, v in relations if u and not v and set(u) == {t}), default=None)
    if bound is None:
        return None
    enumeration = enumerate_cosets(generators, relations, subgroup)
    if enumeration.index is None or enumeration.index * bound != group.order:
        return None
    return enumeration


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
    passing table costs about m^2 |S| lookups, not m^3. A table that fails
    is scanned over all m^3 triples in lexicographic order, so the witness
    is always the lowest failing triple.

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

    if not _associative_over_generators(tbl):
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


def _associative_over_generators(table: tuple[tuple[int, ...], ...]) -> bool:
    """Whether (x s) y = x (s y) for every x and y and every s of
    _magma_generators(table), which holds exactly when the table is
    associative (from_cayley_table). Each (s, x) is one row compare."""
    for s in _magma_generators(table):
        row_s = table[s]
        for row_x in table:
            if table[row_x[s]] != tuple(map(row_x.__getitem__, row_s)):
                return False
    return True


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

