import functools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_card import groups
from groupoid_card.groupoids import GroupAction
from groupoid_card.groups import (
    CayleyGroup,
    CyclicGroup,
    GroupValidationError,
    ProductGroup,
    SymmetricGroup,
    from_cayley_json,
    from_cayley_table,
    make_cyclic,
    make_product,
    make_symmetric,
    to_cayley_json,
)
from groupoid_card.permutations import CapExceededError, Permutation, lex_rank
from law_cases import tree_edges


def element_order(group, g):
    x = g
    n = 1
    while x != group.identity:
        x = group.mul(x, g)
        n += 1
    return n


def test_cyclic_basics():
    trivial = make_cyclic(1)
    assert trivial.order == 1
    assert trivial.mul(0, 0) == 0

    z4 = make_cyclic(4)
    assert z4.order == 4
    assert z4.inv(3) == 1

    z6 = make_cyclic(6)
    assert element_order(z6, 2) == 3

    with pytest.raises(ValueError):
        make_cyclic(0)


def test_symmetric_orders():
    assert make_symmetric(0).order == 1
    assert make_symmetric(3).order == 6
    with pytest.raises(ValueError):
        make_symmetric(-1)


def test_symmetric_composition_convention():
    s3 = make_symmetric(3)
    a = lex_rank((1, 0, 2))  # (01)
    b = lex_rank((0, 2, 1))  # (12)
    # Right factor first: x -> (12) -> (01).
    assert s3.permutation_at(s3.mul(a, b)).images == (1, 2, 0)


def test_symmetric_index_round_trip():
    s4 = make_symmetric(4)
    for g in s4.elements():
        assert lex_rank(s4.images_at(g)) == g
    for g in s4.elements():
        assert s4.mul(g, s4.inv(g)) == s4.identity
        assert s4.mul(s4.inv(g), g) == s4.identity


def test_symmetric_rank_paths_agree():
    # At degree 9 the element tables hold all 362 880 image tuples, and
    # multiplication and inversion read them; lex_rank and permutation
    # arithmetic are the independent oracles.
    import random

    big = make_symmetric(9)
    rnd = random.Random(7)
    for _ in range(25):
        pa = Permutation(tuple(rnd.sample(range(9), 9)))
        pb = Permutation(tuple(rnd.sample(range(9), 9)))
        a, b = lex_rank(pa.images), lex_rank(pb.images)
        assert big.permutation_at(big.mul(a, b)) == pa * pb
        assert big.permutation_at(big.inv(a)) == pa.inverse()
        assert big.permutation_at(a) == pa


def test_product_orders():
    z2, z3 = make_cyclic(2), make_cyclic(3)
    trivial = make_cyclic(1)
    g = make_product(trivial, z3)
    assert g.order == 3

    z6ish = make_product(z2, z3)
    assert z6ish.order == 6

    klein = make_product(z2, make_cyclic(2))
    for g_idx in klein.elements():
        if g_idx != klein.identity:
            assert element_order(klein, g_idx) == 2


def test_product_componentwise():
    z2, z3 = make_cyclic(2), make_cyclic(3)
    g = make_product(z2, z3)
    a = 1 * 3 + 2  # (1, 2)
    b = 1 * 3 + 1  # (1, 1)
    assert g.mul(a, b) == 0 * 3 + 0  # (0, 0)
    assert g.inv(a) == 1 * 3 + 1  # (1, 1)


def test_cayley_trivial_and_cyclic():
    assert from_cayley_table([[0]]).order == 1
    z3_table = [[(i + j) % 3 for j in range(3)] for i in range(3)]
    g = from_cayley_table(z3_table)
    assert g.order == 3
    assert g.identity == 0
    assert g.inv(2) == 1


def test_cayley_reports_nonassociative_triple():
    # Identity at 0, but (1*1)*1 = 2*1 = 2 while 1*(1*1) = 1*2 = 1.
    table = [[0, 1, 2], [1, 2, 1], [2, 2, 2]]
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table(table)
    assert exc.value.axiom == "associativity"
    assert exc.value.witness == (1, 1, 1)
    assert "(1, 1, 1)" in str(exc.value)


def test_cayley_reports_missing_identity():
    # Constant table: associative, no identity.
    table = [[0, 0], [0, 0]]
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table(table)
    assert exc.value.axiom == "identity"


def test_cayley_reports_missing_inverse():
    # min(i, j) on {0, 1}: associative, identity 1, but 0 has no inverse.
    table = [[0, 0], [0, 1]]
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table(table)
    assert exc.value.axiom == "inverse"
    assert exc.value.witness == (0,)


def test_cayley_shape_and_closure_errors():
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table([[0, 1], [1]])
    assert exc.value.axiom == "shape"
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table([[0, 2], [1, 0]])
    assert exc.value.axiom == "closure"
    assert exc.value.witness == (0, 1)


def test_cayley_entry_is_refused_not_truncated():
    """int() read 1.5 as 1, so this table built Z/2."""
    with pytest.raises(ValueError, match=r"table\[0\]\[1\] must be an integer, got 1.5"):
        from_cayley_table([[0, 1.5], [1, 0]])


def test_element_index_is_refused_not_truncated():
    """int() read 1.7 as 1, so conjugation_row(1.7) returned row 1."""
    group = make_symmetric(3)
    with pytest.raises(TypeError):
        group.conjugation_row(1.7)
    with pytest.raises(TypeError):
        group.conjugate(0, 1.5)
    assert group.conjugation_row(True) == group.conjugation_row(1)


def test_cayley_order_cap_and_override(monkeypatch):
    z5_table = [[(i + j) % 5 for j in range(5)] for i in range(5)]
    monkeypatch.setattr(groups, "DEFAULT_CAYLEY_ORDER_CAP", 4)
    with pytest.raises(CapExceededError):
        from_cayley_table(z5_table)
    monkeypatch.setattr(groups, "DEFAULT_CAYLEY_ORDER_CAP", 5)
    assert from_cayley_table(z5_table).order == 5


def test_cayley_json_round_trip():
    for group in (make_cyclic(6), make_symmetric(3), make_product(make_cyclic(2), make_cyclic(3))):
        data = to_cayley_json(group)
        rebuilt = from_cayley_json(data)
        assert rebuilt.order == group.order
        assert rebuilt.multiplication_table() == data["table"]
    with pytest.raises(ValueError):
        from_cayley_json({"order": 2})
    with pytest.raises(ValueError):
        from_cayley_json({"order": 3, "table": [[0]]})


def test_conjugate_examples():
    s3 = make_symmetric(3)
    g = lex_rank((1, 0, 2))  # (01)
    h = lex_rank((0, 2, 1))  # (12)
    expected = lex_rank((2, 1, 0))  # (02)
    assert s3.conjugate(g, h) == expected
    # Brute-force cross-check over all of S3.
    for h_idx in s3.elements():
        direct = s3.mul(s3.mul(h_idx, g), s3.inv(h_idx))
        assert s3.conjugate(g, h_idx) == direct

    assert s3.conjugate(g, s3.identity) == g

    z6 = make_cyclic(6)
    for a in z6.elements():
        for h_idx in z6.elements():
            assert z6.conjugate(a, h_idx) == a

    with pytest.raises(ValueError):
        s3.conjugate(99, 0)
    with pytest.raises(ValueError):
        s3.conjugate(0, -1)


@pytest.mark.parametrize("rows_first", [True, False])
def test_conjugator_is_conjugate_without_the_checks(rows_first):
    """conjugate, the one per-pair read (it replaced the unchecked conjugator),
    and conjugation_row fill the same rows whichever reads first, and every
    read equals the literal products."""
    group = ProductGroup(CyclicGroup(2), SymmetricGroup(3))  # fresh, so no row is filled yet
    assert group._conjugation_table() == {}
    for h in group.elements():
        if rows_first:
            row = group.conjugation_row(h)
            assert [group.conjugate(g, h) for g in group.elements()] == row
        else:
            row = [group.conjugate(g, h) for g in group.elements()]
            assert group.conjugation_row(h) == row
        for g in group.elements():
            assert group.conjugate(g, h) == group.mul(group.mul(h, g), group.inv(h))
    assert sorted(group._conjugation_table()) == list(group.elements())


@pytest.mark.parametrize(
    "group",
    [make_cyclic(6), make_symmetric(3), make_product(make_cyclic(2), make_cyclic(2))],
    ids=lambda g: g.name,
)
def test_conjugation_composition_law(group):
    for g in group.elements():
        for h1 in group.elements():
            for h2 in group.elements():
                lhs = group.conjugate(group.conjugate(g, h1), h2)
                rhs = group.conjugate(g, group.mul(h2, h1))
                assert lhs == rhs


@given(st.integers(1, 30), st.integers(1, 30))
def test_product_order_multiplicative(a, b):
    assert make_product(make_cyclic(a), make_cyclic(b)).order == a * b


@given(st.integers(1, 24))
def test_cyclic_group_laws(k):
    g = make_cyclic(k)
    for a in range(0, k, max(1, k // 6)):
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(0, a) == a


# Fresh instances: make_* hand out cached groups whose rows may already be filled.
def table_test_groups():
    symmetric = [SymmetricGroup(n) for n in range(7)]
    return symmetric + [
        CyclicGroup(1),
        CyclicGroup(7),
        ProductGroup(CyclicGroup(2), SymmetricGroup(4)),
        ProductGroup(SymmetricGroup(3), SymmetricGroup(3)),
    ]


def relabelling(group, seed):
    """A seeded shuffle of the group's elements that moves the identity off
    index 0; the identity map for no seed."""
    import random

    order = group.order
    relabel = list(range(order))
    if seed is not None:
        rnd = random.Random(seed)
        while relabel[group.identity] == 0 and order > 1:
            rnd.shuffle(relabel)
    return relabel


@functools.cache
def literal_products(name, seed=None):
    """The literal multiplication table of the table test group named name
    and its conjugation rows, h g h^-1 for each h, as tuples, with the
    elements relabelled by relabelling(group, seed). The table is computed
    once per group with its own mul, the conjugates from the table, and each
    relabelling once from those: every case of one group shares them."""
    group = next(g for g in table_test_groups() if g.name == name)
    if seed is not None:
        relabel = relabelling(group, seed)
        position = sorted(range(group.order), key=relabel.__getitem__)

        def relabelled(rows):
            return tuple(tuple(map(relabel.__getitem__, map(row.__getitem__, position)))
                         for row in map(rows.__getitem__, position))

        return tuple(map(relabelled, literal_products(name)))
    table = tuple(map(tuple, group.multiplication_table()))
    columns = list(zip(*table))
    # h g h^-1 is column h^-1 read at row h's entry h g.
    conj = tuple(tuple(map(columns[row.index(group.identity)].__getitem__, row)) for row in table)
    return table, conj


def cayley_copy(group, seed=None):
    """The group's Cayley table as a new group; with a seed, its elements are
    relabelled by relabelling(group, seed), which moves the identity off
    index 0."""
    order = group.order
    relabel = relabelling(group, seed)
    table = [list(row) for row in literal_products(group.name, seed)[0]]
    if order <= groups.DEFAULT_CAYLEY_ORDER_CAP:
        copy = from_cayley_table(table)
    else:
        # Above the order cap from_cayley_table refuses the table; it is a
        # group by construction.
        inverses = [0] * order
        for a in range(order):
            inverses[relabel[a]] = relabel[group.inv(a)]
        copy = CayleyGroup(tuple(map(tuple, table)), relabel[group.identity], tuple(inverses))
    assert copy.identity == relabel[group.identity]
    assert seed is None or order == 1 or copy.identity != 0
    return copy


class TableCase:
    """A table test group, or its Cayley copy, made fresh by each call, with
    the key of its literal products."""

    def __init__(self, group, copied=False, seed=None):
        self.group, self.copied, self.key = group, copied, (group.name, seed)

    def __call__(self):
        return cayley_copy(self.group, self.key[1]) if self.copied else self.group


def table_cases():
    cases = []
    for group in table_test_groups():
        cases.append(pytest.param(TableCase(group), id=group.name))
        cases.append(pytest.param(TableCase(group, copied=True), id=f"cayley({group.name})"))
        for seed in (1, 2):
            cases.append(pytest.param(TableCase(group, copied=True, seed=seed), id=f"relabelled({group.name}#{seed})"))
    return cases


@pytest.mark.parametrize("make", table_cases())
def test_tables_from_generator_rows_match_literal_products(make):
    """Every conjugation row, and every conjugate, equals the literal
    products."""
    group = make()
    order = group.order
    literal_conj = literal_products(*make.key)[1]
    for h in range(order):
        assert tuple(group.conjugation_row(h)) == literal_conj[h]
    for g in range(order):
        for h in range(order):
            assert group.conjugate(g, h) == literal_conj[h][g]


@pytest.mark.parametrize("make", table_cases())
def test_spanning_tree_reaches_every_element_once(make):
    group = make()
    order = group.order
    calls = [0]
    mul = group.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    group.mul = counted
    tree = group.spanning_tree()
    generators = tree.generators
    k = len(generators)
    assert k <= order.bit_length() - 1  # floor(log2 |G|)
    assert calls[0] == order * k
    assert tree.elements[0] == group.identity and sorted(tree.elements) == list(range(order))
    position = {g: j for j, g in enumerate(tree.elements)}
    for s, moved in zip(generators, tree.products):
        assert moved == [position[mul(s, g)] for g in tree.elements]
    edges = tree_edges(tree)
    assert [child for child, _, _ in edges] == tree.elements[1:]
    for child, s, parent in edges:
        assert s in generators
        assert mul(s, parent) == child
        assert position[parent] < position[child]
    assert [parent for child, _, parent in edges if child in generators] == [group.identity] * k

    # The generators' rows cost two products per entry for s g s^-1, and a
    # kept conjugation row is not computed again.
    calls[0] = 0
    for s in generators:
        group.conjugation_row(s)
        group.conjugation_row(s)
    assert calls[0] == 2 * order * k


def literal_greedy_generators(group):
    """Each index not yet in the subgroup generated so far, in index order,
    the identity skipped; the subgroup is closed afresh after each one."""
    generators, subgroup = [], {group.identity}
    for g in group.elements():
        if g in subgroup:
            continue
        generators.append(g)
        subgroup, frontier = {group.identity}, [group.identity]
        while frontier:
            x = frontier.pop()
            for s in generators:
                y = group.mul(s, x)
                if y not in subgroup:
                    subgroup.add(y)
                    frontier.append(y)
    return generators


@pytest.mark.parametrize("make", table_cases())
def test_the_tree_closes_over_the_one_generating_set(make):
    """generators() is the one generating set: the tree's, kept, so that a
    second read builds nothing; a table's is the greedy set of the literal
    oracle, the one its associativity check compared over, less the identity."""
    group = make()
    generators = group.generators()
    assert group.generators() is generators
    assert generators == group.spanning_tree().generators
    if isinstance(group, CayleyGroup):
        assert generators == literal_greedy_generators(group)


class _NamedGenerators(CyclicGroup):
    """Z/6, whose generators() are the ones given, whatever they generate."""

    def __init__(self, generators):
        super().__init__(6)
        self.named = generators

    def generators(self):
        return self.named


@pytest.mark.parametrize("generators, reached", [([2], 3), ([3], 2), ([2, 4], 3), ([], 1)])
def test_spanning_tree_refuses_generators_that_miss_an_element(generators, reached):
    """spanning_tree() closes over generators() alone: when they generate a
    proper subgroup it raises ValueError, and keeps no tree; nothing fills
    the gap."""
    group = _NamedGenerators(generators)
    message = f"the generators {generators} of Z/6 reach {reached} of its 6 elements"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        group.spanning_tree()
    assert group._tree is None
    assert _NamedGenerators([2, 3]).spanning_tree().generators == [2, 3]


class _NoGenerators(groups.FiniteGroup):
    """Z/2 as a bare subclass that sets no generating set."""

    order = 2

    def mul(self, a, b):
        return a ^ b

    def inv(self, a):
        return a


def test_every_group_names_a_generating_set_that_generates():
    """No generating set is assumed: a subclass that sets none fails on the
    first read, and so does a law check over it. A table group built
    directly reads its set off its own table, so an action on S3's table
    whose only correct row is the identity row is refused."""
    with pytest.raises(AttributeError):
        _NoGenerators().generators()
    with pytest.raises(AttributeError):
        GroupAction(_NoGenerators(), 2, lambda g: [g, 1 - g]).validate()
    s3 = make_symmetric(3)
    group = CayleyGroup(tuple(map(tuple, s3.multiplication_table())), 0, tuple(map(s3.inv, s3.elements())))
    assert group.generators() == literal_greedy_generators(group) == [1, 2]
    report = GroupAction(group, 2, lambda g: [0, 1] if g == 0 else [1, 0]).validate()
    assert not report.ok
    assert report.failure.startswith("compatibility fails")


def test_a_table_group_chooses_its_generating_set_once(monkeypatch):
    """from_cayley_table keeps the set its associativity check chose; a
    table group built directly chooses it on the first read, and keeps it."""
    calls = []
    choose = groups._magma_generators
    monkeypatch.setattr(groups, "_magma_generators", lambda table: calls.append(1) or choose(table))
    table = make_symmetric(4).multiplication_table()
    group = from_cayley_table(table)
    assert group.generators() == group.spanning_tree().generators == [1, 2, 6]
    assert len(calls) == 1
    direct = CayleyGroup(group.table, group.identity, tuple(map(group.inv, group.elements())))
    assert len(calls) == 1
    assert direct.generators() is direct.generators()
    assert direct.generators() == [1, 2, 6]
    assert len(calls) == 2


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: SymmetricGroup(5), id="S5"),
        pytest.param(lambda: ProductGroup(CyclicGroup(4), SymmetricGroup(4)), id="Z4xS4"),
        pytest.param(lambda: cayley_copy(ProductGroup(CyclicGroup(2), SymmetricGroup(4)), seed=1), id="relabelled(Z2xS4)"),
    ],
)
def test_conjugation_rows_match_literal_products(make):
    """The tree is built before any row is read, and every conjugation row
    and conjugate still equals the literal products h g h^-1, with the rows
    read last to first. Each row costs two products an entry, once: a kept
    row is read again with none, and the rows kept are the rows read."""
    group = make()  # fresh, so no row is filled yet
    group.spanning_tree()
    mul, inv, order = group.mul, group.inv, group.order
    literal = {h: [mul(mul(h, g), inv(h)) for g in group.elements()] for h in group.elements()}
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    group.mul = counted
    for h in reversed(range(order)):
        assert group.conjugation_row(h) == literal[h], h
    assert calls[0] == 2 * order * order
    for h in group.elements():
        assert [group.conjugate(g, h) for g in group.elements()] == literal[h], h
    assert calls[0] == 2 * order * order
    assert sorted(group._conjugation_table()) == list(range(order))


@pytest.mark.parametrize("make", [pytest.param(lambda: SymmetricGroup(6), id="S6")])
def test_rows_composed_along_the_tree_match_literal_products(make):
    """Rows read along the spanning tree, each after its parent, equal the
    literal products h g h^-1, though no row is composed from its parent's
    any more."""
    group = make()
    literal_conj = literal_products(group.name)[1]
    for h in group.spanning_tree().elements:
        assert tuple(group.conjugation_row(h)) == literal_conj[h], h


def test_rows_composed_along_the_tree_cost_no_products():
    """Once the tree exists, a row costs 2|G| products on its first read,
    whatever its tree edge, the identity's included; read again, whichever
    order, every row costs no products, and the rows kept are the rows read."""
    group = SymmetricGroup(6)
    group.spanning_tree()
    calls = [0]
    mul = group.mul

    def counted(a, b):
        calls[0] += 1
        return mul(a, b)

    group.mul = counted
    for h in reversed(range(group.order)):
        group.conjugation_row(h)
    assert calls[0] == 2 * 720 * 720
    for h in range(group.order):
        group.conjugation_row(h)
    assert calls[0] == 2 * 720 * 720
    assert sorted(group._conjugation_table()) == list(range(720))


def test_rows_are_read_on_demand_and_checked():
    """Reading a row or a conjugate fills that one row only, and an index
    outside the group is refused by every row reader and by conjugate."""
    group = SymmetricGroup(4)
    assert group._conjugation_table() == {}
    group.conjugation_row(5)
    assert group.conjugate(3, 7) == group.mul(group.mul(7, 3), group.inv(7))
    assert list(group._conjugation_table()) == [5, 7]
    for bad in (24, -1):
        with pytest.raises(ValueError):
            group.conjugation_row(bad)
        with pytest.raises(ValueError):
            group.conjugate(bad, 0)
        with pytest.raises(ValueError):
            group.conjugate(0, bad)
    assert list(group._conjugation_table()) == [5, 7]


def literal_cayley_group(table):
    """The reference for from_cayley_table: shape and closure row by row,
    then associativity over all m^3 triples in lexicographic order, the
    first two-sided identity and each element's first two-sided inverse.
    Returns the table, identity and inverses, or raises the
    GroupValidationError that from_cayley_table raises."""
    m = len(table)
    if m == 0:
        raise GroupValidationError("shape", None, "a group table cannot be empty")
    rows = []
    for i, row in enumerate(table):
        if len(row) != m:
            raise GroupValidationError("shape", (i,), f"row {i} has length {len(row)}, expected {m}")
        for j, x in enumerate(row):
            if not 0 <= x < m:
                raise GroupValidationError("closure", (i, j), f"entry table[{i}][{j}] = {x} is outside 0..{m - 1}")
        rows.append(tuple(row))
    t = tuple(rows)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if t[t[a][b]][c] != t[a][t[b][c]]:
                    raise GroupValidationError(
                        "associativity", (a, b, c),
                        f"associativity fails at triple ({a}, {b}, {c}): ({a}*{b})*{c} = {t[t[a][b]][c]} but {a}*({b}*{c}) = {t[a][t[b][c]]}",
                    )
    identity = next((e for e in range(m) if all(t[e][g] == g and t[g][e] == g for g in range(m))), None)
    if identity is None:
        raise GroupValidationError("identity", None, "no two-sided identity element")
    inverses = []
    for g in range(m):
        h = next((h for h in range(m) if t[g][h] == identity and t[h][g] == identity), None)
        if h is None:
            raise GroupValidationError("inverse", (g,), f"element {g} has no two-sided inverse")
        inverses.append(h)
    return t, identity, tuple(inverses)


def cayley_outcome(build, table):
    """What build makes of table: ("group", table, identity, inverses), or
    ("error", exception class, axiom, witness, message)."""
    try:
        built = build(table)
    except GroupValidationError as exc:
        return "error", type(exc), exc.axiom, exc.witness, str(exc)
    if isinstance(built, CayleyGroup):
        built = built.table, built.identity, built._inverses
    return ("group", *built)


def single_entry_mutations(table):
    """The table with one entry changed to another value in -1..m, each once."""
    m = len(table)
    for i in range(m):
        for j in range(m):
            for x in range(-1, m + 1):
                if x != table[i][j]:
                    mutated = [list(row) for row in table]
                    mutated[i][j] = x
                    yield mutated


@pytest.mark.parametrize(
    "group",
    [make_product(make_cyclic(2), make_symmetric(3)), make_product(make_cyclic(4), make_cyclic(3))],
    ids=lambda g: g.name,
)
def test_table_check_matches_the_literal_scan_on_every_single_entry_mutation(group):
    """The check over a generating set gives the literal m^3 scan's verdict,
    group or error, with the same class, axiom, witness and message, on the
    table and on each of its 12 * 12 * 13 single-entry mutations."""
    table = group.multiplication_table()
    assert cayley_outcome(from_cayley_table, table)[0] == "group"
    axioms = set()
    for mutated in single_entry_mutations(table):
        expected = cayley_outcome(literal_cayley_group, mutated)
        assert cayley_outcome(from_cayley_table, mutated) == expected, mutated
        axioms.add(expected[2])
    assert axioms == {"closure", "associativity"}


def test_table_check_matches_the_literal_scan_on_sampled_mutations():
    """Forty seeded single-entry mutations of a relabelled Z2xS4 table,
    whose identity is not 0, against the literal m^3 scan: each breaks
    associativity, and the witness is the scan's."""
    import random

    table = [list(row) for row in literal_products("(Z/2xS4)", 1)[0]]
    assert cayley_outcome(from_cayley_table, table) == cayley_outcome(literal_cayley_group, table)
    rnd = random.Random(2611)
    for _ in range(40):
        mutated = [list(row) for row in table]
        i, j = rnd.randrange(48), rnd.randrange(48)
        mutated[i][j] = rnd.choice([x for x in range(48) if x != table[i][j]])
        expected = cayley_outcome(literal_cayley_group, mutated)
        assert expected[2] == "associativity"
        assert cayley_outcome(from_cayley_table, mutated) == expected, (i, j, mutated[i][j])


def test_table_check_matches_the_literal_scan_on_every_small_magma():
    """Every binary operation on 1, 2 or 3 elements, associative or not,
    with or without identity and inverses."""
    import itertools

    verdicts = set()
    for m in (1, 2, 3):
        for flat in itertools.product(range(m), repeat=m * m):
            table = [list(flat[i * m : (i + 1) * m]) for i in range(m)]
            expected = cayley_outcome(literal_cayley_group, table)
            assert cayley_outcome(from_cayley_table, table) == expected, table
            verdicts.add(expected[0] if expected[0] == "group" else expected[2])
    assert verdicts == {"group", "associativity", "identity", "inverse"}


def test_failing_table_reports_the_lowest_triple_not_the_first_generator_failure():
    """Element 0 generates this table (0*0 = 1, 0*1 = 2), so the check over
    a generating set compares (x*0)*y with x*(0*y) only; the lowest such
    triple that fails is (1, 0, 1). The lowest failing triple, (0, 1, 1), has the
    non-generator 1 in the middle: the witness comes from the m^3 scan
    that follows a failure, so it is the lowest triple."""
    table = [[1, 2, 0], [2, 0, 1], [0, 0, 0]]
    assert groups._magma_generators(tuple(map(tuple, table))) == [0]
    failing = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)
               if table[table[a][b]][c] != table[a][table[b][c]]]
    assert min(failing) == (0, 1, 1)
    assert min(t for t in failing if t[1] == 0) == (1, 0, 1)
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table(table)
    assert (exc.value.axiom, exc.value.witness) == ("associativity", (0, 1, 1))
    assert str(exc.value) == "associativity fails at triple (0, 1, 1): (0*1)*1 = 0 but 0*(1*1) = 1"


def test_passing_table_at_the_order_cap_is_checked_over_a_generating_set():
    """The greedy choice takes 0 (the identity), 1 and 16 from Z16xZ16,
    of order 256, so its check compares 3 * 256 rows: it took about 1.4 s
    over all 256^3 triples, and takes a few hundredths of a second now."""
    import time

    group = make_product(make_cyclic(16), make_cyclic(16))
    table = group.multiplication_table()
    assert groups._magma_generators(tuple(map(tuple, table))) == [0, 1, 16]
    start = time.perf_counter()
    built = from_cayley_table(table)
    assert time.perf_counter() - start < 1.0
    assert (built.identity, list(built._inverses)) == (0, [group.inv(g) for g in range(256)])


def test_table_entries_are_read_one_by_one_only_for_a_message():
    """A row of plain integers passes at once; the first row with another
    entry is read entry by entry, for the same message as before: an
    integer-like entry is read as its index, others are refused by name,
    and an entry out of range names its place. JSON tables refuse a bool."""
    assert from_cayley_table([[0, True], [True, 0]]).table == ((0, 1), (1, 0))
    for bad, message in ((1.5, r"table\[1\]\[0\] must be an integer, got 1.5"),
                         ("1", r"table\[1\]\[0\] must be an integer, got '1'"),
                         (None, r"table\[1\]\[0\] must be an integer, got None")):
        with pytest.raises(ValueError, match=message):
            from_cayley_table([[0, 1], [bad, 2.5]])
    with pytest.raises(GroupValidationError) as exc:
        from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 3, -1]])
    assert (exc.value.axiom, exc.value.witness, str(exc.value)) == (
        "closure", (2, 1), "entry table[2][1] = 3 is outside 0..2")
    for bad in (True, 1.0, "1", None, [1]):
        with pytest.raises(ValueError) as exc:
            from_cayley_json({"order": 2, "table": [[0, 1], [bad, 0.5]]})
        assert str(exc.value) == f"Cayley table entry [1][0] must be an integer, got {bad!r}"
