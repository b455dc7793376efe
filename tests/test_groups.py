import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupoid_card import groups
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


def cayley_copy(group, seed=None):
    """The group's Cayley table as a new group; with a seed, its elements are
    relabelled by a seeded shuffle that moves the identity off index 0."""
    import random

    order = group.order
    relabel = list(range(order))
    if seed is not None:
        rnd = random.Random(seed)
        while relabel[group.identity] == 0 and order > 1:
            rnd.shuffle(relabel)
    table = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            table[relabel[a]][relabel[b]] = relabel[group.mul(a, b)]
    if order <= 48:
        copy = from_cayley_table(table)
    else:
        # Above order 48 the O(m^3) associativity scan is too slow for a unit
        # test; the table is a group by construction.
        inverses = [0] * order
        for a in range(order):
            inverses[relabel[a]] = relabel[group.inv(a)]
        copy = CayleyGroup(tuple(map(tuple, table)), relabel[group.identity], tuple(inverses))
    assert copy.identity == relabel[group.identity]
    assert seed is None or order == 1 or copy.identity != 0
    return copy


def table_cases():
    cases = []
    for group in table_test_groups():
        cases.append(pytest.param(lambda group=group: group, id=group.name))
        cases.append(pytest.param(lambda group=group: cayley_copy(group), id=f"cayley({group.name})"))
        for seed in (1, 2):
            cases.append(pytest.param(lambda group=group, seed=seed: cayley_copy(group, seed),
                                      id=f"relabelled({group.name}#{seed})"))
    return cases


@pytest.mark.parametrize("make", table_cases())
def test_tables_from_generator_rows_match_literal_products(make):
    """Every conjugation and multiplication row, and every conjugate, equals
    the literal products."""
    group = make()
    order = group.order
    literal_conj = [group.mul(group.mul(h, g), group.inv(h)) for h in range(order) for g in range(order)]
    literal_mul = group.multiplication_table()
    for h in range(order):
        assert list(group.conjugation_row(h)) == literal_conj[h * order : (h + 1) * order]
    for g in range(order):
        assert list(group.multiplication_row(g)) == literal_mul[g]
    for g in range(order):
        for h in range(order):
            assert group.conjugate(g, h) == literal_conj[h * order + g]


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
    generators, edges = group.spanning_tree()
    k = len(generators)
    assert k <= order.bit_length() - 1  # floor(log2 |G|)
    assert calls[0] <= order * k
    children = [child for child, _, _ in edges]
    assert sorted([group.identity] + children) == list(range(order))
    position = {group.identity: 0, **{child: i + 1 for i, child in enumerate(children)}}
    for child, s, parent in edges:
        assert s in generators
        assert mul(s, parent) == child
        assert position[parent] < position[child]
    assert [parent for child, _, parent in edges if child in generators] == [group.identity] * k

    # The generators' rows cost two products per entry for s g s^-1 and one
    # for s x, and a kept conjugation row is not computed again.
    calls[0] = 0
    for s in generators:
        group.conjugation_row(s)
        group.conjugation_row(s)
    assert calls[0] == 2 * order * k
    calls[0] = 0
    for s in generators:
        group.multiplication_row(s)
    assert calls[0] == order * k


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
    generators, edges = group.spanning_tree()
    mul, inv = group.mul, group.inv
    for h in [group.identity] + [child for child, _, _ in edges]:
        hinv = inv(h)
        assert group.conjugation_row(h) == [mul(mul(h, g), hinv) for g in group.elements()], h


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
            group.multiplication_row(bad)
        with pytest.raises(ValueError):
            group.conjugation_row(bad)
        with pytest.raises(ValueError):
            group.conjugate(bad, 0)
        with pytest.raises(ValueError):
            group.conjugate(0, bad)
    assert list(group._conjugation_table()) == [5, 7]
