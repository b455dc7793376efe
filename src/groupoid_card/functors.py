"""Conjugation-equivariant set-valued structures on a finite group.

A structure assigns every group element g a finite set F(g) and every pair
(h, g) a transport bijection F(g) -> F(h g h^-1), functorially. The average
fiber size over the group equals, exactly, the groupoid cardinality of the
category of elements: the set of pairs (g, x in F(g)) modulo the evident
action. Fibers are dense index ranges so transports are plain index arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .categorified import relabel_choice
from . import groupoids
from .groups import FiniteGroup, from_cayley_json, json_int, make_symmetric
from .groupoids import (
    GroupAction,
    GroupoidSkeleton,
    Orbit,
    cardinality,
    cardinality_via_outdegrees,
    first_law_failure,
    orbit_decomposition,
    rational_str,
    skeleton_from_orbits,
)
from .permutations import (
    DEFAULT_ENUMERATION_CAP,
    CapExceededError,
    list_cycle_tuples,
    validate_pvector,
)
from .rng import SplitMix64

DEFAULT_FUNCTOR_VALIDATION_SEED = 0xF4C702


def _is_bijection_onto(arr: tuple[int, ...], size: int) -> bool:
    """Whether arr lists every index 0..size-1 exactly once: one mark pass.
    Negative entries are refused first, since they would index from the end."""
    if len(arr) != size or (arr and min(arr) < 0):
        return False
    seen = bytearray(size)
    try:
        for x in arr:
            seen[x] = 1
    except IndexError:
        return False
    return 0 not in seen


@dataclass(eq=False)
class EquivariantFunctor:
    """Extensional functor data: fiber sizes per element plus a transport map.

    transport(h, g) must return the image array of a bijection
    F(g) -> F(h g h^-1). Arrays are checked for well-formedness on first use
    and memoized.
    """

    group: FiniteGroup
    fiber_sizes: tuple[int, ...]
    transport: Callable[[int, int], tuple[int, ...]]
    name: str = "functor"
    _transport_memo: dict = field(default_factory=dict, repr=False)
    _validation: Optional["FunctorValidation"] = field(default=None, repr=False)
    _rows: Optional[list] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.fiber_sizes)
        if len(sizes) != self.group.order:
            raise ValueError(f"need one fiber size per element: got {len(sizes)} for order {self.group.order}")
        if any(s < 0 for s in sizes):
            raise ValueError("fiber sizes must be nonnegative")
        self.fiber_sizes = sizes

    @property
    def total_size(self) -> int:
        return sum(self.fiber_sizes)

    def transport_cached(self, h: int, g: int) -> tuple[int, ...]:
        key = h * self.group.order + g
        arr = self._transport_memo.get(key)
        if arr is None:
            arr = tuple(self.transport(h, g))
            target = self.group.conjugator()(g, h)
            if len(arr) != self.fiber_sizes[g] or not _is_bijection_onto(arr, self.fiber_sizes[target]):
                raise ValueError(
                    f"transport({h}, {g}) = {arr!r} is not a bijection from a fiber of size "
                    f"{self.fiber_sizes[g]} onto one of size {self.fiber_sizes[target]}"
                )
            self._transport_memo[key] = arr
        return arr


def _elements_carrier(
    functor: EquivariantFunctor,
) -> tuple[list[int], list[tuple[int, int]], Callable[[int, int], int]]:
    """The carrier of the category of elements, fiber after fiber: the
    offsets (offsets[g] + x is the point of (g, x in F(g)), with the total
    last), each point's (g, x), and the action act(h, s), which sends
    (g, x) to (h g h^-1, transport(h, g)(x))."""
    sizes = functor.fiber_sizes
    offsets = list(itertools.accumulate(sizes, initial=0))
    points = [(g, x) for g, size in enumerate(sizes) for x in range(size)]
    conjugate = functor.group.conjugator()
    transport = functor.transport_cached

    def act(h: int, s: int) -> int:
        g, x = points[s]
        return offsets[conjugate(g, h)] + transport(h, g)[x]

    return offsets, points, act


@dataclass(frozen=True)
class FunctorValidation:
    """Outcome of the functor law checks, with the first failure witnessed."""

    ok: bool
    mode: str  # "exhaustive" or "sampled validation"
    checks: int
    failing_law: Optional[str] = None
    witness: Optional[tuple] = None
    message: Optional[str] = None


class FunctorValidationError(ValueError):
    """The functor data violates a law; carries the validation report."""

    def __init__(self, report: FunctorValidation):
        super().__init__(report.message or "functor validation failed")
        self.report = report


def validate_functor(functor: EquivariantFunctor) -> FunctorValidation:
    """Check fiber-size conjugation invariance, identity transports, and the
    composition law transport(h2, h1 g h1^-1) o transport(h1, g) =
    transport(h2 h1, g).

    The first two run exhaustively. Composition is exhaustive when
    |G|^2 + |G| + |G|^2 * total fiber size fits under
    groupoids.DEFAULT_CHECK_CAP, otherwise it runs over
    groupoids.DEFAULT_SAMPLE_BUDGET triples drawn from
    DEFAULT_FUNCTOR_VALIDATION_SEED in lane-packed blocks
    (SplitMix64.below_repeating). Action checks read the same cap and
    budget, and every constant is read at call time.

    The exhaustive checks run over the k generators s of
    FiniteGroup.spanning_tree(). Conjugation by s h is conjugation by h, then
    by s, so fiber sizes invariant under each generator are invariant under
    every h: k |G| compares. Composition is the compatibility law of the
    category-of-elements action, checked with h2 a generator by
    groupoids.first_law_failure, whose induction on word length (Holt, Eick &
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4) gives it
    for every h2: k |G| row compares covering k |G| * total fiber elements.
    A passing check reports those counts, k |G| + |G| + k |G| * total; the
    gate reads the per-pair counts above, so the mode does not depend on k.
    A failure is witnessed by the lowest failing (h, g) or (h2, h1, g) in
    lexicographic order, found by the full per-pair scan, with the checks up
    to it. Results are cached on the functor, and so are the exhaustive
    check's rows, which category_of_elements hands to its action."""
    if functor._validation is not None:
        return functor._validation
    group = functor.group
    order = group.order
    sizes = functor.fiber_sizes
    failure: Optional[tuple[str, tuple, str]] = None

    generators = group.spanning_tree()[0]
    listed = list(sizes)
    checks = len(generators) * order
    if any([sizes[t] for t in group.conjugation_row(s)] != listed for s in generators):
        # Some conjugation moves a fiber size: scan every (h, g) in
        # lexicographic order for the lowest witness.
        checks = 0
        for h in range(order):
            if failure:
                break
            conj_row = group.conjugation_row(h)
            for g in range(order):
                checks += 1
                target = conj_row[g]
                if sizes[g] != sizes[target]:
                    failure = (
                        "fiber_size",
                        (h, g),
                        f"|F({g})| = {sizes[g]} but |F({target})| = {sizes[target]} after conjugating by {h}",
                    )
                    break

    identity = group.identity
    if failure is None:
        for g in range(order):
            checks += 1
            try:
                arr = functor.transport_cached(identity, g)
            except ValueError as exc:
                failure = ("bijection", (identity, g), str(exc))
                break
            if arr != tuple(range(sizes[g])):
                failure = ("identity", (g,), f"transport(e, {g}) = {arr!r} is not the identity")
                break

    mode = "exhaustive"
    total = functor.total_size
    # The composition law is vacuous on empty fibers, so only populated ones count.
    nonempty = [g for g in range(order) if sizes[g] > 0]
    if failure is None and nonempty:
        composition_cost = order * order * total
        conjugate = group.conjugator()

        def composition_ok(h2: int, h1: int, g: int) -> Optional[tuple[str, tuple, str]]:
            try:
                first = functor.transport_cached(h1, g)
                mid = conjugate(g, h1)
                second = functor.transport_cached(h2, mid)
                combined = functor.transport_cached(group.mul(h2, h1), g)
            except ValueError as exc:
                return ("bijection", (h2, h1, g), str(exc))
            for x in range(sizes[g]):
                if combined[x] != second[first[x]]:
                    return (
                        "composition",
                        (h2, h1, g),
                        f"composition law fails at (h2={h2}, h1={h1}, g={g}), fiber element {x}",
                    )
            return None

        # The gate reads the per-pair counts of all three laws, not the
        # generator counts made above, so no input changes mode with k.
        if order * order + order + composition_cost <= groupoids.DEFAULT_CHECK_CAP:
            # Row h is the category-of-elements action of h. The composition
            # law for every (h2, h1, g, x) is then row h2 after row h1 =
            # row h2 h1, checked by the shared row kernel with h2 a generator.
            offsets, points, act = _elements_carrier(functor)
            try:
                rows = [[act(h, s) for s in range(total)] for h in range(order)]
            except ValueError:
                rows = None
            if rows is None:
                # Some transport is not a bijection, so no rows exist: scan
                # the triples in lexicographic order for the lowest witness.
                for h2, h1, g in itertools.product(range(order), range(order), nonempty):
                    checks += sizes[g]
                    failure = composition_ok(h2, h1, g)
                    if failure:
                        break
            else:
                functor._rows = rows
                witness = first_law_failure(rows, group.multiplication_row, generators)
                if witness is None:
                    checks += len(generators) * order * total
                else:
                    h2, h1, s = witness
                    g, x = points[s]
                    checks += (h2 * order + h1) * total + offsets[g + 1]
                    failure = (
                        "composition",
                        (h2, h1, g),
                        f"composition law fails at (h2={h2}, h1={h1}, g={g}), fiber element {x}",
                    )
        else:
            mode = "sampled validation"
            rng = SplitMix64(DEFAULT_FUNCTOR_VALIDATION_SEED)
            draws = iter(rng.below_repeating((order, order, len(nonempty)), 3 * groupoids.DEFAULT_SAMPLE_BUDGET))
            for h2, h1, i in zip(draws, draws, draws):
                g = nonempty[i]
                checks += sizes[g]
                failure = composition_ok(h2, h1, g)
                if failure:
                    break

    if failure is None:
        report = FunctorValidation(ok=True, mode=mode, checks=checks)
    else:
        law, witness, message = failure
        report = FunctorValidation(ok=False, mode=mode, checks=checks, failing_law=law, witness=witness, message=message)
    functor._validation = report
    return report


def _require_valid(functor: EquivariantFunctor) -> None:
    report = validate_functor(functor)
    if not report.ok:
        raise FunctorValidationError(report)


def expected_size(functor: EquivariantFunctor) -> Fraction:
    """Exact average fiber size over the group."""
    _require_valid(functor)
    return Fraction(functor.total_size, functor.group.order)


def category_of_elements(functor: EquivariantFunctor) -> GroupAction:
    """The group acting on all pairs (g, x in F(g)): h sends (g, x) to
    (h g h^-1, transport(h, g)(x)). Carrier size is the total fiber size.
    After an exhaustive validate_functor the action starts from the rows that
    check built; its own validate still runs every law over them."""
    _require_valid(functor)
    act = _elements_carrier(functor)[2]
    return GroupAction(
        group=functor.group,
        carrier_size=functor.total_size,
        act=act,
        name=f"elements({functor.name})",
        _rows=functor._rows,
    )


@dataclass(frozen=True)
class GeneralTheoremReport:
    """Both sides of the expectation identity, with the quotient's orbit data."""

    functor_name: str
    group_name: str
    group_order: int
    fiber_total: int
    expected: Fraction
    elements_cardinality: Fraction
    outdegree_cardinality: Fraction
    equal: bool
    skeleton: GroupoidSkeleton
    orbits: tuple[Orbit, ...]

    def to_json_dict(self) -> dict:
        return {
            "functor": self.functor_name,
            "group": self.group_name,
            "group_order": self.group_order,
            "fiber_total": self.fiber_total,
            "expected_size": rational_str(self.expected),
            "elements_cardinality": rational_str(self.elements_cardinality),
            "outdegree_cardinality": rational_str(self.outdegree_cardinality),
            "equal": self.equal,
            "skeleton": self.skeleton.to_json_dict(),
            "orbits": [
                {"representative": o.representative, "size": o.size, "stabilizer_order": o.stabilizer_order}
                for o in self.orbits
            ],
        }


def verify_general_theorem(functor: EquivariantFunctor) -> GeneralTheoremReport:
    """Check that the exact average fiber size equals the groupoid cardinality
    of the category of elements, computed via the weak quotient (and
    cross-checked via out-degrees)."""
    _require_valid(functor)
    action = category_of_elements(functor)
    orbits = orbit_decomposition(action)
    skeleton = skeleton_from_orbits(orbits)
    lhs = expected_size(functor)
    rhs = cardinality(skeleton)
    return GeneralTheoremReport(
        functor_name=functor.name,
        group_name=functor.group.name,
        group_order=functor.group.order,
        fiber_total=functor.total_size,
        expected=lhs,
        elements_cardinality=rhs,
        outdegree_cardinality=cardinality_via_outdegrees(action),
        equal=lhs == rhs,
        skeleton=skeleton,
        orbits=tuple(orbits),
    )


def make_trivial_functor(group: FiniteGroup) -> EquivariantFunctor:
    """Every fiber a single point, every transport the identity."""
    return EquivariantFunctor(
        group=group,
        fiber_sizes=(1,) * group.order,
        transport=lambda h, g: (0,),
        name=f"trivial({group.name})",
    )


def make_fixed_point_functor(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> EquivariantFunctor:
    """F(sigma) = the fixed points of sigma, transported by relabeling.
    Fiber elements are indices into the sorted fixed-point list."""
    if n > cap:
        raise CapExceededError(f"degree {n} exceeds enumeration cap {cap}")
    group = make_symmetric(n)
    fixed: list[tuple[int, ...]] = []
    for g in group.elements():
        images = group.images_at(g)
        fixed.append(tuple(i for i in range(n) if images[i] == i))
    positions = [{v: i for i, v in enumerate(f)} for f in fixed]
    conjugate = group.conjugator()

    def transport(h: int, g: int) -> tuple[int, ...]:
        himg = group.images_at(h)
        position = positions[conjugate(g, h)]
        return tuple(position[himg[v]] for v in fixed[g])

    return EquivariantFunctor(
        group=group,
        fiber_sizes=tuple(len(f) for f in fixed),
        transport=transport,
        name=f"fixed-points(S{n})",
    )


def make_cycle_tuple_functor(n: int, p: Sequence[int], cap: int = DEFAULT_ENUMERATION_CAP) -> EquivariantFunctor:
    """F(sigma) = the ordered tuples of distinct cycles of sigma prescribed by
    the p-vector, transported by relabeling. The elements of the category of
    elements correspond one to one with the decorated permutations."""
    pvec = validate_pvector(n, p)
    if n > cap:
        raise CapExceededError(f"degree {n} exceeds enumeration cap {cap}")
    group = make_symmetric(n)
    choices = [list(list_cycle_tuples(group.permutation_at(g), pvec)) for g in group.elements()]
    index = [{choice: i for i, choice in enumerate(c)} for c in choices]
    conjugate = group.conjugator()

    def transport(h: int, g: int) -> tuple[int, ...]:
        timg = group.images_at(h)
        target = index[conjugate(g, h)]
        return tuple(target[relabel_choice(timg, choice)] for choice in choices[g])

    return EquivariantFunctor(
        group=group,
        fiber_sizes=tuple(len(c) for c in choices),
        transport=transport,
        name=f"cycle-tuples(S{n}, p={list(pvec)})",
    )


def functor_from_json(data: dict, cap: int = DEFAULT_ENUMERATION_CAP) -> EquivariantFunctor:
    """Ingest {"group": <cayley json or "S<n>">, "fibers": {g: size},
    "transports": {h: {g: [images]}}}.

    Every fiber size must be listed, and a transport must be listed for every
    (h, g) with a nonempty fiber at g; the empty bijection out of an empty
    fiber is the only omission allowed (it is forced, not inferred). The
    shape is checked here, so malformed input raises ValueError; "S<n>" is
    capped at degree cap like every enumeration."""
    if not isinstance(data, dict):
        raise ValueError("functor JSON must be an object")
    for key in ("group", "fibers", "transports"):
        if key not in data:
            raise ValueError(f'functor JSON is missing the "{key}" key')

    spec = data["group"]
    if isinstance(spec, str):
        if not (spec.startswith("S") and spec[1:].isdigit()):
            raise ValueError(f'group spec {spec!r} is not "S<n>" or a Cayley table object')
        n = int(spec[1:])
        if n > cap:
            raise CapExceededError(f"group {spec} exceeds enumeration cap {cap}")
        group: FiniteGroup = make_symmetric(n)
    else:
        group = from_cayley_json(spec)

    fibers = data["fibers"]
    if not isinstance(fibers, dict):
        raise ValueError('"fibers" must be an object mapping elements to sizes')
    sizes = [0] * group.order
    for g in range(group.order):
        key = str(g)
        if key not in fibers:
            raise ValueError(f"fiber size for element {g} is missing")
        sizes[g] = json_int(fibers[key], f"fiber size for element {g}")
        if sizes[g] < 0:
            raise ValueError(f"fiber size for element {g} is negative")

    transports = data["transports"]
    if not isinstance(transports, dict):
        raise ValueError('"transports" must be an object mapping h to {g: images}')
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    for h in range(group.order):
        per_h = transports.get(str(h), {})
        if not isinstance(per_h, dict):
            raise ValueError(f"transports for h={h} must be an object mapping g to images")
        for g in range(group.order):
            entry = per_h.get(str(g))
            if entry is None:
                if sizes[g] == 0:
                    table[(h, g)] = ()
                    continue
                raise ValueError(f"transport for (h={h}, g={g}) is omitted; transports may not be inferred")
            if not isinstance(entry, list):
                raise ValueError(f"transport for (h={h}, g={g}) must be a list of indices")
            table[(h, g)] = tuple(json_int(x, f"transport entry for (h={h}, g={g})") for x in entry)

    return EquivariantFunctor(
        group=group,
        fiber_sizes=tuple(sizes),
        transport=lambda h, g: table[(h, g)],
        name=str(data.get("name", "json-functor")),
    )
