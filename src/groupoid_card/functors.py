"""Conjugation-equivariant set-valued structures on a finite group.

A structure assigns every group element g a finite set F(g) and every pair
(h, g) a transport bijection F(g) -> F(h g h^-1), functorially. The average
fiber size over the group equals, exactly, the groupoid cardinality of the
category of elements: the set of pairs (g, x in F(g)) modulo the evident
action. Fibers are dense index ranges so transports are plain index arrays.
"""

from __future__ import annotations

import bisect
import io
import itertools
import json
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cycle_stats import decorated_permutation_counts
from . import permutations
from .groups import FiniteGroup, SymmetricGroup, from_cayley_json, json_int, make_symmetric
from .groupoids import (
    ActionValidation,
    GroupAction,
    GroupoidSkeleton,
    Orbit,
    cardinality,
    cardinality_via_outdegrees,
    orbit_decomposition,
    rational_str,
    refuse_walk_above_cap,
    require_valid,
    skeleton_from_orbits,
)
from .permutations import (
    CapExceededError,
    CycleTupleChoice,
    canonical_cycle,
    check_enumeration_cap,
    integer_entries,
    list_cycle_tuples,
    parse_integer,
    partition_counts,
    validate_pvector,
    weight,
)


# A data functor's law check reads its |G| |S| transport entries and more
# (groupoids.refuse_walk_above_cap), so a file that the check cap admits lists
# fewer than DEFAULT_CHECK_CAP entries. json.dump writes each in at most 9
# bytes, an index below 10^7 and ", ", so 10 bytes an entry leave room for
# the keys, and a longer file is refused before it is parsed.
DEFAULT_FILE_BYTE_CAP = 10**8


@dataclass(eq=False)
class EquivariantFunctor:
    """Extensional functor data: fiber sizes per element plus a transport map.

    transport(h, g) must return the image array of a bijection
    F(g) -> F(h g h^-1); validate_functor checks each array it reads, and
    reads none out of an empty fiber, whose only bijection is the empty
    one. Only the package's builders whose transport is a formula set
    _presented, after construction, so that the check reads only the
    generators' transports; a functor a caller builds is data. Only
    validate_functor sets the report and the category of elements.
    """

    group: FiniteGroup
    fiber_sizes: tuple[int, ...]
    transport: Callable[[int, int], tuple[int, ...]]
    name: str = "functor"
    _presented: bool = field(default=False, init=False, repr=False)
    _validation: Optional[ActionValidation] = field(default=None, init=False, repr=False)
    _elements: Optional[GroupAction] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = integer_entries(self.fiber_sizes, "fiber_sizes")
        if len(sizes) != self.group.order:
            raise ValueError(f"need one fiber size per element: got {len(sizes)} for order {self.group.order}")
        if any(s < 0 for s in sizes):
            raise ValueError("fiber sizes must be nonnegative")
        self.fiber_sizes = sizes

    @property
    def total_size(self) -> int:
        return sum(self.fiber_sizes)


def _transport(functor: EquivariantFunctor, h: int, g: int, target: int) -> tuple[int, ...] | ValueError:
    """transport(h, g), or a ValueError (returned) unless it lists each
    index of F(target), target = h g h^-1, once and F(g) is that size. The
    entries are read with operator.index, as integer_entries reads them, so
    an entry such as 0.0 is no index."""
    arr = tuple(functor.transport(h, g))
    sizes = functor.fiber_sizes
    try:
        images = tuple(map(operator.index, arr))
        if len(images) == sizes[g] and sorted(images) == list(range(sizes[target])):
            return images
    except TypeError:
        pass
    return ValueError(
        f"transport({h}, {g}) = {arr!r} is not a bijection from a fiber of size "
        f"{sizes[g]} onto one of size {sizes[target]}"
    )


def validate_functor(functor: EquivariantFunctor) -> ActionValidation:
    """Check the functor as its category of elements, from every transport
    the check rests on.

    The action laws of the category of elements, whose row h sends (g, x)
    to (h g h^-1, transport(h, g)(x)), are the functor laws: transport(e, g)
    is the identity, and transport(h2, h1 g h1^-1) o transport(h1, g) =
    transport(h2 h1, g). A transport out of a nonempty fiber onto a fiber
    of another size is no bijection, so the laws force conjugation-invariant
    fiber sizes too. The check lays out the action's rows, where a
    transport that is no bijection fills its fiber's slots with a mark of
    its own below the carrier, and runs GroupAction.validate on them. A
    passing report is returned as it is; a failing one keeps its check
    count, and its law, witness and failure message are mapped back to the
    functor's.

    The check is the walk: the k generators' transports, then each orbit of
    the category of elements, k * total + (k + 1) |G| reads an orbit for
    total fiber size. A functor built from data (not _presented) has its
    identity transports checked first and, before the walk, every transport
    of h = s h1 compared with transport(s, h1 g h1^-1) o transport(h1, g)
    for h1 its parent and s its step's generator in the spanning tree,
    |G| * total reads more. Only transports out of nonempty fibers are
    read. A failure is witnessed by a broken transport (h, g) the check
    met ("bijection"), the lowest g whose identity transport moves a point
    ("identity"), the tree compare's first failing (s, h1, g)
    ("composition") or the walk's broken edge (s, h, g) ("walk"). The
    check cap is read before any transport. The
    result is cached on the functor, and so is the action the check ran,
    named after the functor so that a refusal names it, with its report and
    the orbits its walk found, which category_of_elements returns."""
    if functor._validation is None:
        functor._validation = _check(functor)
    return functor._validation


def _check(functor: EquivariantFunctor) -> ActionValidation:
    """Lay out the category of elements, validate it and read its report as
    the functor's. Every row of the category of elements, read by the check
    or later, is laid out by the one row function here; after the check it
    raises the ValueError of a broken transport in place of its mark."""
    group, sizes = functor.group, functor.fiber_sizes
    mul = group.mul
    # The laws are vacuous on empty fibers, so only populated ones count.
    nonempty = [g for g in range(group.order) if sizes[g]]

    # Row h, fiber after fiber. A broken transport (no bijection) is kept and
    # its slots hold a mark of its own, -1, -2, ..., below the carrier, until
    # validate_functor keeps its report; a later read raises its ValueError.
    # h g h^-1 is read from the group's conjugation row h for a formula
    # functor, whose transports read that row too and whose check reads the
    # generators' rows only; a data functor's check reads every row, so it
    # conjugates the g of nonempty fibers with mul and inv, keeping no row.
    offsets = list(itertools.accumulate(sizes, initial=0))
    broken: dict[tuple[int, int], ValueError] = {}

    def row(h: int) -> list[int]:
        if functor._presented:
            conj = group.conjugation_row(h)
        else:
            hinv = group.inv(h)
            conj = {g: mul(mul(h, g), hinv) for g in nonempty}
        laid: list[int] = []
        for g in nonempty:
            target = conj[g]
            arr = _transport(functor, h, g, target)
            if isinstance(arr, ValueError):
                if functor._validation is not None:
                    raise arr
                broken[h, g] = arr
                laid += [-len(broken)] * sizes[g]
            else:
                laid += map(offsets[target].__add__, arr)
        return laid

    action = functor._elements = GroupAction(group, functor.total_size, row, functor.name)
    action._presented = functor._presented
    report = action.validate()
    if report.ok:
        return report

    def failed(law: str, witness: tuple, message: str) -> ActionValidation:
        return ActionValidation(False, report.checks, message, law, witness)

    if report.law == "carrier":
        # Only a mark leaves the carrier: the slot of a broken transport of row h.
        h, point = report.witness
        g = bisect.bisect_right(offsets, point) - 1
        return failed("bijection", (h, g), str(broken[h, g]))
    if report.law == "identity":
        # The identity law fails first in the lowest g whose transport(e, g)
        # is broken or moves a point.
        e, point = group.identity, report.witness[0]
        g = bisect.bisect_right(offsets, point) - 1
        if (e, g) in broken:
            return failed("bijection", (e, g), str(broken[e, g]))
        arr = tuple(t - offsets[g] for t in action._rows[e][offsets[g]:offsets[g + 1]])
        return failed("identity", (g,), f"transport(e, {g}) = {arr!r} is not the identity")
    if report.law == "walk":
        point, s, h = report.witness
        g = bisect.bisect_right(offsets, point) - 1
        return failed("walk", (s, h, g), f"walk from fiber element {point - offsets[g]} of F({g}) breaks at generator {s}, h={h}")
    h2, h1, point = report.witness
    g = bisect.bisect_right(offsets, point) - 1
    return failed("composition", (h2, h1, g),
                  f"composition law fails at (h2={h2}, h1={h1}, g={g}), fiber element {point - offsets[g]}")


def _require_valid(functor: EquivariantFunctor) -> None:
    """Raise ActionValidationError unless the functor passes its law check."""
    report = validate_functor(functor)
    require_valid(report, f"functor validation failed ({report.law} law, witness {report.witness})")


def expected_size(functor: EquivariantFunctor) -> Fraction:
    """Exact average fiber size over the group."""
    _require_valid(functor)
    return Fraction(functor.total_size, functor.group.order)


def category_of_elements(functor: EquivariantFunctor) -> GroupAction:
    """The group acting on all pairs (g, x in F(g)), fiber after fiber: h
    sends (g, x) to (h g h^-1, transport(h, g)(x)), named after the functor.
    Carrier size is the total fiber size. It is the action validate_functor
    checked, with the rows it handed over (all, or the generators' only) and
    its one law report, so validate reads no image again; other rows come
    from transport."""
    _require_valid(functor)
    return functor._elements


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
            "orbits": [o.to_json_dict() for o in self.orbits],
        }


def verify_general_theorem(functor: EquivariantFunctor) -> GeneralTheoremReport:
    """Check that the exact average fiber size equals the groupoid cardinality
    of the category of elements, computed via the weak quotient (and
    cross-checked via out-degrees)."""
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
    functor = EquivariantFunctor(group, (1,) * group.order, lambda h, g: (0,), f"trivial({group.name})")
    functor._presented = True
    return functor


def make_fixed_point_functor(n: int) -> EquivariantFunctor:
    """F(sigma) = the fixed points of sigma, transported by relabeling.
    Fiber elements are indices into the sorted fixed-point list. A functor
    whose walk check the check cap would refuse is refused, with the refusal
    validate_functor would give, before any fiber is built: conjugation
    keeps cycle type, so each type with a fixed point, one per partition of
    the other n - 1 points, is at least one orbit of its category of
    elements."""
    check_enumeration_cap(n)
    group = make_symmetric(n)
    name = f"fixed-points(S{n})"
    # Each of the n points is fixed by (n - 1)! permutations: n! in all, none for n = 0.
    total = group.order if n else 0
    types = partition_counts(n - 1)[-1] if n else 0
    refuse_walk_above_cap(name, group, total, types)
    fixed = [tuple(i for i, x in enumerate(images) if x == i) for images in group.image_table()]
    return _relabelling_functor(group, name, fixed, operator.getitem)


def make_cycle_tuple_functor(n: int, p: Sequence[int]) -> EquivariantFunctor:
    """F(sigma) = the ordered tuples of distinct cycles of sigma prescribed by
    the p-vector, transported by relabeling. The elements of the category of
    elements correspond one to one with the decorated permutations. They are
    counted over cycle types (decorated_permutation_counts), and a functor
    whose walk check the check cap would refuse is refused, with the refusal
    validate_functor would give, before any fiber is built: each cycle type
    that carries points, one per partition of the n - weight(p) unchosen
    points, is at least one orbit, as in cycle_tuple_actions."""
    pvec = validate_pvector(n, p)
    check_enumeration_cap(n)
    group = make_symmetric(n)
    name = f"cycle-tuples(S{n}, p={list(pvec)})"
    total = decorated_permutation_counts(n, [pvec])[0]
    types = partition_counts(n - weight(pvec))[-1] if total else 0
    refuse_walk_above_cap(name, group, total, types)
    choices = [list(list_cycle_tuples(group.permutation_at(g), pvec)) for g in group.elements()]
    return _relabelling_functor(group, name, choices, relabel_choice)


def relabel_choice(timg: Sequence[int], choice: CycleTupleChoice) -> CycleTupleChoice:
    """Push every chosen cycle through the permutation with image tuple timg
    and re-canonicalize."""
    return tuple(
        (k, tuple([canonical_cycle([timg[a] for a in cyc]) for cyc in cycles]))
        for k, cycles in choice
    )


def _relabelling_functor(group: SymmetricGroup, name: str, fibers: list, relabel: Callable) -> EquivariantFunctor:
    """The functor whose fiber at g lists fibers[g] in order, transported by
    relabeling: h sends an item x of F(g) to relabel(images of h, x), found
    in the fiber of h g h^-1."""
    index = [{item: i for i, item in enumerate(fiber)} for fiber in fibers]
    taus, check = group.image_table(), group.check_element

    def transport(h: int, g: int) -> tuple[int, ...]:
        timg = taus[check(h)]
        target = index[group.conjugate(g, h)]
        return tuple(target[relabel(timg, item)] for item in fibers[g])

    functor = EquivariantFunctor(group, tuple(map(len, fibers)), transport, name)
    functor._presented = True
    return functor


def load_functor_file(path: str) -> EquivariantFunctor:
    """`functor_from_json` of the UTF-8 JSON file at path. At most
    DEFAULT_FILE_BYTE_CAP + 1 bytes are read, the cap read at call time, and
    a longer file raises CapExceededError before it is parsed. A file nested
    too deeply to parse raises ValueError."""
    cap = DEFAULT_FILE_BYTE_CAP
    chunks, left = [], cap + 1
    # Read a MiB at a time: one read of cap + 1 bytes reserves them all.
    with open(path, "rb") as fh:
        while left and (chunk := fh.read(min(left, 1 << 20))):
            chunks.append(chunk)
            left -= len(chunk)
    if not left:
        raise CapExceededError(f"functor file {path!r} is longer than the file byte cap {cap}")
    # Decoded as a text-mode open decodes it, newlines translated, and the
    # bytes dropped before the parse.
    raw = b"".join(chunks)
    del chunks
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8").read()
    del raw
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError(f"functor file {path!r} is nested too deeply to parse") from None
    return functor_from_json(data)


def functor_from_json(data: dict) -> EquivariantFunctor:
    """Ingest {"group": <cayley json or "S<n>">, "fibers": {g: size},
    "transports": {h: {g: [images]}}}.

    Every fiber size must be listed, and a transport must be listed for every
    (h, g) with a nonempty fiber at g; the empty bijection out of an empty
    fiber is the only omission allowed (it is forced, not inferred), and the
    only entry such a fiber may list, for every h. A key of "fibers",
    "transports" or a transport object that names no element, such as "7"
    or "01" in a group of order 2, is refused, the first one named; only
    when a count of keys shows one is there are the keys read. A "fibers"
    with fewer keys than elements is read only up to its first defect, at
    most one read per key and one more. The shape is
    checked here, so malformed input raises ValueError; "S<n>" is capped at
    DEFAULT_ENUMERATION_CAP, read at call time, like every enumeration."""
    if not isinstance(data, dict):
        raise ValueError("functor JSON must be an object")
    for key in ("group", "fibers", "transports"):
        if key not in data:
            raise ValueError(f'functor JSON is missing the "{key}" key')
    name = data.get("name", "json-functor")
    if not isinstance(name, str):
        kind = {dict: "an object", list: "an array", bool: "a boolean", type(None): "null"}.get(type(name), "a number")
        raise ValueError(f'"name" must be a JSON string, got {kind}')

    spec = data["group"]
    if isinstance(spec, str):
        # <n> is read by parse_integer and carries no sign.
        digits = spec[1:] if spec.startswith("S") and spec[1:2] not in ("+", "-") else ""
        try:
            n = parse_integer(digits)
        except ValueError:
            raise ValueError(f'group spec {spec!r} is not "S<n>" or a Cayley table object') from None
        if n > permutations.DEFAULT_ENUMERATION_CAP:
            raise CapExceededError(f"group {spec} exceeds enumeration cap {permutations.DEFAULT_ENUMERATION_CAP}")
        group: FiniteGroup = make_symmetric(n)
    else:
        group = from_cayley_json(spec)

    fibers = data["fibers"]
    if not isinstance(fibers, dict):
        raise ValueError('"fibers" must be an object mapping elements to sizes')
    # The sizes are read one by one, for the first defect's message, only
    # when one is missing, not an integer or negative; the loop stops there.
    # With fewer keys than elements one of "0" .. str(len(fibers)) is
    # missing, so the loop runs at once and stops within len(fibers) + 1 reads.
    sizes = list(map(fibers.get, map(str, range(group.order)))) if len(fibers) >= group.order else [None]
    if not set(map(type, sizes)) <= {int} or min(sizes) < 0:
        missing = object()
        for g in range(group.order):
            size = fibers.get(str(g), missing)
            if size is missing:
                raise ValueError(f"fiber size for element {g} is missing")
            if json_int(size, f"fiber size for element {g}") < 0:
                raise ValueError(f"fiber size for element {g} is negative")
    if len(fibers) != group.order:
        _refuse_stray_key(fibers, group.order, '"fibers"')

    transports = data["transports"]
    if not isinstance(transports, dict):
        raise ValueError('"transports" must be an object mapping h to {g: images}')
    # Only the nonempty fibers and the entries listed on empty ones are
    # visited, in g order, so a file's first defect in (h, g) order is the
    # one reported. A file with no empty fiber visits every g, as it must.
    nonempty = [g for g in range(group.order) if sizes[g]]
    empty_keys = {str(g): g for g in range(group.order) if not sizes[g]}
    table: dict[tuple[int, int], tuple[int, ...]] = {}
    listed = 0
    for h in range(group.order):
        per_h = transports.get(str(h), {})
        listed += str(h) in transports
        if not isinstance(per_h, dict):
            raise ValueError(f"transports for h={h} must be an object mapping g to images")
        visit = nonempty
        if empty_keys:
            on_empty = [empty_keys[key] for key in per_h if key in empty_keys]
            if on_empty:
                visit = sorted(nonempty + on_empty)
        for g in visit:
            entry = per_h.get(str(g))
            if entry is None:
                if sizes[g] == 0:
                    continue
                raise ValueError(f"transport for (h={h}, g={g}) is omitted; transports may not be inferred")
            if not isinstance(entry, list):
                raise ValueError(f"transport for (h={h}, g={g}) must be a list of indices")
            if not set(map(type, entry)) <= {int}:
                for x in entry:
                    json_int(x, f"transport entry for (h={h}, g={g})")
            if entry and not sizes[g]:
                raise ValueError(f"transport for (h={h}, g={g}) must be empty: the fiber at g={g} is empty")
            table[(h, g)] = tuple(entry)
        # Every key visited names an element, and every such key is visited.
        if len(per_h) != len(visit):
            _refuse_stray_key(per_h, group.order, f'"transports" for h={h}')
    if len(transports) != listed:
        _refuse_stray_key(transports, group.order, '"transports"')

    return EquivariantFunctor(
        group=group,
        fiber_sizes=tuple(sizes),
        # An unlisted transport leaves an empty fiber: the empty bijection.
        transport=lambda h, g: table.get((h, g), ()),
        name=name,
    )


def _refuse_stray_key(mapping: dict, order: int, where: str) -> None:
    """Raise ValueError naming the first key of mapping that names no
    element 0..order-1."""
    names = set(map(str, range(order)))
    key = next(key for key in mapping if key not in names)
    raise ValueError(f"{where} has the key {key!r}, which names no element 0..{order - 1}")
