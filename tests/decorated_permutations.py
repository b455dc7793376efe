"""The literal decorated-permutation route, the oracle of the laid-out action.

A decorated permutation is a Permutation with its chosen cycles listed
canonically; tau acts by conjugating the permutation and relabelling each
chosen cycle. Nothing here reads the cycle-minima walk or a group's rows, so
`cycle_tuple_action` and the cycle-tuple functor are checked against a route
independent of theirs."""

from dataclasses import dataclass
from typing import Sequence

from groupoid_card.functors import relabel_choice
from groupoid_card.permutations import (
    CycleTupleChoice,
    Permutation,
    enumerate_permutations,
    list_cycle_tuples,
    validate_pvector,
)


@dataclass(frozen=True)
class DecoratedPermutation:
    """A permutation together with, for each k, an ordered tuple of distinct
    k-cycles of that permutation (stored canonically, minimum entry first)."""

    sigma: Permutation
    choice: CycleTupleChoice


def build_Q(n: int, p: Sequence[int]) -> list[DecoratedPermutation]:
    """All decorated permutations of degree n for the given p-vector, in
    deterministic order. Total count is sum over sigma of
    prod_k falling_power(c_k(sigma), p_k); empty when weight(p) > n."""
    pvec = validate_pvector(n, p)
    return [
        DecoratedPermutation(sigma, choice)
        for sigma in enumerate_permutations(n)
        for choice in list_cycle_tuples(sigma, pvec)
    ]


def q_action(tau: Permutation, d: DecoratedPermutation) -> DecoratedPermutation:
    """Conjugate the underlying permutation by tau and map the chosen cycles
    to the corresponding cycles of the conjugate."""
    if tau.degree != d.sigma.degree:
        raise ValueError(f"degree mismatch: {tau.degree} vs {d.sigma.degree}")
    return DecoratedPermutation(conjugate_permutation(d.sigma, tau), relabel_choice(tau.images, d.choice))


def conjugate_permutation(sigma: Permutation, tau: Permutation) -> Permutation:
    """tau . sigma . tau^{-1}; relabels points, preserving cycle type."""
    if sigma.degree != tau.degree:
        raise ValueError(f"degree mismatch: {sigma.degree} vs {tau.degree}")
    simg, timg = sigma.images, tau.images
    out = [0] * len(simg)
    for i in range(len(simg)):
        out[timg[i]] = timg[simg[i]]
    return Permutation(tuple(out))
