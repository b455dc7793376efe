"""Deterministic pseudo-random generation for reproducible sampling runs.

SplitMix64 (Steele, Lea & Flood, OOPSLA 2014) is counter-based: after m draws
the state is seed + m·γ mod 2^64, and each draw is a fixed mixing function of
its state alone. `SplitMix64.shuffles` uses this to compute the draws of many
Fisher-Yates passes together. A run of passes over n items is one stream of
n - 1 steps per pass, cut into blocks: a block holds ⌊`_LANES_MAX`/(n-1)⌋
whole passes, or `_LANES_MAX` steps when one pass is longer than that. A
block's counters go into 128-bit slots of one Python int: built from the
state with one multiply, or, after a full block drawn whole, carried on from
that block's with one add of block·γ in every slot and one mask. The
mixer's three xor-shifts and two 64-bit multiplies then run on all slots at
once, with an AND by a repeated 64-bit mask around each multiply: a
64 x 64-bit product fills at most its own slot, so no slot spills into the
next. The draws are unpacked with `int.to_bytes` and `array`.

A block drawn whole is reduced with one C-level `map(operator.mod, draws,
bounds)`. Its bound list holds i + 1 for each of its steps i in order, and is
cached per (steps, lanes). A pass longer than a block reads its blocks' bounds
as slices of one cached list of two passes' bounds. A block of whole passes is
then swapped a pass at a time, over one index list steps..1 built once per
run, and the state moves once per pass. Only a pass longer than a block keeps
a loop over runs of steps, each ending at the end of a pass or of the block.
The swap loop never reduces a draw: a replayed block (below) feeds it values
that `below` has already reduced, and a drawn block values the map has, so
both take the same loop, and a step does no arithmetic in bytecode.

The unbiased draw below a bound rejects a draw only when it is at least
2^64 - (2^64 mod bound), which is above 2^64 - n for every bound up to n, the
largest bound of a pass over n items. A block is tested against n with one
add of the bound in every slot, a product cached per block size and bound.
A block that holds a draw at or above 2^64 - n is set aside: its steps are
replayed from the state before it by calling `below(i + 1)` once per step,
which consumes exactly the draws they need, rejections included, and the next
block starts from the state that leaves. Either way the images after every
pass and the state are those of calling `below(i + 1)` for i = n-1 down to 1
in each pass, on every platform and Python version.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import cycle, islice
from operator import mod
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_TWO64 = 1 << 64
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Bytes per lane: a 64-bit draw plus room for its 64 x 64-bit products.
_SLOT_BYTES = 16
# Blocks hold at most this many draws, so that transient memory does not
# grow with the number of items or passes.
_LANES_MAX = 1024


@lru_cache(maxsize=8)
def _lane_constants(lanes: int) -> tuple[int, int, int, int]:
    """For a block of lanes draws: 1, 2^64 - 1 and 2^64 in every slot, and the
    counter offset (m+1)·γ mod 2^64 in slot m."""
    ones = int.from_bytes((b"\x01" + bytes(_SLOT_BYTES - 1)) * lanes, "little")
    pad = bytes(_SLOT_BYTES - 8)
    offsets = b"".join(((m * _GAMMA) & _MASK64).to_bytes(8, "little") + pad for m in range(1, lanes + 1))
    return ones, ones * _MASK64, ones << 64, int.from_bytes(offsets, "little")


@lru_cache(maxsize=8)
def _lane_bound(lanes: int, bound: int) -> int:
    """bound in every slot of a block of lanes draws."""
    return bound * _lane_constants(lanes)[0]


def _lane_counters(state: int, lanes: int) -> int:
    """The counters of the lanes draws that follow state, one per slot."""
    ones, mask, _, offsets = _lane_constants(lanes)
    return (state * ones + offsets) & mask


def _lane_mix(z: int, lanes: int, bound: int) -> array | None:
    """The draws of the lane counters z, or None when one of them is at least
    2^64 - bound, so that an unbiased draw below some bound up to this one
    might reject it."""
    _, mask, carries, _ = _lane_constants(lanes)
    z = (((z ^ (z >> 30)) & mask) * _MIX1) & mask
    z = (((z ^ (z >> 27)) & mask) * _MIX2) & mask
    # The last shift leaves the next slot's low 31 bits in bits 97 to 127 of
    # each slot and bits 64 to 96 clear. So a slot carries into its bit 64
    # exactly when its draw is at least 2^64 - bound, and the unpacking below
    # reads the low 64 bits only.
    z ^= z >> 31
    if (z + _lane_bound(lanes, bound)) & carries:
        return None
    words = array("Q", z.to_bytes(_SLOT_BYTES * lanes, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[:: _SLOT_BYTES // 8]


@lru_cache(maxsize=8)
def _step_bounds(steps: int, lanes: int) -> list[int]:
    """The bounds i + 1 of lanes Fisher-Yates steps over steps + 1 items from
    the start of a pass: i runs from steps down to 1, and again."""
    return list(islice(cycle(range(steps + 1, 1, -1)), lanes))


def _lane_draws(state: int, lanes: int, bound: int) -> array | None:
    """The lanes draws that follow state, as `_lane_mix` gives them."""
    return _lane_mix(_lane_counters(state, lanes), lanes, bound)


class SplitMix64:
    """SplitMix64: 64-bit state advanced by a fixed odd increment, then mixed.

    Every output is a pure function of the seed and the call index, so streams
    are identical across platforms and Python versions.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection sampling.
        The bound must lie in 1..2^64: above 2^64 every draw would be
        rejected."""
        if not 0 < bound <= _TWO64:
            raise ValueError(f"bound must lie in 1..2^64, got {bound}")
        limit = _TWO64 - (_TWO64 % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items: list) -> None:
        """Fisher-Yates in place, decreasing index, one unbiased draw per step:
        the same images and final state as swapping items[i] with
        items[below(i + 1)] for i = len(items)-1 down to 1."""
        for _ in self.shuffles(items, 1):
            pass

    def shuffles(self, items: list, passes: int) -> Iterator[None]:
        """Shuffle items in place passes times, yielding after each pass.

        After every pass the images and the state are those of that many
        `shuffle` calls. A block's draws are computed before its swaps, so
        draw nothing else from this SplitMix64 until the run ends.
        """
        steps = len(items) - 1
        if steps < 1:
            for _ in range(passes):
                yield
            return
        per = _LANES_MAX // steps  # whole passes in a block, 0 when a pass is longer
        block = per * steps or _LANES_MAX
        ones, mask, _, _ = _lane_constants(block)
        advance = ((block * _GAMMA) & _MASK64) * ones
        whole = list(range(steps, 0, -1))  # the indices one pass swaps
        step = (steps * _GAMMA) & _MASK64
        # A block's lane counters are the last block's plus block·γ in every
        # slot when that block was full and drawn whole, else None.
        counters = None
        left = passes * steps
        top = steps  # the index the next step swaps
        while left > 0:
            lanes = min(block, left)
            left -= lanes
            if counters is None or lanes < block:
                counters = _lane_counters(self._state, lanes)
            draws = _lane_mix(counters, lanes, steps + 1)
            if per:
                bounds = _step_bounds(steps, lanes)
            else:
                # The block starts steps - top steps into a pass and ends
                # before the end of the next one.
                start = steps - top
                bounds = _step_bounds(steps, 2 * steps)[start:start + lanes]
            if draws is None:
                counters = None
                # Replay the block's steps from the state before it, one
                # below(i + 1) call each, drawn as the swaps reach them.
                js = map(self.below, bounds)
            else:
                js = map(mod, draws, bounds)
                counters = (counters + advance) & mask
            if per:
                for _ in range(lanes // steps):
                    for i, j in zip(whole, js):
                        items[i], items[j] = items[j], items[i]
                    if draws is not None:
                        self._state = (self._state + step) & _MASK64
                    yield
                continue
            while lanes:
                run = min(top, lanes)
                for i, j in zip(range(top, top - run, -1), js):
                    items[i], items[j] = items[j], items[i]
                if draws is not None:
                    self._state = (self._state + run * _GAMMA) & _MASK64
                lanes -= run
                top -= run
                if not top:
                    top = steps
                    yield
