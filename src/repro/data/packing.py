"""Sequence packing.

Baseline systems assume homogeneous input lengths, so they concatenate
varied-length sequences into packed inputs no longer than the model
replica's token capacity ``c`` (S2.2.2).  The paper's baselines use
Best-Fit Packing (Ding et al., "Fewer Truncations Improve Language
Modeling"), i.e. Best-Fit-Decreasing bin packing; we also provide
First-Fit-Decreasing for comparison.

FlexSP itself does not pre-pack: its solver assigns raw sequences to
heterogeneous SP groups directly, which subsumes packing.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field


@dataclass
class Pack:
    """One packed training input.

    Attributes:
        capacity: Maximum tokens this pack may hold.
        lengths: Lengths of the member sequences, in packing order.
            Mutate only through :meth:`add`, which keeps the O(1)
            ``used``/``remaining`` accounting in sync.
    """

    capacity: int
    lengths: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._used = sum(self.lengths)

    @property
    def used(self) -> int:
        return self._used

    @property
    def remaining(self) -> int:
        return self.capacity - self._used

    def add(self, length: int) -> None:
        if length > self.remaining:
            raise ValueError(
                f"sequence of {length} tokens does not fit in pack with "
                f"{self.remaining} remaining"
            )
        self.lengths.append(length)
        self._used += length


def _check_inputs(lengths: SequenceABC[int], capacity: int) -> None:
    if capacity <= 0:
        raise ValueError(f"capacity must be positive, got {capacity}")
    for s in lengths:
        if s <= 0:
            raise ValueError(f"sequence lengths must be positive, got {s}")
        if s > capacity:
            raise ValueError(
                f"sequence of {s} tokens exceeds pack capacity {capacity}; "
                "filter over-length sequences before packing"
            )


def best_fit_decreasing(lengths: SequenceABC[int], capacity: int) -> list[Pack]:
    """Best-Fit-Decreasing packing (the paper's baseline protocol).

    Sequences are sorted in decreasing length and each is placed into
    the open pack with the *smallest* remaining space that still fits
    it, opening a new pack when none fits.

    Runs in O(K log K) using a sorted list of remaining capacities.
    This loop is the baselines' per-batch hot path, so each open pack
    is one integer key ``remaining * stride + pack_index`` (ordered
    like the pair, since ``pack_index < stride``), and members are
    wrapped in :class:`Pack` once at the end.
    """
    _check_inputs(lengths, capacity)
    if len(lengths) and sum(lengths) <= capacity:
        # Everything fits the first pack, which stays the best fit.
        return [Pack(capacity=capacity, lengths=sorted(lengths, reverse=True))]
    members: list[list[int]] = []
    stride = len(lengths) + 1  # more than the number of packs
    keys: list[int] = []  # sorted
    bisect_left, insort = bisect.bisect_left, bisect.insort
    for s in sorted(lengths, reverse=True):
        # The smallest remaining space >= s, lowest pack index first.
        pos = bisect_left(keys, s * stride)
        if pos < len(keys):
            key = keys.pop(pos)
            members[key % stride].append(s)
            insort(keys, key - s * stride)
        else:
            members.append([s])
            insort(keys, (capacity - s) * stride + len(members) - 1)
    return [Pack(capacity=capacity, lengths=m) for m in members]


def first_fit_decreasing(lengths: SequenceABC[int], capacity: int) -> list[Pack]:
    """First-Fit-Decreasing packing: place into the first pack that fits.

    Runs in O(K log K) with a tournament (max-segment) tree over pack
    remainders: internal nodes hold the maximum remainder in their
    subtree, so the *lowest-index* pack that can host a sequence is
    found by descending left-first — exactly the pack the naive
    first-pack-that-fits scan would pick, so assignments are identical
    to the O(K²) loop this replaces.
    """
    _check_inputs(lengths, capacity)
    packs: list[Pack] = []
    size = 1  # leaf slots; doubled (with a rebuild) as packs open
    tree = [0] * (2 * size)  # 1-indexed heap layout; leaves at [size:]

    def _update(leaf: int, remaining: int) -> None:
        node = size + leaf
        tree[node] = remaining
        node //= 2
        while node:
            tree[node] = max(tree[2 * node], tree[2 * node + 1])
            node //= 2

    for s in sorted(lengths, reverse=True):
        if tree[1] >= s:
            node = 1
            while node < size:
                node = 2 * node if tree[2 * node] >= s else 2 * node + 1
            pack = packs[node - size]
            pack.add(s)
            _update(node - size, pack.remaining)
        else:
            if len(packs) == size:
                size *= 2
                tree = [0] * (2 * size)
                for i, pack in enumerate(packs):
                    tree[size + i] = pack.remaining
                for node in range(size - 1, 0, -1):
                    tree[node] = max(tree[2 * node], tree[2 * node + 1])
            pack = Pack(capacity=capacity, lengths=[s])
            packs.append(pack)
            _update(len(packs) - 1, pack.remaining)
    return packs


def pack_efficiency(packs: SequenceABC[Pack]) -> float:
    """Fraction of pack capacity actually occupied by tokens."""
    if not packs:
        raise ValueError("pack_efficiency of an empty packing is undefined")
    used = sum(p.used for p in packs)
    total = sum(p.capacity for p in packs)
    return used / total
