"""Finite Boolean algebras as atom bitmasks, finite posets, filters, quotient
algebras, and the regular-open completion of a finite poset.

An algebra element is an ``int`` whose bits select atoms.  The poset order
convention follows forcing practice: ``s <= t`` means s is the stronger
condition (s extends t).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .errors import BoolkitError


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """The powerset algebra on ``atom_count`` atoms; every finite Boolean
    algebra has this form."""

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 0:
            raise BoolkitError("atom_count must be non-negative")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return (1 << self.atom_count) - 1

    def meet(self, x: int, y: int) -> int:
        return x & y

    def join(self, x: int, y: int) -> int:
        return x | y

    def complement(self, x: int) -> int:
        return self.one ^ x

    def leq(self, x: int, y: int) -> bool:
        return x & ~y == 0

    def meet_all(self, xs: Iterable[int]) -> int:
        out = self.one
        for x in xs:
            out &= x
        return out

    def join_all(self, xs: Iterable[int]) -> int:
        out = 0
        for x in xs:
            out |= x
        return out

    def is_element(self, x) -> bool:
        return isinstance(x, int) and 0 <= x <= self.one

    def atoms(self) -> list:
        return [1 << i for i in range(self.atom_count)]

    def elements(self) -> Iterator[int]:
        # exhaustive; only sensible for small algebras
        if self.atom_count > 20:
            raise BoolkitError("refusing to enumerate more than 2^20 elements")
        return iter(range(self.one + 1))

    def antichains(self, max_size: int) -> Iterator[tuple]:
        """All sets of pairwise-disjoint nonzero elements of size <= max_size,
        as sorted tuples (the empty antichain included)."""
        nonzero = [x for x in self.elements() if x != 0]

        def extend(prefix, start, room):
            yield tuple(prefix)
            if room == 0:
                return
            for i in range(start, len(nonzero)):
                x = nonzero[i]
                if all(x & y == 0 for y in prefix):
                    prefix.append(x)
                    yield from extend(prefix, i + 1, room - 1)
                    prefix.pop()

        yield from extend([], 0, max_size)


@dataclass(frozen=True)
class Filter:
    """A filter on a finite algebra, stored by its principal generator
    (every filter on a finite Boolean algebra is principal)."""

    algebra: FiniteBooleanAlgebra
    generator: int

    def __post_init__(self):
        if not self.algebra.is_element(self.generator):
            raise BoolkitError("generator is not an algebra element")
        if self.generator == 0:
            raise BoolkitError("a filter may not contain 0")

    def __contains__(self, x: int) -> bool:
        return self.algebra.leq(self.generator, x)

    def members(self) -> frozenset:
        return frozenset(x for x in self.algebra.elements() if self.generator & ~x == 0)


def ultrafilters(b: FiniteBooleanAlgebra) -> list:
    """One ultrafilter per atom: the principal filter above it."""
    return [Filter(b, a) for a in b.atoms()]


def quotient_algebra(b: FiniteBooleanAlgebra, f: Filter) -> tuple:
    """Quotient by a filter: elements are identified when their symmetric
    difference lies outside the filter's generator.

    Returns the quotient algebra together with the projection map, a
    surjective homomorphism with pi(x) = pi(y) iff (x <-> y) in f.
    """
    if f.algebra != b:
        raise BoolkitError("filter belongs to a different algebra")
    g = f.generator
    positions = [i for i in range(b.atom_count) if g >> i & 1]
    quotient = FiniteBooleanAlgebra(len(positions))

    def project(x: int) -> int:
        out = 0
        for j, i in enumerate(positions):
            if x >> i & 1:
                out |= 1 << j
        return out

    return quotient, project


# ---------------------------------------------------------------------------
# posets and their regular-open completion


def _reverse_inclusion(a, b) -> bool:
    """The order of ``Poset.of_sets``.  ``Poset.__init__`` recognizes this
    predicate and derives the order from membership bitsets rather than
    calling it on every pair, so every poset is still built by ``__init__``."""
    return b <= a


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    text = bin(mask)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def _item_masks(sets) -> tuple:
    """Each set as a mask over its items' positions, first seen first, and
    each item's ``holder_masks``."""
    position = {}  # item -> its position
    rows = [[position.setdefault(x, len(position)) for x in s] for s in sets]
    return [sum(1 << k for k in row) for row in rows], holder_masks(rows, len(position))


def holder_masks(rows, width: int) -> list:
    """Per item position below ``width``, the mask of the rows (sets given
    as their items' positions) that hold it."""
    holders = [0] * width
    for i, row in enumerate(rows):
        for k in row:
            holders[k] |= 1 << i
    return holders


def _inclusion_masks(contents, holders) -> tuple:
    """Down and up masks of sets ordered by reverse inclusion, from the
    masks of ``_item_masks``.  The sets below ``s`` (its supersets) are the
    AND of its items' holders, and every set lies below the empty one; the
    sets above ``s`` (its subsets) are those holding no item outside ``s``."""
    full = (1 << len(contents)) - 1
    down, up = [], []
    for inside in contents:
        below, outside = full, 0
        for k, held in enumerate(holders):
            if inside >> k & 1:
                below &= held
            else:
                outside |= held
        down.append(below)
        up.append(full & ~outside)
    return down, up


class Poset:
    """A finite poset with hashable elements.  ``leq(s, t)`` reads "s is at
    least as strong as t".

    The order is given by ``leq_pairs`` or by a ``leq`` predicate (called on
    all n² pairs), and its axioms are checked on construction;
    ``Poset.of_sets`` orders a family of distinct sets by reverse inclusion
    from bitsets instead, a partial order by construction, so it skips the
    check.  It is stored as bitmasks over element positions: bit i of
    ``down[j]`` means elements[i] <= elements[j], and ``up`` is the
    transpose (bit j of ``up[i]``), which ``of_sets`` builds directly.
    """

    def __init__(
        self, elements: Iterable, leq_pairs: Iterable = None, leq: Callable = None, items=None
    ):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise BoolkitError("poset elements must be distinct")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        if leq is _reverse_inclusion:
            self._down, self._up = _inclusion_masks(*(items or _item_masks(self.elements)))
            return
        if leq is not None:
            rel = {(a, b) for a in self.elements for b in self.elements if leq(a, b)}
        else:
            rel = set(leq_pairs or ())
        self._down = [0] * n
        for (a, b) in rel:
            if a not in self._index or b not in self._index:
                raise BoolkitError(f"order pair {(a, b)!r} mentions a non-element")
            self._down[self._index[b]] |= 1 << self._index[a]
        for i in range(n):
            self._down[i] |= 1 << i
        self._check_axioms()
        self._up = [0] * n
        for j, mask in enumerate(self._down):
            bit = 1 << j
            for i in bit_positions(mask):
                self._up[i] |= bit

    @classmethod
    def of_sets(cls, sets: Iterable, items: tuple = None) -> "Poset":
        """Distinct sets ordered by reverse inclusion: a larger set is the
        stronger condition.  Costs one AND per item of each set and one OR
        per item outside it instead of a comparison per pair of sets;
        ``items`` is ``_item_masks(sets)``, items numbered in any order."""
        return cls(sets, leq=_reverse_inclusion, items=items)

    def _check_axioms(self):
        n = len(self.elements)
        for i in range(n):
            mask = self._down[i]
            m = mask
            while m:
                low = m & -m
                j = low.bit_length() - 1
                m ^= low
                if self._down[j] & ~mask:
                    raise BoolkitError("order is not transitive")
                if i != j and self._down[j] >> i & 1:
                    raise BoolkitError("order is not antisymmetric")

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b) -> bool:
        return self._down[self._index[b]] >> self._index[a] & 1 == 1

    def above(self, i: int) -> int:
        """The positions of the elements that ``elements[i]`` extends."""
        return self._up[i]


@dataclass(frozen=True)
class ROCompletion:
    """Regular-open completion of a finite poset.

    ``algebra`` is the completion in canonical atom form, ``cone`` maps each
    poset element q to the image of its cone (the regularized down-set of q);
    the map is order preserving with dense image.  ``minimal`` gives each
    atom's minimal element as a poset position; as a minimal element lies
    in the regularization of a set just when it lies in the set, the
    element of that regularization is the set of atoms whose minimal
    element is in the set.
    """

    poset: Poset
    algebra: FiniteBooleanAlgebra
    cone: dict
    minimal: tuple
    _atom_masks: tuple


def ro_completion(p: Poset) -> ROCompletion:
    """Boolean completion of a finite poset by regular-open down-sets.

    Meet is intersection, join is the regularization of the union, and the
    complement of U consists of the conditions with no extension in U.  The
    algebra of regular opens is finite, hence a powerset algebra on its
    minimal nonzero members.  These atoms are the cones of the minimal
    (strongest) elements, pairwise disjoint, sorted by mask: every cone
    contains the cone of a minimal element below it, and two minimal
    elements share no regular-open neighbourhood.  The cone of q is then the
    join of the atoms of the minimal elements below q, and the cone of a
    minimal element r holds the elements above r and no other minimal
    element, so both are read off the up masks of the minimal elements.
    """
    if not p.elements:
        raise BoolkitError("ro_completion needs a nonempty poset")
    minimal = [r for r, down in enumerate(p._down) if down == 1 << r]
    seen = shared = 0  # the elements above one, and above two, minimal elements
    for r in minimal:
        shared |= seen & p._up[r]
        seen |= p._up[r]
    atom_of = {p._up[r] & ~shared: r for r in minimal}
    atom_masks = sorted(atom_of)
    minimal = tuple(map(atom_of.get, atom_masks))
    cone = [0] * len(p.elements)
    for j, r in enumerate(minimal):
        for q in bit_positions(p._up[r]):
            cone[q] |= 1 << j
    algebra = FiniteBooleanAlgebra(len(atom_masks))
    return ROCompletion(p, algebra, dict(zip(p.elements, cone)), minimal, tuple(atom_masks))
