"""Finite Boolean algebras as atom bitmasks, filters, quotient algebras,
and the regular-open completion of a finite family of sets ordered by
reverse inclusion.

An algebra element is an ``int`` whose bits select atoms.  The poset order
convention follows forcing practice: ``s <= t`` means s is the stronger
condition (s extends t).  ``ro_completion`` reads a poset only through its
down and up masks over element positions.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import BoolkitError


@dataclass(frozen=True)
class FiniteBooleanAlgebra:
    """The powerset algebra on ``atom_count`` atoms; every finite Boolean
    algebra has this form."""

    atom_count: int

    def __post_init__(self):
        if self.atom_count < 0:
            raise BoolkitError("atom_count must be non-negative")

    @cached_property
    def one(self) -> int:
        return (1 << self.atom_count) - 1

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
# the reverse-inclusion poset and its regular-open completion


def bit_positions(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, ascending."""
    text = bin(mask)[:1:-1]
    i = text.find("1")
    while i >= 0:
        yield i
        i = text.find("1", i + 1)


def holder_masks(rows, width: int) -> list:
    """Per item position below ``width``, the mask of the rows (sets given
    as their items' positions) that hold it."""
    holders = [0] * width
    for i, row in enumerate(rows):
        for k in row:
            holders[k] |= 1 << i
    return holders


class Poset:
    """Distinct finite sets ordered by reverse inclusion: a larger set is
    the stronger condition, so ``s <= t`` when s extends t (s ⊇ t).

    ``contents[i]`` is set i as a mask over item positions and
    ``holders[k]`` the mask of the sets holding item k (``holder_masks``).
    Sets are named by position.  The order is stored as bitmasks over those
    positions: bit i of ``_down[j]`` means set i extends set j, and ``_up``
    is the transpose.  The sets below ``s`` (its supersets) are the AND of
    its items' holders, and every set lies below the empty one; the sets
    above ``s`` (its subsets) are those holding no item outside ``s``.  That
    costs one AND per item of each set and one OR per item outside it, not
    a comparison per pair of sets, and the order is partial by construction.
    """

    def __init__(self, contents, holders):
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
        self._down, self._up = down, up

    def __len__(self):
        return len(self._down)

    def above(self, i: int) -> int:
        """The positions of the sets that set i extends."""
        return self._up[i]


@dataclass(frozen=True)
class ROCompletion:
    """Regular-open completion of a finite poset.

    ``algebra`` is the completion in canonical atom form, ``cone[q]`` is the
    image of the cone (the regularized down-set) of the element at position
    q; the map is order preserving with dense image.  ``minimal`` gives each
    atom's minimal element as a poset position; as a minimal element lies
    in the regularization of a set just when it lies in the set, the
    element of that regularization is the set of atoms whose minimal
    element is in the set.
    """

    poset: Poset
    algebra: FiniteBooleanAlgebra
    cone: tuple
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
    if not len(p):
        raise BoolkitError("ro_completion needs a nonempty poset")
    minimal = [r for r, down in enumerate(p._down) if down == 1 << r]
    seen = shared = 0  # the elements above one, and above two, minimal elements
    for r in minimal:
        shared |= seen & p._up[r]
        seen |= p._up[r]
    atom_of = {p._up[r] & ~shared: r for r in minimal}
    atom_masks = sorted(atom_of)
    minimal = tuple(map(atom_of.get, atom_masks))
    cone = [0] * len(p)
    for j, r in enumerate(minimal):
        for q in bit_positions(p._up[r]):
            cone[q] |= 1 << j
    algebra = FiniteBooleanAlgebra(len(atom_masks))
    return ROCompletion(p, algebra, tuple(cone), minimal, tuple(atom_masks))
