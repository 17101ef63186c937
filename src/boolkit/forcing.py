"""The forcing poset of finite condition sets attached to a sentence: its
construction, dense subsets, generic filters, term models, and the genericity
sentence whose consistency the compactness pipeline certifies.

Conditions are finite sets of proper subsentences of the target sentence and
(negated) atomic sentences, each jointly consistent with the sentence,
ordered by reverse inclusion.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from . import bvmodel, compact, syntax
from .errors import BoolkitError
from .syntax import And, Formula, Not, Or, Signature


def condition_universe(phi: Formula, sig: Signature) -> list:
    """Proper subsentences of the target plus all (negated) atomic sentences
    over the signature, reflexive equalities and their negations excluded."""
    out = set()
    phi = syntax.canon(phi)
    for f in syntax.subsentences(phi, sig):
        if f != phi:
            out.add(f)
    atoms = syntax.ground_atoms(sig)
    out.update(atoms)
    out.update(map(Not, atoms))
    return sorted(out, key=syntax.render)


def _condition(s) -> frozenset:
    """A caller's condition set, canonical: itself when it already is."""
    if type(s) is frozenset and all(syntax.canon(f) is f for f in s):
        return s
    return frozenset(map(syntax.canon, s))


def _entries(d, p: SPhiPoset) -> list:
    """A dense set's entries as the masks of the poset's conditions: an
    entry that is one of them is looked up as it is, any other through
    ``_condition``."""
    masks, out = p.masks, []
    for s in d:
        m = masks.get(s) if type(s) is frozenset else None
        if m is None:
            m = masks.get(_condition(s))
            if m is None:
                raise BoolkitError("dense-set entry is not a condition")
        out.append(m)
    return out


@dataclass(frozen=True)
class SPhiPoset:
    phi: Formula
    sig: Signature
    conditions: frozenset
    excluded_unknown: tuple = ()

    def __contains__(self, s):
        return _condition(s) in self.conditions

    @cached_property
    def bits(self) -> dict:
        """Each sentence of the conditions and its bit, in rendering order."""
        universe = sorted(set().union(*self.conditions), key=syntax.render)
        return {f: 1 << i for i, f in enumerate(universe)}

    @cached_property
    def masks(self) -> dict:
        """Each condition and its mask, the OR of its sentences' bits, in
        ``_condition_order``."""
        bits = self.bits
        masks = {s: sum(map(bits.__getitem__, s)) for s in self.conditions}
        return dict(sorted(masks.items(), key=lambda item: _condition_order(item[1])))

    @cached_property
    def maximal(self) -> frozenset:
        """The conditions with no proper extension in the poset."""
        # a condition with a proper extension lies below a maximal one, which
        # is larger and so already found
        found = {}
        for s, m in reversed(self.masks.items()):
            if not any(m | t == t for t in found):
                found[m] = s
        return frozenset(found.values())

    def to_json(self) -> dict:
        return {
            "phi": syntax.render(self.phi),
            "signature": self.sig.to_json(),
            "conditions": sorted(
                sorted(syntax.render(f) for f in s) for s in self.conditions
            ),
        }


def build_sphi(
    phi: Formula,
    sig: Signature,
    size_bound: int,
    budget: compact.Budget = compact.DEFAULT_BUDGET,
) -> SPhiPoset:
    """Enumerate the conditions of the forcing poset up to the size bound,
    filtering by joint consistency with the target sentence."""
    phi = syntax.canon(phi)
    session = compact.OracleSession(budget)
    if session.status([phi], sig) != compact.CONSISTENT:
        raise BoolkitError("target sentence must be Boolean consistent")
    conditions, excluded = [], []
    walk = session.kept_subsets(condition_universe(phi, sig), sig, tail=(phi,), max_size=size_bound)
    for s, status in walk:
        (conditions if status == compact.CONSISTENT else excluded).append(frozenset(s))
    return SPhiPoset(phi, sig, frozenset(conditions), tuple(excluded))


@dataclass(frozen=True)
class DensityVerdict:
    ok: bool
    witness: Optional[frozenset] = None

    def __bool__(self):
        return self.ok


def _condition_order(m: int) -> tuple:
    """Condition masks by size, then by their bit positions: the order of
    the conditions' sorted renderings, as the bits are numbered in
    rendering order and two distinct canonical sentences never render the
    same."""
    return m.bit_count(), [i for i in range(m.bit_length()) if m >> i & 1]


def is_dense(d: Iterable[frozenset], p: SPhiPoset, strict: bool = False) -> DensityVerdict:
    """Dense means: every condition has a superset in the set, which under
    the reverse-inclusion order says every condition has an extension there.
    The strict flag demands a proper superset.  A set that is not dense is
    witnessed by its least uncovered condition in ``_condition_order``."""
    return _density(_entries(d, p), p, strict)


def _density(dset: list, p: SPhiPoset, strict: bool = False) -> DensityVerdict:
    """Density of a list of condition masks (see ``is_dense``)."""
    # every condition lies below a maximal one, and a maximal condition is
    # covered only by itself, never strictly: a set is dense exactly when it
    # holds every maximal condition, and strictly dense only in an empty poset
    masks, dset = p.masks, set(dset)
    if (not masks) if strict else all(masks[s] in dset for s in p.maximal):
        return DensityVerdict(True)
    for s, m in masks.items():
        if not any(m | t == t and not (strict and m == t) for t in dset):
            return DensityVerdict(False, witness=s)


@dataclass(frozen=True)
class GenericFilter:
    poset: SPhiPoset
    members: frozenset
    maximal: bool

    def __contains__(self, s):
        return _condition(s) in self.members

    def sigma(self) -> frozenset:
        """The union of the filter: a finite sentence set."""
        out = set()
        for s in self.members:
            out |= s
        return frozenset(out)


def generic_filter(p: SPhiPoset, dense: Iterable = ()) -> GenericFilter:
    """Build a descending chain entering each supplied dense set in turn,
    upward close it, and extend to a maximal filter by greedy saturation."""
    masks = p.masks
    chain = []
    for i, d in enumerate(dense):
        d = _entries(d, p)
        if not _density(d, p):
            raise BoolkitError(f"supplied set {i} is not dense")
        chain.append(set(d))
    current = 0
    for d in chain:
        current = next((t for t in masks.values() if t in d and current | t == t), None)
        if current is None:
            raise BoolkitError("density violated during chain construction")
    # greedy saturation to a maximal condition: a condition that does not
    # extend the chain when it is passed does not extend its end either
    for t in masks.values():
        if current | t == t:
            current = t
    members = frozenset(s for s, m in masks.items() if current | m == current)
    maximal = not any(t != current and current | t == t for t in masks.values())
    return GenericFilter(p, members, maximal)


def term_model(g: GenericFilter) -> bvmodel.BValuedModel:
    """The Tarski structure read off the filter's union: constants modulo the
    equalities it contains, relations holding exactly on its atoms.

    Requires a maximal filter; well-definedness of the relations over the
    equality classes is validated.
    """
    if not g.maximal:
        raise BoolkitError("term model needs a maximal filter")
    sig = g.poset.sig
    return bvmodel.two_valued_model(sorted(sig.constants), sig.relations, g.sigma())


def meets_equivalence(g: GenericFilter, d: Iterable[frozenset]) -> bool:
    """The dense-set membership test: the filter meets the set exactly when
    the term model satisfies the disjunction of its conditions' conjunctions."""
    dset = list(map(_condition, d))
    meets = any(s in g.members for s in dset)
    disjunction = syntax.canonical(Or, [syntax.canonical(And, s) for s in dset])
    return meets == bvmodel.holds(term_model(g), disjunction)


def genericity_sentence(
    phi: Formula,
    dense: Iterable,
    p: SPhiPoset,
) -> Formula:
    """The target sentence conjoined with, for each supplied dense set, the
    disjunction over its conditions of their conjunctions.  A condition in
    several dense sets has one conjunction object, shared by their blocks."""
    phi = syntax.canon(phi)
    blocks, conjunctions = [], {}  # condition mask -> its conjunction
    for i, d in enumerate(dense):
        dset = _entries(d, p)
        if not _density(dset, p):
            raise BoolkitError(f"supplied set {i} is not dense")
        for m in set(dset) - conjunctions.keys():
            conjunctions[m] = syntax.canonical(And, [f for f, b in p.bits.items() if m & b])
        blocks.append(syntax.canonical(Or, map(conjunctions.__getitem__, dset)))
    if not blocks:
        return phi
    return syntax.canonical(And, [phi] + blocks)


# canonical dense families


def _holding(p: SPhiPoset, sentences) -> list:
    """The conditions holding one of the sentences, in condition order."""
    bits = 0
    for f in sentences:
        bits |= p.bits.get(f, 0)
    return [s for s, m in p.masks.items() if m & bits]


def dense_decision_set(p: SPhiPoset, atom: Formula) -> list:
    """Conditions that decide the given atomic sentence, in condition order."""
    atom = syntax.canon(atom)
    return _holding(p, (atom, Not(atom)))


def dense_commitment_set(p: SPhiPoset, disjunction: Or) -> list:
    """Conditions committed to one disjunct of the given disjunction, in
    condition order."""
    return _holding(p, map(syntax.canon, disjunction.children))
