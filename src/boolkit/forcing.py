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


def _conditions(d, p: SPhiPoset) -> list:
    """A dense set's entries, canonical: an entry that is one of the
    poset's conditions as it is, any other through ``_condition``."""
    return [s if type(s) is frozenset and s in p.conditions else _condition(s) for s in d]


@dataclass(frozen=True)
class SPhiPoset:
    phi: Formula
    sig: Signature
    conditions: frozenset
    excluded_unknown: tuple = ()

    def __contains__(self, s):
        return _condition(s) in self.conditions

    @cached_property
    def maximal(self) -> frozenset:
        """The conditions with no proper extension in the poset."""
        # a condition with a proper extension lies below a maximal one, which
        # is larger and so already found
        found = []
        for s in sorted(self.conditions, key=len, reverse=True):
            if not any(s < t for t in found):
                found.append(s)
        return frozenset(found)

    @cached_property
    def ordered(self) -> tuple:
        """The conditions in ``_condition_order``."""
        return tuple(sorted(self.conditions, key=_condition_order))

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
    excluded = []

    def consistent(ext) -> bool:
        status = session.status(list(ext) + [phi], sig)
        if status == compact.UNKNOWN:
            excluded.append(frozenset(ext))
        return status == compact.CONSISTENT

    walk = compact.kept_subsets(condition_universe(phi, sig), consistent, size_bound)
    return SPhiPoset(phi, sig, frozenset(map(frozenset, walk)), tuple(excluded))


@dataclass(frozen=True)
class DensityVerdict:
    ok: bool
    witness: Optional[frozenset] = None

    def __bool__(self):
        return self.ok


def _condition_order(s: frozenset) -> tuple:
    """Conditions by size, then by their sorted renderings."""
    return len(s), sorted(map(syntax.render, s))


def is_dense(d: Iterable[frozenset], p: SPhiPoset, strict: bool = False) -> DensityVerdict:
    """Dense means: every condition has a superset in the set, which under
    the reverse-inclusion order says every condition has an extension there.
    The strict flag demands a proper superset.  A set that is not dense is
    witnessed by its least uncovered condition in ``_condition_order``."""
    return _density(_conditions(d, p), p, strict)


def _density(dset: list, p: SPhiPoset, strict: bool = False) -> DensityVerdict:
    # every condition lies below a maximal one, and a maximal condition is
    # covered only by itself, never strictly: a set is dense exactly when it
    # holds every maximal condition, and strictly dense only in an empty poset
    for s in dset:
        if s not in p.conditions:
            raise BoolkitError("dense-set entry is not a condition")
    if (not p.conditions) if strict else p.maximal <= set(dset):
        return DensityVerdict(True)

    def uncovered(s):
        return not any((s < t) if strict else (s <= t) for t in dset)

    return DensityVerdict(False, witness=next(filter(uncovered, p.ordered)))


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
    dense = [_conditions(d, p) for d in dense]
    for i, d in enumerate(dense):
        if not _density(d, p):
            raise BoolkitError(f"supplied set {i} is not dense")
    current = frozenset()
    for d in dense:
        candidates = [t for t in d if current <= t]
        if not candidates:
            raise BoolkitError("density violated during chain construction")
        current = min(candidates, key=_condition_order)
    # greedy saturation to a maximal condition: a condition that does not
    # extend the chain when it is passed does not extend its end either
    for t in p.ordered:
        if current < t:
            current = t
    members = frozenset(s for s in p.conditions if s <= current)
    maximal = not any(current < t for t in p.conditions)
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


def _meets(dset, conjunctions: dict) -> Formula:
    """The disjunction over the canonical conditions of their conjunctions,
    one object per condition in ``conjunctions``, which it fills."""
    for s in set(dset) - conjunctions.keys():
        conjunctions[s] = syntax.canonical(And, s)
    return syntax.canonical(Or, map(conjunctions.__getitem__, dset))


def meets_equivalence(g: GenericFilter, d: Iterable[frozenset]) -> bool:
    """The dense-set membership test: the filter meets the set exactly when
    the term model satisfies the disjunction of its conditions' conjunctions."""
    dset = list(map(_condition, d))
    meets = any(s in g.members for s in dset)
    return meets == bvmodel.holds(term_model(g), _meets(dset, {}))


def genericity_sentence(
    phi: Formula,
    dense: Iterable,
    p: SPhiPoset,
) -> Formula:
    """The target sentence conjoined with, for each supplied dense set, the
    disjunction over its conditions of their conjunctions.  A condition in
    several dense sets has one conjunction object, shared by their blocks."""
    phi = syntax.canon(phi)
    blocks, conjunctions = [], {}
    for i, d in enumerate(dense):
        dset = _conditions(d, p)
        if not _density(dset, p):
            raise BoolkitError(f"supplied set {i} is not dense")
        blocks.append(_meets(dset, conjunctions))
    if not blocks:
        return phi
    return syntax.canonical(And, [phi] + blocks)


# canonical dense families


def dense_decision_set(p: SPhiPoset, atom: Formula) -> list:
    """Conditions that decide the given atomic sentence."""
    atom = syntax.canon(atom)
    neg = Not(atom)
    return [s for s in p.conditions if atom in s or neg in s]


def dense_commitment_set(p: SPhiPoset, disjunction: Or) -> list:
    """Conditions committed to one disjunct of the given disjunction."""
    children = {syntax.canon(c) for c in disjunction.children}
    return [s for s in p.conditions if s & children]
