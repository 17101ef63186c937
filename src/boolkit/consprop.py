"""Consistency properties: clause-by-clause verification, theory saturation,
and the finite-scale model existence construction.

A consistency property is a finite family of finite sentence sets.  Members
are kept as canonical frozensets with reflexive equalities dropped (they are
logically void and only inflate the family).
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import bvmodel, compact, syntax
from .balg import Poset, ro_completion
from .errors import BoolkitError, ConstructionFailure
from .syntax import And, Atom, Eq, Exists, Forall, Formula, Not, Or, Signature, Theory


def _canonical_sentence(f: Formula) -> Optional[Formula]:
    """A sentence as it enters a member: canonical, with ``None`` for a
    reflexive equality, which changes nothing."""
    f = syntax.canon(f)
    if isinstance(f, Eq) and f.left == f.right:
        return None
    return f


def canon_set(sentences: Iterable[Formula]) -> frozenset:
    """Canonical member set: canonical formulas, reflexive equalities dropped."""
    return frozenset(f for f in map(_canonical_sentence, sentences) if f is not None)


@dataclass(frozen=True)
class ConsistencyProperty:
    sig: Signature
    members: frozenset

    def __init__(self, sig, members):
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "members", frozenset(canon_set(s) for s in members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, s):
        return canon_set(s) in self.members

    @functools.cached_property
    def index(self) -> "MemberIndex":
        """The members as bitmasks, built once per property and shared by
        clause verification and model existence."""
        return MemberIndex(self.members)

    def to_json(self) -> dict:
        return {
            "signature": self.sig.to_json(),
            "members": sorted(
                sorted(syntax.render(f) for f in s) for s in self.members
            ),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ConsistencyProperty":
        sig = Signature.from_json(doc["signature"])
        members = [
            [syntax.parse(text, sig) for text in member] for member in doc["members"]
        ]
        return cls(sig, members)


# ---------------------------------------------------------------------------
# clause obligations and verification


class MemberIndex:
    """A family's members as bitmasks over its distinct sentences.

    Each distinct sentence gets one bit, in render order, so a member's
    sorted positions compare as its sorted renderings do.  ``members`` lists
    the members by size, then by those positions; ``ids`` and ``masks`` give
    each one's sorted positions and bitmask, and ``mask_set`` holds the
    masks for membership tests.
    """

    def __init__(self, members):
        members = list(members)
        seen = {}  # sentence -> its position in first-seen order
        first_seen = [[seen.setdefault(f, len(seen)) for f in s] for s in members]
        self.sentences = sorted(seen, key=syntax.render)
        self.position = {f: i for i, f in enumerate(self.sentences)}
        rank = [self.position[f] for f in seen]
        rows = [
            (len(s), sorted([rank[k] for k in ks]), s) for ks, s in zip(first_seen, members)
        ]
        rows.sort(key=lambda row: row[:2])
        self.members = [s for _, _, s in rows]
        self.ids = [tuple(ids) for _, ids, _ in rows]
        self.masks = [sum(1 << i for i in ids) for ids in self.ids]
        self.mask_set = set(self.masks)

    def bits(self, options) -> tuple:
        """Canonical options as bits, 0 for ``None`` (the member itself); an
        option outside the index is in no member and is dropped."""
        position = self.position
        return tuple(
            0 if option is None else 1 << position[option]
            for option in options
            if option is None or option in position
        )


def ordered_members(members) -> list:
    """Members by size, then by their sorted renderings: the order in which
    verification visits them and model existence indexes them."""
    return MemberIndex(members).members


class ClauseObligations:
    """Everything the closure clauses demand of the members of a family over
    one signature, memoized per sentence for one verification or
    materialization run.

    ``of(s)`` yields ``(clause, need, options)`` triples: for universal
    clauses the options are a single required sentence; for the choice
    clauses (big-or witness, existential witness, fresh naming) any one
    option suffices.  Options are stored canonical, ``None`` standing for an
    option that leaves the member unchanged, so ``extend`` gives the
    extended member without re-canonicalizing it.
    """

    def __init__(self, sig: Signature):
        self._consts = sorted(sig.constants)
        self._fresh = sorted(sig.fresh_constants)
        self._fresh_set = sig.fresh_constants
        self._own = {}  # sentence -> its obligations (Ind.1-Ind.5, Str.1)
        self._constants = {}  # sentence -> constants_of(sentence)
        self._replaced = {}  # (equality, sentence) -> its Str.2 obligation, if any
        self._naming = {}  # constants mentioned -> Str.3 obligations

    @staticmethod
    def extend(s: frozenset, option: Optional[Formula]) -> frozenset:
        """The member ``s`` with one canonical option added."""
        return s if option is None or option in s else s | {option}

    def own(self, f: Formula) -> tuple:
        """The obligations of one canonical sentence by itself: Ind.1-Ind.5
        and Str.1."""
        out = self._own.get(f)
        if out is None:
            out = self._own[f] = self._sentence_obligations(f)
        return out

    def of(self, s: frozenset):
        """The obligations of member ``s``: each sentence's own, sentences in
        render order; then substitution of equals, equalities in render
        order; then fresh naming."""
        ordered = sorted(s, key=syntax.render)
        for f in ordered:
            yield from self.own(f)
        for e in ordered:
            if isinstance(e, Eq):
                for f in ordered:
                    if f is not e:
                        yield from self.replaced(e, f)
        yield from self.naming(frozenset().union(*map(self.constants_of, ordered)))

    def replaced(self, e: Eq, f: Formula) -> tuple:
        """Str.2 for the equality ``e`` and another sentence ``f`` of a
        member: empty when ``f`` does not mention ``e.right``."""
        out = self._replaced.get((e, f))
        if out is None:
            out = self._replaced[(e, f)] = self._substitution(e, f)
        return out

    def naming(self, mentioned: frozenset) -> tuple:
        """Str.3 for a member mentioning the constants ``mentioned``."""
        out = self._naming.get(mentioned)
        if out is None:
            out = self._naming[mentioned] = self._fresh_naming(mentioned)
        return out

    def constants_of(self, f: Formula) -> frozenset:
        out = self._constants.get(f)
        if out is None:
            out = self._constants[f] = syntax.constants_of(f)
        return out

    def _sentence_obligations(self, f: Formula) -> tuple:
        out = []

        def need(clause, text, options):
            out.append((clause, text, tuple(map(_canonical_sentence, options))))

        if isinstance(f, Not):
            if not isinstance(f.body, (Atom, Eq)):
                need("Ind.1", f"negation of {syntax.render(f.body)}", [syntax.nnf_step(f.body)])
        elif isinstance(f, And):
            for child in f.children:
                need("Ind.2", f"conjunct {syntax.render(child)}", [child])
        elif isinstance(f, Or):
            need("Ind.4", f"some disjunct of {syntax.render(f)}", f.children)
        elif isinstance(f, Forall):
            for combo in itertools.product(self._consts, repeat=len(f.vars)):
                inst = syntax.substitute(f.body, dict(zip(f.vars, combo)))
                need("Ind.3", f"instance {syntax.render(inst)}", [inst])
        elif isinstance(f, Exists):
            options = [
                syntax.substitute(f.body, dict(zip(f.vars, combo)))
                for combo in itertools.product(self._fresh, repeat=len(f.vars))
            ]
            need("Ind.5", f"witness for {syntax.render(f)}", options)
        if isinstance(f, Eq):
            need("Str.1", f"symmetric {syntax.render(f)}", [Eq(f.right, f.left)])
        return tuple(out)

    def _substitution(self, e: Eq, f: Formula) -> tuple:
        if e.right not in self.constants_of(f):
            return ()
        replaced = syntax.substitute(f, {e.right: e.left})
        need = f"substitute {e.left} for {e.right} in {syntax.render(f)}"
        return (("Str.2", need, (_canonical_sentence(replaced),)),)

    def _fresh_naming(self, mentioned: frozenset) -> tuple:
        out = []
        for d in self._consts:
            options = [None] if d in self._fresh_set else []
            preferred = [c for c in self._fresh if c != d]
            preferred.sort(key=lambda c: (c in mentioned, c))
            options.extend(Eq(c, d) for c in preferred)
            # with an empty fresh pool the clause is unsatisfiable for any d
            out.append(("Str.3", f"fresh name for {d}", tuple(options)))
        return tuple(out)


@dataclass(frozen=True)
class ClauseVerdict:
    ok: bool
    clause: str = ""
    member: Optional[frozenset] = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def verify_consistency_property(prop: ConsistencyProperty) -> ClauseVerdict:
    """Check the contradiction clause and all closure clauses on every member;
    reports the first violation, visiting members in ``ordered_members``
    order and each member's obligations in ``ClauseObligations.of`` order.

    The checks run on the property's ``MemberIndex``: each obligation's
    options are compiled to bits once per sentence (per equality and
    sentence for Str.2, per mentioned-constant set for Str.3), and an option
    is met when the member's mask with its bit is a member's mask.
    """
    index = prop.index
    sentences, masks, mask_set = index.sentences, index.masks, index.mask_set
    rows = list(zip(index.members, index.ids, masks))
    negated = [
        index.position.get(f.body) if isinstance(f, Not) else None for f in sentences
    ]
    for s, ids, mask in rows:
        for i in ids:
            j = negated[i]
            if j is not None and mask >> j & 1:
                return ClauseVerdict(False, "Con", s, syntax.render(sentences[j]))

    obligations = ClauseObligations(prop.sig)
    constants = [obligations.constants_of(f) for f in sentences]
    own, replaced, naming = {}, {}, {}

    def compiled(raw) -> tuple:
        return tuple((clause, need, index.bits(options)) for clause, need, options in raw)

    def of(ids):
        # the order of ClauseObligations.of, on sentence positions
        for i in ids:
            out = own.get(i)
            if out is None:
                out = own[i] = compiled(obligations.own(sentences[i]))
            yield from out
        for e in ids:
            if isinstance(sentences[e], Eq):
                for i in ids:
                    if i == e:
                        continue
                    out = replaced.get((e, i))
                    if out is None:
                        out = replaced[(e, i)] = compiled(
                            obligations.replaced(sentences[e], sentences[i])
                        )
                    yield from out
        mentioned = frozenset().union(*[constants[i] for i in ids])
        out = naming.get(mentioned)
        if out is None:
            out = naming[mentioned] = compiled(obligations.naming(mentioned))
        yield from out

    for s, ids, mask in rows:
        for clause, need, options in of(ids):
            for bit in options:
                if mask | bit in mask_set:
                    break
            else:
                return ClauseVerdict(False, clause, s, need)
    return ClauseVerdict(True)


# ---------------------------------------------------------------------------
# saturation of a theory into a consistency property


def clause_closure(seeds, obligations: ClauseObligations, bound: int, overflow, moves=None) -> set:
    """The canonical sentences reachable from the seeds by the one-step
    moves of Ind.1-Ind.5, the options of each sentence's own obligations,
    and by ``moves(f)`` when given.  Reflexive equalities and their
    negations are left out; more than ``bound`` sentences raise
    ``overflow``."""
    universe = set()
    queue = []

    def push(f):
        if f is None:
            return
        f = syntax.canon(f)
        if isinstance(f, Eq) and f.left == f.right:
            return
        if isinstance(f, Not) and isinstance(f.body, Eq) and f.body.left == f.body.right:
            return
        if f not in universe:
            universe.add(f)
            queue.append(f)
            if len(universe) > bound:
                raise overflow

    for f in seeds:
        push(f)
    while queue:
        f = queue.pop()
        for clause, _need, options in obligations.own(f):
            if clause != "Str.1":
                for option in options:
                    push(option)
        if moves is not None:
            for g in moves(f):
                push(g)
    return universe


def closure_universe(theory, sig: Signature, bound: int = 64) -> list:
    """The sentence universe the clauses can reach from a theory: its
    subsentences, all non-reflexive equalities over the constants and
    relation atoms over every tuple for the relations that occur (each with
    its negation), closed under the clause steps and under substitution
    recolorings.
    """
    sentences = list(theory.sentences if isinstance(theory, Theory) else theory)
    consts = sorted(sig.constants)
    seeds = [sub for phi in sentences for sub in syntax.subsentences(phi, sig)]
    for c, d in itertools.permutations(consts, 2):
        seeds += [Eq(c, d), Not(Eq(c, d))]
    rels = {g.rel for phi in sentences for g in syntax.subformulas(phi) if isinstance(g, Atom)}
    for rel in sorted(rels):
        for combo in itertools.product(consts, repeat=sig.relations[rel]):
            seeds += [Atom(rel, combo), Not(Atom(rel, combo))]

    def recolorings(f):
        occurring = syntax.constants_of(f)
        for c, d in itertools.permutations(consts, 2):
            if d in occurring:
                yield syntax.substitute(f, {d: c})

    overflow = BoolkitError(f"closure universe exceeds the bound of {bound} sentences")
    universe = clause_closure(seeds, ClauseObligations(sig), bound, overflow, recolorings)
    return sorted(universe, key=syntax.render)


def saturate_theory(
    theory,
    sig: Signature,
    bound: int = 64,
    budget: compact.Budget = compact.DEFAULT_BUDGET,
) -> ConsistencyProperty:
    """All finite subsets of the closure universe whose union with the
    theory's quantifier-free form (and its naming axiom) is consistent.

    When the theory itself is inconsistent the result is the empty family.
    """
    base = list(theory.sentences if isinstance(theory, Theory) else theory)
    session = compact.OracleSession(budget)

    def consistent(subset) -> bool:
        # the new sentences go last, where the session looks first for the
        # one a cached witness lacks
        status = session.status(base + list(subset), sig, require_qe=True)
        if status == compact.UNKNOWN:
            raise BoolkitError("fragment not decidable at this bound")
        return status == compact.CONSISTENT

    members = []
    if consistent(()):
        members = compact.kept_subsets(closure_universe(theory, sig, bound), consistent)
    return ConsistencyProperty(sig, members)


# ---------------------------------------------------------------------------
# model existence


def model_from_consprop(
    prop: ConsistencyProperty,
    budget: compact.Budget = compact.DEFAULT_BUDGET,
) -> tuple:
    """Build a model realizing every member of a consistency property.

    The members ordered by reverse inclusion form a poset, built from
    per-sentence membership bitsets (``Poset.of_sets``); its regular-open
    completion is the algebra; the domain is the constant pool; an atomic
    value is the regularization of the set of members holding the atom,
    read off the property's ``MemberIndex`` masks.  (A member to which the
    atom can be added without leaving the family has that extension below
    it, so the members compatible with the atom regularize to the same
    value.)  The property is verified clause by clause first, and a failing
    clause raises.  The construction is then validated: the congruence
    conditions must hold and every member's cone must sit below the value of
    each of its sentences, each distinct sentence evaluated once.  A
    validation failure raises with the counterexample.
    """
    verdict = verify_consistency_property(prop)
    if not verdict.ok:
        raise BoolkitError(
            f"not a consistency property: clause {verdict.clause} fails ({verdict.detail})"
        )
    if not prop.members:
        raise BoolkitError("empty consistency property has no model")
    sig = prop.sig
    consts = sorted(sig.constants)
    if not consts:
        raise BoolkitError("model construction needs at least one constant")

    index = prop.index
    members, masks = index.members, index.masks
    poset = Poset.of_sets(members)  # stronger means larger as a set
    ro = ro_completion(poset)
    algebra = ro.algebra

    def value_of(atom: Formula) -> int:
        i = index.position.get(atom)  # an atom in no member holds in none
        bit = 0 if i is None else 1 << i
        mask = sum(1 << j for j, m in enumerate(masks) if m & bit)
        return ro.element_of_mask(poset.regularize_mask(mask))

    domain = tuple(consts)
    eq = {}
    for a in consts:
        for b in consts:
            if a == b:
                eq[(a, b)] = algebra.one
            else:
                key = (a, b) if a <= b else (b, a)
                eq[(a, b)] = value_of(Eq(*key))
    rel = {}
    for name, arity in sig.relations.items():
        table = {}
        for combo in itertools.product(consts, repeat=arity):
            table[combo] = value_of(Atom(name, combo))
        rel[name] = table
    consts_map = {c: c for c in consts}

    try:
        model = bvmodel.BValuedModel(algebra, domain, eq, rel, consts_map)
    except BoolkitError as exc:
        raise ConstructionFailure(f"congruence validation failed: {exc}") from exc

    # each distinct sentence is evaluated once, when a member first needs it
    values = {}
    diagnostics = {"members": len(members), "atoms": algebra.atom_count, "checked": 0}
    for s in members:
        cone = ro.cone[s]
        for phi in s:
            value = values.get(phi)
            if value is None:
                value = values[phi] = bvmodel.eval_formula(
                    model, phi, max_steps=budget.eval_steps
                )
            diagnostics["checked"] += 1
            if not algebra.leq(cone, value):
                raise ConstructionFailure(
                    "cone is not below the value of a member sentence",
                    counterexample={
                        "member": sorted(map(syntax.render, s)),
                        "sentence": syntax.render(phi),
                        "cone": cone,
                        "value": value,
                    },
                )
    return model, diagnostics


def mixing_model_from_consprop(
    prop: ConsistencyProperty,
    budget: compact.Budget = compact.DEFAULT_BUDGET,
) -> tuple:
    """Model existence strengthened by the mixing completion; re-checks that
    every member keeps a nonzero conjunction value."""
    model, diagnostics = model_from_consprop(prop, budget)
    completed = bvmodel.mixing_completion(model)
    for s in prop.members:
        value = bvmodel.eval_formula(
            completed, syntax.canonical(And, s), max_steps=budget.eval_steps
        )
        if value == 0 and s:
            raise ConstructionFailure(
                "member lost its nonzero value under mixing completion",
                counterexample=sorted(map(syntax.render, s)),
            )
    diagnostics = dict(diagnostics)
    diagnostics["mixing_domain"] = len(completed.domain)
    return completed, diagnostics
