"""Consistency properties: clause-by-clause verification, theory saturation,
and the finite-scale model existence construction.

A consistency property is a finite family of finite sentence sets.  Members
are canonical sentence sets with reflexive equalities dropped (they are
logically void and only inflate the family), kept as masks over their
distinct sentences; the sets themselves are built only on request.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from . import bvmodel, compact, syntax
from .balg import Poset, bit_positions, holder_masks, ro_completion
from .errors import BoolkitError, ConstructionFailure
from .syntax import And, Atom, Eq, Exists, Forall, Formula, Not, Or, Signature


def _canonical_sentence(f: Formula) -> Optional[Formula]:
    """A sentence as it enters a member: canonical, with ``None`` for a
    reflexive equality, which changes nothing."""
    f = syntax.canon(f)
    if isinstance(f, Eq) and f.left == f.right:
        return None
    return f


class ConsistencyProperty:
    """A signature and a family of members, kept as bitmasks over the
    family's distinct sentences.

    Each distinct sentence gets one bit, in render order, so a member's
    sorted positions compare as its sorted renderings do, and ``position``
    maps each sentence to its bit.  Members are numbered by size, then by
    those positions; ``ids`` and ``masks`` give each one's sorted positions
    and bitmask, ``number`` maps each mask to its member's number, and
    ``holders[i]`` is the mask of the member numbers that hold sentence i.
    ``member(k)`` is member k as a frozenset of sentences, and ``members``
    lists them all in number order, built on request.

    ``ConsistencyProperty(sig, members)`` canonicalizes its members and
    drops reflexive equalities.  ``from_rows(sig, sentences, rows)`` takes
    each member as a row of numbers into ``sentences``, which must be
    canonical and free of reflexive equalities, in render order of their
    sentences; the sentences some member holds are renumbered in render
    order, which keeps each row sorted.
    """

    def __init__(self, sig: Signature, members):
        members = {
            frozenset(f for f in map(_canonical_sentence, s) if f is not None) for s in members
        }
        sentences = sorted(set().union(*members), key=syntax.render)
        position = {f: i for i, f in enumerate(sentences)}
        self._build(sig, sentences, [sorted(map(position.__getitem__, s)) for s in members])

    @classmethod
    def from_rows(cls, sig: Signature, sentences, rows) -> "ConsistencyProperty":
        prop = cls.__new__(cls)
        prop._build(sig, sentences, rows)
        return prop

    def _build(self, sig, sentences, rows):
        self.sig = sig
        order = sorted(set().union(*rows), key=lambda i: syntax.render(sentences[i]))
        self.sentences = [sentences[i] for i in order]
        self.position = {f: i for i, f in enumerate(self.sentences)}
        rank = dict(zip(order, range(len(order))))
        self.ids = sorted(
            (tuple(map(rank.__getitem__, row)) for row in rows), key=lambda ids: (len(ids), ids)
        )
        self.masks = [sum(1 << i for i in ids) for ids in self.ids]
        self.number = {mask: k for k, mask in enumerate(self.masks)}
        self.holders = holder_masks(self.ids, len(self.sentences))

    def __len__(self):
        return len(self.masks)

    def member(self, k: int) -> frozenset:
        return frozenset(map(self.sentences.__getitem__, self.ids[k]))

    @functools.cached_property
    def members(self) -> tuple:
        return tuple(map(self.member, range(len(self.ids))))

    def bits(self, options) -> tuple:
        """Canonical options as bits, 0 for ``None`` (the member itself); an
        option in no member is dropped."""
        position = self.position
        return tuple(
            0 if option is None else 1 << position[option]
            for option in options
            if option is None or option in position
        )

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


class ClauseObligations:
    """Everything the closure clauses demand of the members of a family over
    one signature, for one verification or materialization run.

    An obligation is a ``(clause, need, options)`` triple: for universal
    clauses the options are a single required sentence; for the choice
    clauses (big-or witness, existential witness, fresh naming) any one
    option suffices.  Options are stored canonical, ``None`` standing for an
    option that leaves the member unchanged, so ``compiled`` turns each
    into a bit to OR into a member's mask.
    """

    def __init__(self, sig: Signature):
        self._consts = sorted(sig.constants)
        self._fresh = sorted(sig.fresh_constants)
        self._fresh_set = sig.fresh_constants
        # the obligations of one canonical sentence by itself: Ind.1-Ind.5
        # and Str.1, memoized
        self.own = functools.cache(self._sentence_obligations)

    def compiled(self, sentences, bits):
        """The obligations of members given by sentence numbers, options as
        bits.  The returned ``of(ids)`` takes a member's numbers into
        ``sentences`` in render order of their sentences and yields
        ``(clause, need, option bits)``: each sentence's own obligations;
        then substitution of equals, equalities in render order; then fresh
        naming, left out when every constant is fresh, as each of its
        options then starts with the member itself.  ``bits(options)``
        compiles one obligation's options, once per sentence, per
        (equality, sentence) pair and per set of mentioned constants."""

        def compile_(raw) -> tuple:
            return tuple((clause, need, bits(options)) for clause, need, options in raw)

        own = functools.cache(lambda i: compile_(self.own(sentences[i])))
        replaced = functools.cache(lambda e, i: compile_(self.replaced(sentences[e], sentences[i])))
        naming = functools.cache(lambda mentioned: compile_(self.naming(mentioned)))
        constants = functools.cache(lambda i: syntax.constants_of(sentences[i]))
        named = self._consts != self._fresh

        def of(ids):
            for i in ids:
                yield from own(i)
            for e in ids:
                if isinstance(sentences[e], Eq):
                    for i in ids:
                        if i != e:
                            yield from replaced(e, i)
            if named:
                yield from naming(frozenset().union(*map(constants, ids)))

        return of

    def replaced(self, e: Eq, f: Formula) -> tuple:
        """Str.2 for the equality ``e`` and another sentence ``f`` of a
        member: empty when ``f`` does not mention ``e.right``."""
        if e.right not in syntax.constants_of(f):
            return ()
        replaced = syntax.substitute(f, {e.right: e.left})
        need = f"substitute {e.left} for {e.right} in {syntax.render(f)}"
        return (("Str.2", need, (_canonical_sentence(replaced),)),)

    def naming(self, mentioned: frozenset) -> tuple:
        """Str.3 for a member mentioning the constants ``mentioned``."""
        out = []
        for d in self._consts:
            options = [None] if d in self._fresh_set else []
            preferred = [c for c in self._fresh if c != d]
            preferred.sort(key=lambda c: (c in mentioned, c))
            options.extend(Eq(c, d) for c in preferred)
            # with an empty fresh pool the clause is unsatisfiable for any d
            out.append(("Str.3", f"fresh name for {d}", tuple(options)))
        return tuple(out)

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
    reports the first violation, visiting members in number order and each
    member's obligations in ``ClauseObligations.compiled`` order.

    Each check runs once per distinct sentence, for every member at once,
    on masks of member numbers.  A member m meets an option b when it holds
    b or m ∪ {b} is a member, so the members meeting b are b's holders and
    those holders without b.  An obligation fails on the members it applies
    to that meet none of its options: a sentence's own obligations apply to
    its holders, Str.2 to the holders of an equality and another sentence,
    and Str.3, whose options do not depend on the member, to all.  Con fails on the holders
    of a negation and of its body.  Only the first failing member is
    walked, obligation by obligation, to name the clause and the detail.
    """
    sentences, masks, number, holders = prop.sentences, prop.masks, prop.number, prop.holders
    everyone = (1 << len(masks)) - 1
    negated = [
        prop.position.get(f.body) if isinstance(f, Not) else None for f in sentences
    ]
    con = 0
    for i, j in enumerate(negated):
        if j is not None:
            con |= holders[i] & holders[j]
    if con:
        k = next(bit_positions(con))
        body = next(j for j in map(negated.__getitem__, prop.ids[k])
                    if j is not None and masks[k] >> j & 1)
        return ClauseVerdict(False, "Con", prop.member(k), syntax.render(sentences[body]))

    @functools.cache
    def meets(bit: int) -> int:
        if not bit:
            return everyone
        out = held = holders[bit.bit_length() - 1]
        for k in bit_positions(held):
            j = number.get(masks[k] ^ bit)
            if j is not None:
                out |= 1 << j
        return out

    def failing(subject: int, raw) -> int:
        out = 0
        for _clause, _need, options in raw:
            met = 0
            for bit in prop.bits(options):
                met |= meets(bit)
            out |= subject & ~met
        return out

    obligations = ClauseObligations(prop.sig)
    bad = failing(everyone, obligations.naming(frozenset()))  # the same options for all
    for i, f in enumerate(sentences):
        bad |= failing(holders[i], obligations.own(f))
        if isinstance(f, Eq):
            for j, g in enumerate(sentences):
                both = holders[i] & holders[j]
                if both and j != i:
                    bad |= failing(both, obligations.replaced(f, g))
    if not bad:
        return ClauseVerdict(True)
    k = next(bit_positions(bad))
    mask = masks[k]
    clause, need = next(
        (clause, need)
        for clause, need, options in obligations.compiled(sentences, prop.bits)(prop.ids[k])
        if not any(mask | bit in number for bit in options)
    )
    return ClauseVerdict(False, clause, prop.member(k), need)


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
    sentences = list(theory)
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
    base = list(theory)
    session = compact.OracleSession(budget)
    doing = "saturating the theory"
    if compact._decided(session.status(base, sig, require_qe=True), doing) != compact.CONSISTENT:
        return ConsistencyProperty(sig, [])
    # the universe is canonical and free of reflexive equalities
    universe = closure_universe(theory, sig, bound)
    position = {f: i for i, f in enumerate(universe)}  # render order, so rows come sorted
    rows = []
    # the new sentences go last, where ``status`` first looks for one a witness lacks
    for s, status in session.kept_subsets(universe, sig, head=base, require_qe=True):
        compact._decided(status, doing)
        rows.append([position[f] for f in s])
    return ConsistencyProperty.from_rows(sig, universe, rows)


# ---------------------------------------------------------------------------
# model existence


def model_from_consprop(
    prop: ConsistencyProperty,
    budget: compact.Budget = compact.DEFAULT_BUDGET,
) -> tuple:
    """Build a model realizing every member of a consistency property.

    The members ordered by reverse inclusion form a poset, built from the
    property's masks and holders, whose positions are the member numbers;
    its regular-open completion is the algebra and the domain is the
    constant pool.  An atomic value is the regularization of the atom's
    holders.  (A member to which the atom can be added without leaving the
    family has that extension below it, so the members compatible with the
    atom regularize to the same value.)  As each algebra atom is the cone of
    a maximal member, which lies in the regularization of a set just when it
    lies in the set, the value is the set of atoms whose maximal member
    holds the atom.  The property is verified clause by clause first, and a
    failing clause raises.  The construction is then validated: the
    congruence conditions must hold and every member's cone must sit below
    the value of each of its sentences.  Each distinct sentence is evaluated
    once, and fails on its holders inside the maximal member of an atom
    outside its value; only the first failing member is walked, its
    sentences in render order, to name the failure, which raises with the
    counterexample: the member, the sentence, the member's cone and the
    sentence's value.  Member sets are built only to name a failure.
    """
    verdict = verify_consistency_property(prop)
    if not verdict.ok:
        raise BoolkitError(
            f"not a consistency property: clause {verdict.clause} fails ({verdict.detail})"
        )
    if not prop.masks:
        raise BoolkitError("empty consistency property has no model")
    sig = prop.sig
    consts = sorted(sig.constants)
    if not consts:
        raise BoolkitError("model construction needs at least one constant")

    holders = prop.holders
    poset = Poset(prop.masks, holders)  # stronger means larger
    ro = ro_completion(poset)
    algebra = ro.algebra

    def value_of(atom: Formula) -> int:
        i = prop.position.get(atom)  # an atom in no member holds in none
        mask = 0 if i is None else holders[i]
        return sum(1 << j for j, r in enumerate(ro.minimal) if mask >> r & 1)

    try:
        model = bvmodel.BValuedModel.tabulate(
            algebra, consts, sig.relations,
            lambda a, b: algebra.one if a == b else value_of(Eq(*sorted((a, b)))),
            lambda name, xs: value_of(Atom(name, xs)),
            {c: c for c in consts},
        )
    except BoolkitError as exc:
        raise ConstructionFailure(f"congruence validation failed: {exc}") from exc

    ups = [poset.above(r) for r in ro.minimal]
    values, failed = [], []
    for i, phi in enumerate(prop.sentences):
        value = bvmodel.eval_formula(model, phi, max_steps=budget.eval_steps)
        outside = 0
        for j in bit_positions(algebra.one & ~value):
            outside |= ups[j]
        values.append(value)
        failed.append(holders[i] & outside)
    bad = functools.reduce(int.__or__, failed, 0)
    if bad:
        k = next(bit_positions(bad))
        i = next(i for i in prop.ids[k] if failed[i] >> k & 1)
        raise ConstructionFailure(
            "cone is not below the value of a member sentence",
            counterexample={
                "member": sorted(map(syntax.render, prop.member(k))),
                "sentence": syntax.render(prop.sentences[i]),
                "cone": ro.cone[k],
                "value": values[i],
            },
        )
    checked = sum(map(len, prop.ids))
    return model, {"members": len(prop.masks), "atoms": algebra.atom_count, "checked": checked}


def mixing_model_from_consprop(
    prop: ConsistencyProperty,
    budget: compact.Budget = compact.DEFAULT_BUDGET,
) -> tuple:
    """Model existence strengthened by the mixing completion; re-checks that
    every member keeps a nonzero conjunction value.  Each distinct sentence
    is evaluated once on the completion (``eval_steps`` caps each sentence),
    a member's value is the meet of its sentences' values, and the first
    member, in number order, whose value is 0 is named."""
    model, diagnostics = model_from_consprop(prop, budget)
    completed = bvmodel.mixing_completion(model)
    values = [
        bvmodel.eval_formula(completed, phi, max_steps=budget.eval_steps)
        for phi in prop.sentences
    ]
    for k, ids in enumerate(prop.ids):
        if ids and not functools.reduce(int.__and__, map(values.__getitem__, ids)):
            raise ConstructionFailure(
                "member lost its nonzero value under mixing completion",
                counterexample=sorted(map(syntax.render, prop.member(k))),
            )
    diagnostics = dict(diagnostics)
    diagnostics["mixing_domain"] = len(completed.domain)
    return completed, diagnostics
