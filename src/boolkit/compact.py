"""The ground consistency oracle, conservative strengthening, finite
conservativity, the compactness pipeline, the completion-to-star-theory
construction, and the first-order compactness demonstration.

The oracle decides satisfiability of ground sentence sets over the atom space
of constant equalities and relation atoms, with equality congruence closure,
by deterministic backtracking search.  Quantified input is reduced to its
fresh-constant instances together with the naming constraints, so for
quantified sentences a verdict is always relative to witnesses whose elements
are named by the declared constants.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional

from . import bvmodel, syntax
from .balg import bit_positions, ultrafilters
from .certify import replay_certificate  # noqa: F401 (re-exported)
from .errors import BoolkitError, ConstructionFailure, ResourceBudgetError, SignatureError
from .syntax import And, Atom, Eq, Formula, Not, Or, Signature, Theory


@dataclass(frozen=True)
class Budget:
    """Caps for oracle search, subset enumeration, and evaluation."""

    oracle_nodes: int = 200_000
    max_subset: Optional[int] = None
    max_members: int = 20_000
    eval_steps: int = bvmodel.DEFAULT_EVAL_CAP

    def __post_init__(self):
        if self.oracle_nodes <= 0 or self.max_members <= 0 or self.eval_steps <= 0:
            raise BoolkitError("budgets must be positive")
        if self.max_subset is not None and self.max_subset <= 0:
            raise BoolkitError("budgets must be positive")


DEFAULT_BUDGET = Budget()

CONSISTENT = "Consistent"
INCONSISTENT = "Inconsistent"
UNKNOWN = "Unknown"


@dataclass
class OracleVerdict:
    status: str
    witness: Optional[bvmodel.BValuedModel] = None
    certificate: Optional[dict] = None
    budget_used: int = 0

    def __bool__(self):
        return self.status == CONSISTENT


# ---------------------------------------------------------------------------
# backtracking search with congruence closure


class _PathClosure:
    """Congruence closure of the current search path, extended by one
    undecided atom at a time and undone on backtrack.

    Every constant maps straight to its class representative, the class
    minimum, each representative to the list of its class's constants and
    to the representatives it is distinct from.  A relation literal is one
    table entry.  A positive equality moves the member list of the class
    with the larger minimum, and its disequalities, to the other, and
    relabels the relation tables when they hold an entry; the only conflict
    a merge can cause is a relation clash, named by the least one.  Undo
    truncates the member list again.  On a satisfying path ``rep`` and
    ``rel_true`` are its model.
    """

    def __init__(self, constants):
        self.rep = {c: c for c in constants}
        self.members = {c: [c] for c in constants}
        self.diseq = {c: set() for c in constants}
        self.rel_true = set()
        self.rel_false = set()
        self._undo = []

    def assign(self, key, value):
        """Extend the path by an atom the closure leaves undecided; return
        the conflict it causes, or None."""
        rep, diseq = self.rep, self.diseq
        if key[0] == "rel":
            # an undecided atom's entry is new, so it clashes with nothing
            table = self.rel_true if value else self.rel_false
            entry = (key[1], tuple(map(rep.__getitem__, key[2])))
            table.add(entry)
            self._undo.append(((table, entry),))
            return None
        a, b = rep[key[1]], rep[key[2]]
        if b < a:
            a, b = b, a
        if not value:
            diseq[a].add(b)
            diseq[b].add(a)
            self._undo.append(((diseq[a], b), (diseq[b], a)))
            return None
        # a positive equality is assigned only while it is undecided, so no
        # disequality separates a and b, and none ever falls inside a class
        moved, kept = self.members[b], self.members[a]
        for c in moved:
            rep[c] = a
        size = len(kept)
        kept += moved
        partners = diseq[b]  # kept as it is for the undo
        added = partners - diseq[a]
        for p in partners:
            diseq[p].discard(b)
        for p in added:
            diseq[p].add(a)
        diseq[a] |= added
        rel_true, rel_false = self.rel_true, self.rel_false
        self._undo.append((a, b, size, added, rel_true, rel_false))
        if not (rel_true or rel_false):
            return None
        self.rel_true = {(r, tuple(map(rep.__getitem__, args))) for r, args in rel_true}
        self.rel_false = {(r, tuple(map(rep.__getitem__, args))) for r, args in rel_false}
        clash = self.rel_true & self.rel_false
        return ("rel-congruence", min(clash)) if clash else None

    def model(self) -> tuple:
        """The path's model: each constant's representative, in the order
        the constants were given, and the frozenset of true relation entries."""
        return tuple(self.rep.values()), frozenset(self.rel_true)

    def undo(self):
        """Take the last assigned atom off the path."""
        entry = self._undo.pop()
        if len(entry) < 6:  # a literal: the (set, item) pairs it added
            for table, item in entry:
                table.discard(item)
            return
        a, b, size, added, self.rel_true, self.rel_false = entry
        diseq, rep = self.diseq, self.rep
        for p in added:
            diseq[p].discard(a)
        diseq[a] -= added
        for p in diseq[b]:
            diseq[p].add(b)
        del self.members[a][size:]
        for c in self.members[b]:
            rep[c] = b


class _BudgetExhausted(Exception):
    pass


def _ground_search(constants, node_cap: int, pending: list) -> tuple:
    """Depth-first search over atom assignments on one path closure, from
    the (index, ``_Ground.compiled`` sentence) pairs ``pending``: the model
    of the satisfying path (``_PathClosure.model``) or None, the certificate
    or None, and the node count;
    ``_BudgetExhausted`` at node ``node_cap + 1`` (``node_cap`` ≥ 1), nodes
    counted in depth-first order.

    A node branches on the literal forced by the first undecided sentence
    that forces one (an undecided leaf forces itself, an ``and`` what its
    first undecided child that forces one forces, an ``or`` with one child
    not false what that child forces), forced value first.  The other side
    falsifies that sentence, so it is one ``sentence`` leaf, a node with no
    search, closed without touching the path closure, unless it merges two
    classes while the relation tables hold entries: that side is assigned,
    and closed by the clash if the path clashes there.  With no forced
    literal, a node branches on the first undecided atom of the first
    undecided sentence, True first.  A side whose assignment clashes is a
    leaf closed by the clash.  A node evaluates only the sentences its
    parent left undecided (a strong-Kleene value holds on every extension
    of the path), each shared compiled node once, in one pass that also
    finds the units.  An undecided ``or`` sentence passes to the nodes
    below only its residual ``["or", children, None]``, less the leaves
    false on the path: an inner child stays, false or not, as ``first`` may
    pick an undecided leaf inside it, so the residual branches alike."""
    closure = _PathClosure(constants)
    rep, diseq = closure.rep, closure.diseq
    rel_true = rel_false = None
    values = {}  # shared node -> its value on the path
    nodes = 1  # the root

    def value(node):
        """Strong Kleene value on the path: True, False, or when undecided
        the leaf of the literal the node forces, or None."""
        kind, x, y = node  # a leaf: sign, key; an inner node: children, shared
        if kind == "eq":
            a, b = rep[y[1]], rep[y[2]]
            return x if a == b else (not x) if b in diseq[a] else node
        if kind == "rel":
            canon = (y[1], tuple(map(rep.__getitem__, y[2])))
            return x if canon in rel_true else (not x) if canon in rel_false else node
        if y is not None and y in values:
            return values[y]
        if kind == "and":
            out = True
            for child in x:
                k, cx, cy = child  # equality leaves, the commonest, inline
                if k == "eq":
                    a, b = rep[cy[1]], rep[cy[2]]
                    v = cx if a == b else (not cx) if b in diseq[a] else child
                else:
                    v = value(child)
                if v is False:
                    out = False
                    break
                if v is not True and type(out) is not tuple:
                    out = v
        else:
            out = False
            for child in x:
                k, cx, cy = child
                if k == "eq":
                    a, b = rep[cy[1]], rep[cy[2]]
                    v = cx if a == b else (not cx) if b in diseq[a] else child
                else:
                    v = value(child)
                if v is True:
                    out = True
                    break
                if v is not False:
                    out = v if out is False else None
        if y is not None:
            values[y] = out
        return out

    def first(node):
        """The path key of the first leaf whose atom is undecided."""
        kind, x, y = node
        if kind == "eq" or kind == "rel":
            return y if value(node) is node else None
        return next(filter(None, map(first, x)), None)

    def expand(pending):
        """Evaluate a node's sentences: the leaf of the first false one, True
        when none is undecided, or else None, the node pushed on ``path``."""
        nonlocal rel_true, rel_false
        rel_true, rel_false = closure.rel_true, closure.rel_false
        values.clear()
        undecided = []
        unit = forcing = None
        for i, f in pending:
            kind, x, y = f
            if kind == "eq":
                a, b = rep[y[1]], rep[y[2]]
                v = x if a == b else (not x) if b in diseq[a] else f
            elif kind != "or" or y in values:
                v = value(f)
            else:  # value's ``or`` loop, which also drops the false leaves
                v, live = False, None  # live: the residual's children, once one is dropped
                for child in x:
                    k, cx, cy = child
                    if k == "eq":
                        a, b = rep[cy[1]], rep[cy[2]]
                        w = cx if a == b else (not cx) if b in diseq[a] else child
                    else:
                        w = value(child)
                    if w is True:
                        v = True
                        break
                    if w is False and type(child) is tuple:
                        if live is None:  # x.index finds it: an equal leaf before it is false too
                            live = x[: x.index(child)]
                        continue
                    if live is not None:
                        live.append(child)
                    if w is not False:
                        v = w if v is False else None
                if y is not None:
                    values[y] = v
                if live is not None:
                    f = ["or", live, None]
            if v is False:
                return {"conflict": {"kind": "sentence", "index": i}}
            if v is not True:
                undecided.append((i, f))
                if unit is None and v is not None:
                    unit, forcing = v, i
        if not undecided:
            return True
        if unit is None:
            atom, sides, refuted = first(undecided[0][1]), [False, True], None
        else:
            atom, sides, refuted = unit[2], [not unit[1], unit[1]], not unit[1]
        path.append(({"atom": list(atom)}, undecided, atom, sides, refuted, forcing))
        return None

    # the open nodes, root first: (certificate, undecided sentences, atom,
    # sides still to take, last first, refuted side, forcing sentence).  A
    # loop over them, not recursion, keeps the interpreter's frame stack as
    # deep as the caller's: a recursive search that hovers at the edge of a
    # frame-stack chunk frees and reallocates it on every call (CPython 3.11)
    path = []
    try:
        sub = expand(pending)
        if sub is not None:
            return (closure.model(), None, nodes) if sub is True else (None, sub, nodes)
        root = path[0][0]
        while path:
            cert, undecided, atom, sides, refuted, forcing = path[-1]
            if not sides:
                path.pop()
                if path:
                    closure.undo()  # the side that opened the node
                continue
            truth = sides.pop()
            nodes += 1
            if nodes > node_cap:
                raise _BudgetExhausted
            branch = "true" if truth else "false"
            # a refuted side can clash only as a merge while both relation tables hold entries
            if truth is refuted and not (
                truth and atom[0] == "eq" and closure.rel_true and closure.rel_false
            ):
                cert[branch] = {"conflict": {"kind": "sentence", "index": forcing}}
                continue
            conflict = closure.assign(atom, truth)
            if conflict is not None:
                sub = {"conflict": {"kind": conflict[0], "detail": repr(conflict[1])}}
            elif truth is refuted:
                sub = {"conflict": {"kind": "sentence", "index": forcing}}
            else:
                sub = expand(undecided)
                if sub is True:
                    return closure.model(), None, nodes
                if sub is None:  # the node opened below this side
                    cert[branch] = path[-1][0]
                    continue
            cert[branch] = sub
            closure.undo()
        return None, root, nodes
    finally:
        value = first = None  # break the closures' cycles, freeing the path now


# ---------------------------------------------------------------------------
# ground reduction and the oracle session


def _sig_key(sig: Signature):
    return (
        tuple(sorted(sig.relations.items())),
        tuple(sorted(sig.base_constants)),
        tuple(sorted(sig.fresh_constants)),
    )


class _Query(list):
    """A theory that ``OracleSession.kept_subsets`` asks about: its sentences
    in order, with the ground that prepared it and ``prepare``'s answer."""

    __slots__ = ("ground", "prepared")


class _Ground:
    """The oracle's view of one signature: the search's constants, each
    sentence's prepared forms, the session caches of sentence sets, and one
    witness per model a search ended in.

    Each distinct prepared ground sentence gets a number, first seen first,
    and a sentence set is keyed by its mask, the OR of the bits ``1 <<
    number`` that ``prepare`` keeps with each sentence."""

    def __init__(self, sig: Signature):
        self.sig = sig
        self.constants = sorted(sig.constants) or ["_unit"]
        self.declared = sig.constants  # the constants a sentence may name
        # id(sentence) -> (sentence, ground number, its bit, quantifier
        # free); keyed by identity, as a run passes the same objects again
        # and again
        self.prepared = {}
        self.sentences = []  # number -> prepared sentence
        self.numbers = {}  # prepared sentence -> its number
        self.naming = self.naming_mask = None  # the naming constraints' numbers, their mask
        self.statuses = {}  # set mask -> status
        self.witnesses = {}  # set mask -> two-valued model of the set
        self.models = {}  # _PathClosure.model -> its witness
        self.holds = {}  # (id of a kept witness, number) -> the sentence holds there
        self.roots = {}  # number -> compiled sentence
        self.nodes = ({}, {})  # per polarity: id of a formula object -> its node
        self.shared = 0  # inner nodes reached twice so far

    def compiled(self, n: int):
        """The numbered ground sentence in negation normal form, compiled once
        per session, one node per (formula object, polarity), a ``not``
        flipping the polarity of its body: a leaf is a tuple ("eq" or "rel",
        sign, path key), read only, an inner node a list ["and" or "or",
        children in order, shared], where ``shared`` numbers an inner node
        reached twice.  A leaf is never marked shared: the search reads its
        value off the path closure in constant time."""
        root = self.roots.get(n)
        if root is None:
            root = self.roots[n] = self._compile((self.sentences[n],), True)[0]
        return root

    def _compile(self, formulas, sign: bool) -> list:
        out, memo, declared = [], self.nodes, self.declared
        for f in formulas:
            polarity = sign
            while type(f) is Not:
                f, polarity = f.body, not polarity
            nodes, key = memo[polarity], id(f)
            node = nodes.get(key)
            if node is None:
                kind = type(f)
                if kind is Eq:
                    a, b = f.left, f.right
                    if a not in declared or b not in declared:
                        raise SignatureError(f"undeclared term in {syntax.render(f)}")
                    node = ("eq", polarity, ("eq", a, b) if a <= b else ("eq", b, a))
                elif kind is Atom:
                    if not declared.issuperset(f.args):
                        raise SignatureError(f"undeclared term in {syntax.render(f)}")
                    node = ("rel", polarity, ("rel", f.rel, f.args))
                elif kind is And or kind is Or:
                    kind = "and" if (kind is And) == polarity else "or"
                    node = [kind, self._compile(f.children, polarity), None]
                else:
                    raise BoolkitError(f"non-ground sentence reached the ground solver: {f!r}")
                nodes[key] = node
            elif type(node) is list and node[2] is None:
                node[2] = self.shared
                self.shared += 1
            out.append(node)
        return out

    def number(self, f: Formula) -> int:
        n = self.numbers.get(f)
        if n is None:
            n = self.numbers[f] = len(self.sentences)
            self.sentences.append(f)
        return n

    def prepare(self, theory, require_qe: bool) -> tuple:
        """The numbers of the theory's ground sentences as a tuple, whether
        the fresh-constant reduction applied (see ``certify.prepare_ground``,
        which this reduction must match), and the set's mask; a quantified
        sentence is reduced once, when its entry is made.  A walk's
        ``_Query`` on this ground carries them already."""
        if type(theory) is _Query and theory.ground is self:
            return theory.prepared
        sig, prepared = self.sig, self.prepared
        numbers, key, reduced = [], 0, require_qe
        for f in theory:
            entry = prepared.get(id(f))
            if entry is None or entry[0] is not f:
                # a quantifier-free sentence is its own ground sentence, as
                # ``qe_transform`` of it is a structurally equal copy
                c = syntax.canon(f)
                qf = syntax.is_quantifier_free(c)
                if not qf and not sig.fresh_constants:
                    raise SignatureError("quantified input needs a nonempty fresh-constant pool")
                if not qf:
                    c = syntax.canon(syntax.qe_transform(c, sig))
                n = self.number(c)
                entry = prepared[id(f)] = (f, n, 1 << n, qf)
            numbers.append(entry[1])
            key |= entry[2]
            reduced = reduced or not entry[3]
        if not reduced:
            return tuple(numbers), False, key
        if self.naming is None:
            self.naming = tuple(map(self.number, syntax.naming_constraints(sig)))
            self.naming_mask = sum(1 << n for n in set(self.naming))
        return tuple(numbers) + self.naming, True, key | self.naming_mask

    def witness(self, model) -> bvmodel.BValuedModel:
        """The two-valued witness of a path model, built and validated once
        per model: one element per class, named by its representative, and
        each relation true exactly on the model's true entries."""
        witness = self.models.get(model)
        if witness is None:
            reps, true = model
            consts = dict(zip(self.constants, reps))
            witness = self.models[model] = bvmodel.tarski_model(consts, self.sig.relations, true)
        return witness

    def held(self, witness, n: int) -> bool:
        """Whether the numbered sentence holds in a kept witness, memoized in
        ``holds``."""
        memo = (id(witness), n)
        value = self.holds.get(memo)
        if value is None:
            try:
                value = self.holds[memo] = bvmodel.holds(witness, self.sentences[n])
            except BoolkitError:
                self.compiled(n)  # an undeclared term raises the search's SignatureError
                raise
        return value

    def record(self, key: int, verdict: OracleVerdict) -> None:
        """Keep a searched set's status, and its witness, under its mask."""
        self.statuses.setdefault(key, verdict.status)
        if verdict.witness is not None:
            self.witnesses.setdefault(key, verdict.witness)


class OracleSession:
    """The oracle queries of one top-level run, under one budget.

    A run asks about many overlapping sentence sets, mostly for their status
    alone.  The session memoizes each sentence's prepared forms, number and
    bit per signature, and answers two queries:

    - ``verdict`` always searches and returns the search's full
      OracleVerdict, so a certificate indexes its own input;
    - ``status`` returns the status alone, cached under the set's mask.
      Before searching it looks at each subset with one sentence removed,
      ``mask & ~bit``.  When that subset was refuted, so is the whole set
      (a refuted-subset hit).  When that subset has a witness and the
      removed sentence holds there (``bvmodel.holds``, memoized per witness
      and sentence), the witness is a Tarski model of the whole set (model
      rotation).

    A searched Consistent result ends in a model read off the path closure:
    the class representatives and the true relation entries.  Its ground
    builds one validated two-valued witness per distinct model, and every
    search checks each of its sentences there through the same memo; the
    witness then serves later status queries.  The checks evaluate the
    sentence's Formula objects with ``bvmodel``, which stops a conjunction
    at its first false conjunct and a disjunction at its first true one, so
    a check of a large sentence (a genericity sentence) walks only the part
    that decides it.  Every Inconsistent status goes back to a certified
    search on a subset.  So a witness or a refuted subset can decide a set
    that a search under the session's node cap would leave Unknown: a
    ``verdict`` is a function of (theory, signature, budget), but a
    ``status`` also depends on what the session was asked before.

    The counters are plain integers: ``calls``, ``status_hits``,
    ``refuted_hits``, ``hint_hits`` (witnesses), ``searches`` and the
    ``nodes`` those searches visited.
    """

    def __init__(self, budget: Budget = DEFAULT_BUDGET):
        self.budget = budget
        self.calls = self.status_hits = self.refuted_hits = self.hint_hits = 0
        self.searches = self.nodes = 0
        self._grounds = {}  # _sig_key(sig) -> _Ground
        self._last = (None, None)  # the last signature object asked about, its ground

    def counters(self) -> dict:
        return {
            name: getattr(self, name)
            for name in ("calls", "status_hits", "refuted_hits", "hint_hits", "searches", "nodes")
        }

    def _ground(self, sig: Signature) -> _Ground:
        if self._last[0] is not sig:
            key = _sig_key(sig)
            if key not in self._grounds:
                self._grounds[key] = _Ground(sig)
            self._last = (sig, self._grounds[key])
        return self._last[1]

    def verdict(self, theory, sig: Signature, require_qe: bool = False) -> OracleVerdict:
        """The full verdict of a search on the theory, sentences in order."""
        self.calls += 1
        ground = self._ground(sig)
        numbers, _, key = ground.prepare(theory, require_qe)
        verdict = self._search(ground, numbers)
        ground.record(key, verdict)
        return verdict

    def status(self, theory, sig: Signature, require_qe: bool = False) -> str:
        """The status of the theory's sentence set."""
        self.calls += 1
        ground = self._ground(sig)
        numbers, qe_applied, key = ground.prepare(theory, require_qe)
        status = ground.statuses.get(key)
        if status is not None:
            self.status_hits += 1
            return status
        # every reduced set holds all the naming constraints, so the sentence
        # a cached witness lacks is one of the theory's own; callers extend a
        # theory at its end, so the newest sentences are tried first
        own = numbers[: len(numbers) - len(ground.naming)] if qe_applied else numbers
        for n in reversed(own):
            subset = key & ~(1 << n)
            if ground.statuses.get(subset) == INCONSISTENT:
                self.refuted_hits += 1
                ground.statuses[key] = INCONSISTENT
                return INCONSISTENT
            witness = ground.witnesses.get(subset)
            if witness is not None and ground.held(witness, n):
                self.hint_hits += 1
                ground.statuses[key] = CONSISTENT
                ground.witnesses[key] = witness
                return CONSISTENT
        verdict = self._search(ground, numbers)
        ground.record(key, verdict)
        return verdict.status

    def kept_subsets(self, universe, sig, head=(), tail=(), max_size=None, require_qe=False):
        """Walk the universe's subsets downward closed, each asked about as
        [*head, *subset, *tail], once the caller found the empty one
        Consistent: yield ((), Consistent), then depth first each subset whose
        status is Consistent, as a tuple in universe order, with its status.
        While a subset has fewer than ``max_size`` elements, ``status`` is
        asked about its extensions by each later element in universe order,
        and an Unknown one is yielded there.  Each query is a ``_Query``
        prepared from its kept parent's numbers and mask with one OR and a
        tuple concatenation."""
        ground = self._ground(sig)
        ground.prepare(universe, False)  # numbers the universe, reducing its quantified sentences
        items = [ground.prepared[id(f)] for f in universe]
        numbers, reduced, mask = ground.prepare([*head, *tail], require_qe)
        # a reduced query ends in the naming constraints, as a reduced frame does
        naming, _, naming_mask = ground.prepare((), not reduced)
        tails = (numbers[len(head) :], 0), (numbers[len(head) :] + naming, naming_mask)
        stack = [((), 0, numbers[: len(head)], mask, reduced)]
        while stack:
            subset, start, numbers, mask, reduced = stack.pop()
            yield subset, CONSISTENT
            if max_size is not None and len(subset) >= max_size:
                continue
            for i in range(start, len(items)):
                f, n, bit, qf = items[i]
                qe = reduced or not qf
                ext, ext_numbers, ext_mask = subset + (f,), numbers + (n,), mask | bit
                rest, extra = tails[qe]
                query = _Query((*head, *ext, *tail))
                query.ground, query.prepared = ground, (ext_numbers + rest, qe, ext_mask | extra)
                status = self.status(query, sig, require_qe=require_qe)
                if status == CONSISTENT:
                    stack.append((ext, i + 1, ext_numbers, ext_mask, qe))
                elif status == UNKNOWN:
                    yield ext, UNKNOWN

    def _search(self, ground: _Ground, numbers: tuple) -> OracleVerdict:
        """Search on the numbered sentences, in order; a satisfying path's
        witness is its ground's one for the path's model."""
        self.searches += 1
        cap = self.budget.oracle_nodes
        pending = [(i, ground.compiled(n)) for i, n in enumerate(numbers)]
        try:
            model, certificate, nodes = _ground_search(ground.constants, cap, pending)
        except _BudgetExhausted:
            verdict = OracleVerdict(UNKNOWN, budget_used=cap + 1)
        else:
            if model is not None:
                # the path has no conflict, so every sentence holds in its
                # model; each is checked all the same, a reused witness too
                witness = ground.witness(model)
                for n in numbers:
                    if not ground.held(witness, n):
                        f = syntax.render(ground.sentences[n])
                        raise BoolkitError(f"oracle witness fails sentence {f}")
                verdict = OracleVerdict(CONSISTENT, witness=witness, budget_used=nodes)
            else:
                verdict = OracleVerdict(INCONSISTENT, certificate=certificate, budget_used=nodes)
        self.nodes += verdict.budget_used
        return verdict


def consistency_oracle(
    theory,
    sig: Signature,
    budget: Budget = DEFAULT_BUDGET,
    require_qe: bool = False,
) -> OracleVerdict:
    """Decide Boolean consistency of a theory in the oracle fragment.

    Ground theories are decided exactly (for ground finitary sentences
    Boolean and Tarski consistency coincide, and a witness generated by the
    constants suffices).  A Consistent verdict carries a two-valued witness
    on which every sentence evaluates to 1; an Inconsistent verdict carries
    a replayable refutation trace; Unknown arises only from budget
    exhaustion.

    One ``verdict`` on a fresh session; a run that asks many questions
    shares one ``OracleSession`` instead.
    """
    return OracleSession(budget).verdict(theory, sig, require_qe)


def _decided(status: str, doing: str) -> str:
    """A status that is not Unknown; an Unknown one raises, as the budget ran out."""
    if status == UNKNOWN:
        raise ResourceBudgetError(f"oracle unknown while {doing}")
    return status


def _session(budget: Optional[Budget], session: Optional[OracleSession]) -> OracleSession:
    """The session a pipeline function works in: the caller's, whose budget
    then governs the whole call, or a fresh one under ``budget``."""
    if session is None:
        return OracleSession(DEFAULT_BUDGET if budget is None else budget)
    if budget is not None:
        raise TypeError("pass a budget or a session, not both")
    return session


# ---------------------------------------------------------------------------
# conservative strengthening


@dataclass(frozen=True)
class ConservativityReport:
    conservative: bool
    entailment_ok: bool
    checked_subsets: int
    violating_subset: Optional[frozenset] = None
    bounded: bool = False
    unknown: bool = False

    def __bool__(self):
        return self.conservative


def is_conservative_strengthening(
    psi1: Formula,
    psi0: Formula,
    sig: Signature,
    budget: Optional[Budget] = None,
    session: Optional[OracleSession] = None,
) -> ConservativityReport:
    """psi1 must entail psi0, and no finite set of psi0-subsentences may be
    consistent with one of the two but not the other.

    When a refutation of {psi0} + C also refutes {psi1} + C, psi1 is asked
    only about the maximal psi0-consistent sets M.  Proof: as psi1 entails
    psi0, C disagrees only if {psi0} + C is consistent and {psi1} + C is
    not; such a C lies in some M, and {psi1} + M consistent makes its
    subset {psi1} + C consistent.  Only when that fails, or a status is
    Unknown, does the scan over every subset in order name the violating
    subset or report Unknown.  ``checked_subsets`` counts the subsets whose
    agreement was established, by a query or by implication.

    Subset enumeration is exhaustive by default; when ``budget.max_subset``
    caps the subset size the report is only bounded-conservative.
    """
    session = _session(budget, session)
    budget = session.budget
    if syntax.canon(psi1) == syntax.canon(psi0):
        return ConservativityReport(True, True, 0)
    entail = session.status([psi1, Not(psi0)], sig)
    if entail == UNKNOWN:
        return ConservativityReport(False, False, 0, unknown=True)
    entailment_ok = entail == INCONSISTENT
    if not entailment_ok:
        return ConservativityReport(False, False, 0)
    # psi1 entails psi0, so a refutation of {psi0} + C refutes {psi1} + C;
    # not when only psi0 is quantified: {psi1} + C may then be searched
    # without the naming constraints the other two queries carry
    implied = syntax.is_quantifier_free(psi0) or not syntax.is_quantifier_free(psi1)
    subs = sorted(syntax.subsentences(psi0, sig), key=syntax.render)
    max_size = len(subs) if budget.max_subset is None else min(budget.max_subset, len(subs))
    bounded = max_size < len(subs)
    if implied and _maximal_sets_agree(psi1, psi0, subs, max_size, sig, session):
        checked = sum(math.comb(len(subs), size) for size in range(max_size + 1))
        return ConservativityReport(True, True, checked, bounded=bounded)
    checked = 0
    for size in range(max_size + 1):
        for combo in itertools.combinations(subs, size):
            checked += 1
            v0 = session.status([psi0, *combo], sig)
            if v0 == INCONSISTENT and implied:
                v1 = INCONSISTENT
            else:
                v1 = session.status([psi1, *combo], sig)
            if UNKNOWN in (v0, v1):
                return ConservativityReport(False, True, checked, unknown=True)
            if v0 != v1:
                return ConservativityReport(
                    False, True, checked, violating_subset=frozenset(combo), bounded=bounded
                )
    return ConservativityReport(True, True, checked, bounded=bounded)


def _maximal_sets_agree(psi1, psi0, subs, max_size, sig, session) -> bool:
    """Whether psi1 is consistent with each maximal psi0-consistent set of
    at most ``max_size`` of the ``subs``, every status decided; or psi0 is
    refuted, so that no set is psi0-consistent."""
    status = session.status([psi0], sig)
    if status != CONSISTENT:
        return status == INCONSISTENT
    walk = dict(session.kept_subsets(subs, sig, head=(psi0,), max_size=max_size))
    if UNKNOWN in walk.values():
        return False
    # the walk stops at max_size, so a set of that size is maximal too
    below = {s - {f} for s in map(frozenset, walk) for f in s}
    return all(
        session.status([psi1, *m], sig) == CONSISTENT for m in walk if frozenset(m) not in below
    )


# ---------------------------------------------------------------------------
# finite conservativity


@dataclass(frozen=True)
class FiniteConservativityVerdict:
    ok: bool
    reason: str = ""
    member: Optional[Formula] = None
    base: Optional[Formula] = None
    report: Optional[ConservativityReport] = None
    bounded: bool = False
    unknown: bool = False

    def __bool__(self):
        return self.ok


def conjunction_closure(generators: Iterable[Formula]) -> list:
    """Close a family under finite conjunctions; one representative per
    flattened conjunct set, conjunctions kept unflattened over the members."""
    gens = []
    seen = set()
    for g in generators:
        g = syntax.canon(g)
        key = syntax.conjuncts(g)
        if key not in seen:
            seen.add(key)
            gens.append(g)
    members = list(gens)
    for size in range(2, len(gens) + 1):
        for combo in itertools.combinations(gens, size):
            rep = syntax.canonical(And, combo)
            key = syntax.conjuncts(rep)
            if key not in seen:
                seen.add(key)
                members.append(rep)
    return members


def is_finitely_conservative(
    family: Iterable[Formula],
    sig: Signature,
    budget: Optional[Budget] = None,
    session: Optional[OracleSession] = None,
) -> FiniteConservativityVerdict:
    """Check the three requirements: a consistent member, closure under
    finite conjunctions (membership up to flattening and conjunct order),
    and conservativity of every conjunction over each of its conjuncts."""
    members = [syntax.canon(f) for f in family]
    if not members:
        return FiniteConservativityVerdict(False, "empty family")
    keys = {syntax.conjuncts(f): f for f in members}
    session = _session(budget, session)

    for f in members:
        status = session.status([f], sig)
        if status == UNKNOWN:
            return FiniteConservativityVerdict(False, "oracle unknown", member=f, unknown=True)
        if status == CONSISTENT:
            break
    else:
        return FiniteConservativityVerdict(False, "no Boolean consistent member")

    # pairwise closure suffices: conjunct-set keys are unions
    for f, g in itertools.combinations(members, 2):
        key = syntax.conjuncts(f) | syntax.conjuncts(g)
        if key not in keys:
            return FiniteConservativityVerdict(
                False, "not closed under finite conjunctions", member=f, base=g
            )

    bounded = False
    for g in members:
        gkey = syntax.conjuncts(g)
        for psi in members:
            if psi is g and len(members) > 1:
                continue
            if syntax.conjuncts(psi) <= gkey:
                report = is_conservative_strengthening(g, psi, sig, session=session)
                bounded = bounded or report.bounded
                if report.unknown:
                    return FiniteConservativityVerdict(
                        False, "oracle unknown", member=g, base=psi, report=report, unknown=True
                    )
                if not report.conservative:
                    return FiniteConservativityVerdict(
                        False,
                        "conjunction is not conservative over a conjunct",
                        member=g,
                        base=psi,
                        report=report,
                    )
    return FiniteConservativityVerdict(True, bounded=bounded)


# ---------------------------------------------------------------------------
# the compactness pipeline


def base_generators(family) -> list:
    """Recover a minimal generating set: members whose conjunct set is not
    the union of strictly smaller members' conjunct sets."""
    members = [syntax.canon(f) for f in family]
    base = []
    for m in sorted(members, key=lambda f: (len(syntax.conjuncts(f)), syntax.render(f))):
        mkey = syntax.conjuncts(m)
        covered = set().union(*(k for k in map(syntax.conjuncts, base) if k <= mkey))
        if covered != mkey:
            base.append(m)
    return base


def star_signature(sig: Signature) -> Signature:
    """The working signature for model existence: every constant is treated
    as a potential witness name, so the fresh-naming clause is satisfied by
    reflexive equalities and element domains coincide with the constants."""
    return Signature(relations=sig.relations, base_constants=(), fresh_constants=sig.constants)


def materialize_compactness_property(
    family,
    sig: Signature,
    budget: Optional[Budget] = None,
    session: Optional[OracleSession] = None,
):
    """The consistency property of the compactness argument at finite scale.

    Members are the sets {Psi} together with a finite t drawn from the
    signed-subsentence universe of a single covering member psi_i such that
    t with psi_i added is oracle consistent.  The result is downward closed,
    which realizes the closure clauses literally; the covering member's
    conservativity (guaranteed by the finite-conservativity gate) is what
    makes the conjunction clause on Psi land on consistent extensions.
    """
    from . import consprop

    members = [syntax.canon(f) for f in family]
    gens = base_generators(members)
    psi = syntax.canonical(And, gens)
    drop_keys = {syntax.conjuncts(m) for m in members}
    drop_keys -= {syntax.conjuncts(g) for g in gens}
    work_sig = star_signature(sig)
    session = _session(budget, session)
    budget = session.budget

    # each distinct sentence of the family gets a bit, first seen first, and
    # a member is the mask of its sentences
    sentences, renders, numbers = [], [], {}

    def bit(f: Formula) -> int:
        n = numbers.get(f)
        if n is None:
            n = numbers[f] = len(sentences)
            sentences.append(f)
            renders.append(syntax.render(f))
        return 1 << n

    # each anchor's universe: its subsentences closed under the clause
    # steps, less the conjunctions matching a derived family member (the
    # member covers them); substitution and symmetry extensions are added
    # below member by member, where they are entailed and therefore harmless
    obligations = consprop.ClauseObligations(work_sig)
    overflow = ResourceBudgetError(
        f"compactness universe exceeds the bound of {budget.max_members} sentences"
    )
    psi_bit = bit(psi)
    family_sets = set()
    for anchor in members:
        reachable = consprop.clause_closure(
            syntax.subsentences(anchor, work_sig), obligations, budget.max_members, overflow
        )
        universe = sorted(
            (f for f in reachable if syntax.conjuncts(f) not in drop_keys),
            key=syntax.render,
        )
        if _decided(session.status([anchor], work_sig), "materializing") != CONSISTENT:
            continue
        # the universe is canonical and free of reflexive equalities
        for subset, status in session.kept_subsets(universe, work_sig, tail=(anchor,)):
            _decided(status, "materializing")
            family_sets.add(psi_bit | sum(map(bit, subset)))
            if len(family_sets) > budget.max_members:
                raise ResourceBudgetError("member budget exceeded during materialization")
    if not family_sets:
        raise ConstructionFailure("no consistent covering member; family has no model")

    # close the enumerated family under the clause obligations; every
    # extension added here is entailed by sentences already in the member,
    # so consistency is preserved (and re-checked all the same); each
    # member keeps its row, its sentence numbers in render order
    of = obligations.compiled(sentences, lambda options: tuple(
        0 if option is None else bit(option) for option in options
    ))
    rows = {s: sorted(bit_positions(s), key=renders.__getitem__) for s in family_sets}
    queue = sorted(rows, key=lambda s: [renders[i] for i in rows[s]])
    while queue:
        s = queue.pop()
        ids = rows[s]
        for _clause, need, options in of(ids):
            if options and not options[0] & ~s:
                continue  # met by the member itself
            chosen = None
            for option in options:
                ext = s | option
                if ext in rows:
                    break
                if chosen is None:
                    row = list(ids)
                    bisect.insort(row, option.bit_length() - 1, key=renders.__getitem__)
                    status = session.status([sentences[i] for i in row], work_sig)
                    if _decided(status, "materializing") == CONSISTENT:
                        chosen = ext, row
            else:
                if chosen is None:
                    raise ConstructionFailure(
                        f"no consistent extension for obligation: {need}",
                        counterexample=[renders[i] for i in ids],
                    )
                rows[chosen[0]] = chosen[1]
                queue.append(chosen[0])
                if len(rows) > budget.max_members:
                    raise ResourceBudgetError("member budget exceeded during closure")
    return consprop.ConsistencyProperty.from_rows(work_sig, sentences, list(rows.values()))


@dataclass
class CompactnessResult:
    model: bvmodel.BValuedModel
    reports: dict
    consistency_property: object
    conjunction: Formula
    diagnostics: dict


def compactness_run(
    family,
    sig: Signature,
    budget: Optional[Budget] = None,
    session: Optional[OracleSession] = None,
) -> CompactnessResult:
    """Build a model of the whole family from a finitely conservative family,
    with a per-member conservativity certificate.

    The family is materialized into the compactness argument's consistency
    property and fed to the model-existence construction, which verifies it
    clause by clause; the resulting model gives the conjunction value 1.
    """
    from . import consprop

    members = [syntax.canon(f) for f in family]
    session = _session(budget, session)
    budget = session.budget
    fincons = is_finitely_conservative(members, sig, session=session)
    if fincons.unknown:
        raise ResourceBudgetError("oracle unknown while checking finite conservativity")
    if not fincons.ok:
        raise BoolkitError(f"family is not finitely conservative: {fincons.reason}")
    prop = materialize_compactness_property(members, sig, session=session)
    model, diagnostics = consprop.model_from_consprop(prop, budget=budget)
    psi = syntax.canonical(And, set(members))
    value = bvmodel.eval_formula(model, psi, max_steps=budget.eval_steps)
    if value != model.algebra.one:
        raise ConstructionFailure(
            "constructed model does not give the conjunction value 1",
            counterexample={"value": value},
        )
    reports = {}
    for f in members:
        reports[syntax.render(f)] = is_conservative_strengthening(psi, f, sig, session=session)
    return CompactnessResult(model, reports, prop, psi, diagnostics)


# ---------------------------------------------------------------------------
# star theories and first-order compactness


def star_theory(
    m: bvmodel.BValuedModel,
    generators: Iterable[Formula],
    sig: Signature,
) -> list:
    """For each generator true in the two-valued model, conjoin it with every
    subsentence signed by its truth value in the model; the conjunction
    closure of the result is finitely conservative."""
    if m.algebra.atom_count != 1:
        raise BoolkitError("star_theory needs a two-valued model")
    out = []
    for phi in generators:
        phi = syntax.canon(phi)
        if not bvmodel.holds(m, phi):
            raise BoolkitError(f"generator is false in the model: {syntax.render(phi)}")
        # the builder sorts the conjuncts, so a set of them will do
        conjuncts = {phi}
        for theta in syntax.subsentences(phi, sig):
            conjuncts.add(theta if bvmodel.holds(m, theta) else Not(theta))
        out.append(phi if len(conjuncts) == 1 else syntax.canonical(And, conjuncts))
    return out


def lindenbaum_complete(
    theory,
    sig: Signature,
    budget: Optional[Budget] = None,
    session: Optional[OracleSession] = None,
) -> list:
    """Greedy completion of a consistent ground theory over the finite atom
    space: each atom is added positively when consistent, negatively
    otherwise."""
    current = [syntax.canon(f) for f in theory]
    session = _session(budget, session)
    if _decided(session.status(current, sig), "completing") != CONSISTENT:
        raise BoolkitError("cannot complete an inconsistent theory")
    for atom in syntax.ground_atoms(sig):
        status = _decided(session.status([*current, atom], sig), "completing")
        current.append(atom if status == CONSISTENT else Not(atom))
    return current


def first_order_compactness_demo(
    theory,
    sig: Signature,
    budget: Budget = DEFAULT_BUDGET,
) -> bvmodel.BValuedModel:
    """Route a finitely consistent ground theory through the compactness
    pipeline and return a Tarski model of it.

    The theory is Lindenbaum-completed, turned into a star family read off
    the completion's witness, run through compactness_run, and collapsed by
    an ultrafilter quotient.  The mixing completion step is performed
    literally when the algebra has at most 3 atoms; for larger algebras the
    quotient is taken directly, which yields the same model up to
    isomorphism because the original model embeds in its completion with the same atomic values.
    """
    sentences = [syntax.canon(f) for f in theory]
    session = OracleSession(budget)
    if _decided(session.status(sentences, sig), "checking the theory") != CONSISTENT:
        subset = _minimal_inconsistent_subset(sentences, sig, session)
        raise BoolkitError(
            "theory has an inconsistent finite subset: "
            + "; ".join(syntax.render(f) for f in subset)
        )
    completed = lindenbaum_complete(sentences, sig, session=session)
    verdict = session.verdict(completed, sig)
    _decided(verdict.status, "checking the completion")
    # a theory and its single conjunction are interchangeable for Boolean
    # consistency; the singleton generator keeps the materialized family small
    stars = star_theory(verdict.witness, [syntax.canonical(And, set(sentences))], sig)
    family = conjunction_closure(stars)
    result = compactness_run(family, sig, session=session)
    model = result.model
    if model.algebra.atom_count <= 3:
        model = bvmodel.mixing_completion(model)
    quotient = bvmodel.quotient_model(model, ultrafilters(model.algebra)[0])
    for f in sentences:
        if not bvmodel.holds(quotient, f):
            raise ConstructionFailure(
                f"quotient fails a theory sentence: {syntax.render(f)}"
            )
    return quotient


def _minimal_inconsistent_subset(sentences, sig, session: OracleSession):
    core, i = list(sentences), 0
    while i < len(core):
        trial = core[:i] + core[i + 1 :]
        if trial and session.status(trial, sig) == INCONSISTENT:
            core, i = trial, 0  # and try again from the first sentence
        else:
            i += 1
    return core


# ---------------------------------------------------------------------------
# the compactness counterexample family


def faicom_signature(n: int, fresh: int = 2) -> Signature:
    """Constants c0..cn plus a small fresh pool for subsentence checks."""
    return Signature(
        relations={},
        base_constants={f"c{i}" for i in range(n + 1)},
        fresh_constants={f"e{i}" for i in range(fresh)},
    )


def faicom_family(n: int) -> Theory:
    """The truncated failure-of-compactness family: c_i differs from c_n for
    every i below n, yet c_n equals one of them."""
    if n < 1:
        raise BoolkitError("faicom_family needs n >= 1")
    top = f"c{n}"
    sentences = [Not(Eq(f"c{i}", top)) for i in range(n)]
    sentences.append(Or(tuple(Eq(top, f"c{i}") for i in range(n))))
    return Theory(sentences)
