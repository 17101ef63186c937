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

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import bvmodel, syntax
from .errors import BoolkitError, ConstructionFailure
from .syntax import And, Atom, Eq, Formula, Not, Or, Signature, Theory


@dataclass(frozen=True)
class Budget:
    """Caps for oracle search, subset enumeration, and evaluation."""

    oracle_nodes: int = 200_000
    max_subset: Optional[int] = None
    max_members: int = 20_000
    eval_steps: int = 10**6

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


def _sentences(theory) -> list:
    if isinstance(theory, Theory):
        return list(theory.sentences)
    return list(theory)


# ---------------------------------------------------------------------------
# ground reduction


def prepare_ground(theory, sig: Signature, require_qe: bool = False) -> tuple:
    """Reduce a theory to ground sentences.

    Returns (sentences, qe_applied).  Quantified sentences are replaced by
    their fresh-constant transforms; whenever any transform happens (or the
    caller demands it) the naming constraints "every base constant equals
    some fresh constant" are appended, which makes the reduction exact for
    witnesses generated by the constants.
    """
    sentences = [syntax.canon(f) for f in _sentences(theory)]
    quantified = any(not syntax.is_quantifier_free(f) for f in sentences)
    if not quantified and not require_qe:
        return sentences, False
    if quantified and not sig.fresh_constants:
        raise BoolkitError("quantified input needs a nonempty fresh-constant pool")
    out = [syntax.canon(syntax.qe_transform(f, sig)) for f in sentences]
    fresh = sorted(sig.fresh_constants)
    if fresh:
        for d in sorted(sig.base_constants):
            out.append(syntax.canon(Or(tuple(Eq(c, d) for c in fresh))))
    return out, True


# ---------------------------------------------------------------------------
# backtracking search with congruence closure


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _atom_key(f):
    if isinstance(f, Eq):
        a, b = sorted((f.left, f.right))
        return ("eq", a, b)
    if isinstance(f, Atom):
        return ("rel", f.rel, f.args)
    raise TypeError(f"not an atomic sentence: {f!r}")


class _Closure:
    """Congruence closure of a partial atom assignment, built from scratch.

    The certificate replay reads this; the search keeps its own incremental
    closure (``_PathClosure``) with the same answers.
    """

    def __init__(self, constants, assignment):
        self.uf = _UnionFind(constants)
        for key, value in assignment.items():
            if key[0] == "eq" and value:
                self.uf.union(key[1], key[2])
        self.diseq = set()
        self.rel_true = set()
        self.rel_false = set()
        self.conflict = None
        for key, value in assignment.items():
            if key[0] == "eq" and not value:
                pair = frozenset((self.uf.find(key[1]), self.uf.find(key[2])))
                if len(pair) == 1:
                    self.conflict = ("eq-closure", key)
                    return
                self.diseq.add(pair)
            elif key[0] == "rel":
                canon = (key[1], tuple(self.uf.find(a) for a in key[2]))
                (self.rel_true if value else self.rel_false).add(canon)
        clash = self.rel_true & self.rel_false
        if clash:
            self.conflict = ("rel-congruence", min(clash))

    def eval_atom(self, f):
        if isinstance(f, Eq):
            a, b = self.uf.find(f.left), self.uf.find(f.right)
            if a == b:
                return True
            if frozenset((a, b)) in self.diseq:
                return False
            return None
        canon = (f.rel, tuple(self.uf.find(a) for a in f.args))
        if canon in self.rel_true:
            return True
        if canon in self.rel_false:
            return False
        return None


class _PathClosure:
    """Congruence closure of the current search path, extended by one
    undecided atom at a time and undone on backtrack.

    Every constant maps straight to its class representative, the class
    minimum, as in ``_Closure``.  A disequality or relation literal is one
    table entry.  A positive equality relabels the class with the larger
    minimum and rebuilds the tables from the path, so conflicts are found
    and named exactly as ``_Closure`` names them.  ``assignment`` is the
    path itself, in insertion order.
    """

    def __init__(self, constants):
        self.rep = {c: c for c in constants}
        self.members = {c: [c] for c in constants}
        self.assignment = {}
        self.diseq = set()
        self.rel_true = set()
        self.rel_false = set()
        self._undo = []

    def _canon(self, key):
        return (key[1], tuple(map(self.rep.__getitem__, key[2])))

    def assign(self, key, value):
        """Extend the path by an atom the closure leaves undecided; return
        the conflict it causes, or None."""
        self.assignment[key] = value
        if key[0] == "rel":
            table = self.rel_true if value else self.rel_false
            entry = self._canon(key)
        else:
            a, b = self.rep[key[1]], self.rep[key[2]]
            if b < a:
                a, b = b, a
            if not value:
                table, entry = self.diseq, (a, b)
            else:
                moved = self.members.pop(b)
                for c in moved:
                    self.rep[c] = a
                self.members[a].extend(moved)
                self._undo.append((a, b, moved, self.diseq, self.rel_true, self.rel_false))
                return self._rebuild()
        # an undecided atom's entry is new, so it clashes with nothing
        table.add(entry)
        self._undo.append((table, entry))
        return None

    def _rebuild(self):
        rep = self.rep
        self.diseq = diseq = set()
        self.rel_true = rel_true = set()
        self.rel_false = rel_false = set()
        for key, value in self.assignment.items():
            if key[0] == "rel":
                (rel_true if value else rel_false).add(self._canon(key))
            elif not value:
                a, b = rep[key[1]], rep[key[2]]
                if a == b:
                    return ("eq-closure", key)
                diseq.add((a, b) if a < b else (b, a))
        clash = rel_true & rel_false
        if clash:
            return ("rel-congruence", min(clash))
        return None

    def undo(self):
        """Take the last assigned atom off the path."""
        self.assignment.popitem()
        entry = self._undo.pop()
        if len(entry) == 2:  # a literal: (table, entry)
            entry[0].discard(entry[1])
            return
        a, b, moved, self.diseq, self.rel_true, self.rel_false = entry
        del self.members[a][-len(moved):]
        self.members[b] = moved
        for c in moved:
            self.rep[c] = b

    def eval_atom(self, f):
        rep = self.rep
        if isinstance(f, Eq):
            a, b = rep[f.left], rep[f.right]
            if a == b:
                return True
            if ((a, b) if a < b else (b, a)) in self.diseq:
                return False
            return None
        canon = (f.rel, tuple(map(rep.__getitem__, f.args)))
        if canon in self.rel_true:
            return True
        if canon in self.rel_false:
            return False
        return None


def _eval3(f, closure):
    """Strong Kleene evaluation; stable under completion of the assignment."""
    if isinstance(f, (Eq, Atom)):
        return closure.eval_atom(f)
    if isinstance(f, Not):
        v = _eval3(f.body, closure)
        return None if v is None else not v
    if isinstance(f, And):
        out = True
        for c in f.children:
            v = _eval3(c, closure)
            if v is False:
                return False
            if v is None:
                out = None
        return out
    if isinstance(f, Or):
        out = False
        for c in f.children:
            v = _eval3(c, closure)
            if v is True:
                return True
            if v is None:
                out = None
        return out
    raise BoolkitError(f"non-ground sentence reached the ground solver: {f!r}")


def _first_undecided_atom(f, closure):
    if isinstance(f, (Eq, Atom)):
        if closure.eval_atom(f) is None:
            key = _atom_key(f)
            if key[0] == "eq" and key[1] == key[2]:
                return None
            return key
        return None
    if isinstance(f, Not):
        return _first_undecided_atom(f.body, closure)
    if isinstance(f, (And, Or)):
        for c in f.children:
            found = _first_undecided_atom(c, closure)
            if found is not None:
                return found
        return None
    raise BoolkitError(f"non-ground sentence reached the ground solver: {f!r}")


class _BudgetExhausted(Exception):
    pass


class _GroundSolver:
    """Depth-first search over atom assignments on one path closure.

    A node evaluates only the sentences its parent left undecided: a
    strong-Kleene value, once decided, holds on every extension of the
    path.  The first false sentence and the branch atom (first undecided
    atom of the first undecided sentence) are therefore those a full
    re-evaluation would pick, and so is the whole search tree.
    """

    def __init__(self, constants, node_cap):
        self.closure = _PathClosure(constants)
        self.node_cap = node_cap
        self.nodes = 0

    def search(self, pending, conflict=None):
        """Search below the current path; ``pending`` lists the (index,
        sentence) pairs undecided at the parent, ``conflict`` what the last
        assignment caused."""
        self.nodes += 1
        if self.nodes > self.node_cap:
            raise _BudgetExhausted
        if conflict is not None:
            return None, {"conflict": {"kind": conflict[0], "detail": repr(conflict[1])}}
        closure = self.closure
        undecided = []
        branch_atom = None
        for i, f in pending:
            v = _eval3(f, closure)
            if v is False:
                return None, {"conflict": {"kind": "sentence", "index": i}}
            if v is None:
                undecided.append((i, f))
                if branch_atom is None:
                    branch_atom = _first_undecided_atom(f, closure)
        if branch_atom is None:
            return dict(closure.assignment), None
        cert = {"atom": list(branch_atom)}
        for value in (True, False):
            conflict = closure.assign(branch_atom, value)
            model, sub = self.search(undecided, conflict)
            closure.undo()
            if model is not None:
                return model, None
            cert["true" if value else "false"] = sub
        return None, cert


def _atom(key) -> Formula:
    return Eq(key[1], key[2]) if key[0] == "eq" else Atom(key[1], key[2])


_oracle_cache: dict = {}


def _sig_key(sig: Signature):
    return (
        tuple(sorted(sig.relations.items())),
        tuple(sorted(sig.base_constants)),
        tuple(sorted(sig.fresh_constants)),
    )


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
    """
    sentences, _ = prepare_ground(theory, sig, require_qe=require_qe)
    cache_key = (frozenset(syntax.render(f) for f in sentences), _sig_key(sig))
    cached = _oracle_cache.get(cache_key)
    # answer from the cache only what a fresh search under this node cap
    # would return: a decided search stays within the cap; an exhausted one
    # overran any cap below the node it stopped at, one node past that cap
    if cached is not None:
        if cached.status != UNKNOWN and cached.budget_used <= budget.oracle_nodes:
            return cached
        if cached.status == UNKNOWN and budget.oracle_nodes < cached.budget_used:
            return OracleVerdict(UNKNOWN, budget_used=budget.oracle_nodes + 1)
    constants = sorted(sig.constants)
    if not constants:
        constants = ["_unit"]
    solver = _GroundSolver(constants, budget.oracle_nodes)
    try:
        assignment, certificate = solver.search(list(enumerate(sentences)))
    except _BudgetExhausted:
        verdict = OracleVerdict(UNKNOWN, budget_used=solver.nodes)
        if cached is None or cached.status == UNKNOWN:
            _oracle_cache[cache_key] = verdict
        return verdict
    if assignment is not None:
        # the model is read off the true atoms; the path has no conflict, so
        # its false atoms are false there, and every sentence is checked below
        witness = bvmodel.two_valued_model(
            constants, sig.relations, [_atom(key) for key, value in assignment.items() if value]
        )
        for f in sentences:
            if not bvmodel.holds(witness, f):
                raise BoolkitError(f"oracle witness fails sentence {syntax.render(f)}")
        verdict = OracleVerdict(CONSISTENT, witness=witness, budget_used=solver.nodes)
    else:
        verdict = OracleVerdict(INCONSISTENT, certificate=certificate, budget_used=solver.nodes)
    if len(_oracle_cache) > 200_000:
        _oracle_cache.clear()
    _oracle_cache[cache_key] = verdict
    return verdict


def replay_certificate(certificate: dict, theory, sig: Signature, require_qe: bool = False) -> bool:
    """Re-derive every conflict leaf of a refutation trace; True when the
    whole tree closes."""
    sentences, _ = prepare_ground(theory, sig, require_qe=require_qe)
    constants = sorted(sig.constants) or ["_unit"]

    def walk(node, assignment):
        if node is None:
            return False
        conflict = node.get("conflict")
        closure = _Closure(constants, assignment)
        if conflict is not None:
            if conflict["kind"] == "sentence":
                return _eval3(sentences[conflict["index"]], closure) is False
            return closure.conflict is not None
        atom = tuple(node["atom"])
        key = (atom[0], atom[1], tuple(atom[2])) if atom[0] == "rel" else tuple(atom)
        for value, branch in ((True, "true"), (False, "false")):
            assignment[key] = value
            if not walk(node.get(branch), assignment):
                del assignment[key]
                return False
            del assignment[key]
        return True

    return walk(certificate, {})


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
    budget: Budget = DEFAULT_BUDGET,
) -> ConservativityReport:
    """psi1 must entail psi0, and no finite set of psi0-subsentences may be
    consistent with one of the two but not the other.

    Subset enumeration is exhaustive by default; when ``budget.max_subset``
    caps the subset size the report is only bounded-conservative.
    """
    if syntax.canon(psi1) == syntax.canon(psi0):
        return ConservativityReport(True, True, 0)
    entail = consistency_oracle([psi1, Not(psi0)], sig, budget)
    if entail.status == UNKNOWN:
        return ConservativityReport(False, False, 0, unknown=True)
    entailment_ok = entail.status == INCONSISTENT
    if not entailment_ok:
        return ConservativityReport(False, False, 0)
    subs = sorted(syntax.subsentences(psi0, sig), key=syntax.render)
    max_size = len(subs) if budget.max_subset is None else min(budget.max_subset, len(subs))
    bounded = max_size < len(subs)
    checked = 0
    for size in range(0, max_size + 1):
        for combo in itertools.combinations(subs, size):
            checked += 1
            v0 = consistency_oracle([psi0, *combo], sig, budget)
            v1 = consistency_oracle([psi1, *combo], sig, budget)
            if UNKNOWN in (v0.status, v1.status):
                return ConservativityReport(False, True, checked, unknown=True)
            if v0.status != v1.status:
                return ConservativityReport(
                    False, True, checked, violating_subset=frozenset(combo), bounded=bounded
                )
    return ConservativityReport(True, True, checked, bounded=bounded)


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
        key = syntax.conjunction_key(g)
        if key not in seen:
            seen.add(key)
            gens.append(g)
    members = list(gens)
    for size in range(2, len(gens) + 1):
        for combo in itertools.combinations(gens, size):
            rep = And(tuple(sorted(combo, key=syntax.render)))
            key = syntax.conjunction_key(rep)
            if key not in seen:
                seen.add(key)
                members.append(syntax.canon(rep))
    return members


def is_finitely_conservative(
    family: Iterable[Formula],
    sig: Signature,
    budget: Budget = DEFAULT_BUDGET,
) -> FiniteConservativityVerdict:
    """Check the three requirements: a consistent member, closure under
    finite conjunctions (membership up to flattening and conjunct order),
    and conservativity of every conjunction over each of its conjuncts."""
    members = [syntax.canon(f) for f in _sentences(family)]
    if not members:
        return FiniteConservativityVerdict(False, "empty family")
    keys = {syntax.conjunction_key(f): f for f in members}

    some_consistent = False
    for f in members:
        v = consistency_oracle([f], sig, budget)
        if v.status == UNKNOWN:
            return FiniteConservativityVerdict(False, "oracle unknown", member=f, unknown=True)
        if v.status == CONSISTENT:
            some_consistent = True
            break
    if not some_consistent:
        return FiniteConservativityVerdict(False, "no Boolean consistent member")

    # pairwise closure suffices: conjunct-set keys are unions
    for f, g in itertools.combinations(members, 2):
        key = syntax.conjunction_key(f) | syntax.conjunction_key(g)
        if key not in keys:
            return FiniteConservativityVerdict(
                False, "not closed under finite conjunctions", member=f, base=g
            )

    bounded = False
    for g in members:
        gkey = syntax.conjunction_key(g)
        for psi in members:
            if psi is g and len(members) > 1:
                continue
            if syntax.conjunction_key(psi) <= gkey:
                report = is_conservative_strengthening(g, psi, sig, budget)
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


def big_conjunction(family: Iterable[Formula]) -> Formula:
    members = sorted({syntax.canon(f) for f in _sentences(family)}, key=syntax.render)
    return And(tuple(members))


def base_generators(family) -> list:
    """Recover a minimal generating set: members whose conjunct set is not
    the union of strictly smaller members' conjunct sets."""
    members = [syntax.canon(f) for f in _sentences(family)]
    base = []
    for m in sorted(members, key=lambda f: (len(syntax.conjunction_key(f)), syntax.render(f))):
        mkey = syntax.conjunction_key(m)
        covered = set()
        for b in base:
            bkey = syntax.conjunction_key(b)
            if bkey <= mkey:
                covered |= bkey
        if covered != mkey:
            base.append(m)
    return base


def star_signature(sig: Signature) -> Signature:
    """The working signature for model existence: every constant is treated
    as a potential witness name, so the fresh-naming clause is satisfied by
    reflexive equalities and element domains coincide with the constants."""
    return Signature(relations=sig.relations, base_constants=(), fresh_constants=sig.constants)


def materialize_compactness_property(family, sig: Signature, budget: Budget = DEFAULT_BUDGET):
    """The consistency property of the compactness argument at finite scale.

    Members are the sets {Psi} together with a finite t drawn from the
    signed-subsentence universe of a single covering member psi_i such that
    t with psi_i added is oracle consistent.  The result is downward closed,
    which realizes the closure clauses literally; the covering member's
    conservativity (guaranteed by the finite-conservativity gate) is what
    makes the conjunction clause on Psi land on consistent extensions.
    """
    from . import consprop

    members = [syntax.canon(f) for f in _sentences(family)]
    gens = base_generators(members)
    psi = And(tuple(sorted(gens, key=syntax.render)))
    gen_keys = {syntax.conjunction_key(g) for g in gens}
    drop_keys = {
        syntax.conjunction_key(m) for m in members
    } - gen_keys
    work_sig = star_signature(sig)

    def consistent(sentences) -> bool:
        v = consistency_oracle(sentences, work_sig, budget)
        if v.status == UNKNOWN:
            raise ConstructionFailure(
                "oracle unknown while materializing", counterexample=sentences
            )
        return v.status == CONSISTENT

    # each anchor's universe: its subsentences closed under the clause
    # steps, less the conjunctions matching a derived family member (the
    # member covers them); substitution and symmetry extensions are added
    # below member by member, where they are entailed and therefore harmless
    obligations = consprop.ClauseObligations(work_sig)
    overflow = ConstructionFailure(
        f"compactness universe exceeds the bound of {budget.max_members} sentences"
    )
    family_sets = set()
    for anchor in members:
        reachable = consprop.clause_closure(
            syntax.subsentences(anchor, work_sig), obligations, budget.max_members, overflow
        )
        universe = sorted(
            (f for f in reachable if syntax.conjunction_key(f) not in drop_keys),
            key=syntax.render,
        )
        if not consistent([anchor]):
            continue
        stack = [((), 0)]
        while stack:
            subset, start = stack.pop()
            family_sets.add(consprop.canon_set(subset + (psi,)))
            if len(family_sets) > budget.max_members:
                raise ConstructionFailure("member budget exceeded during materialization")
            for j in range(start, len(universe)):
                ext = subset + (universe[j],)
                if consistent(list(ext) + [anchor]):
                    stack.append((ext, j + 1))
    if not family_sets:
        raise ConstructionFailure("no consistent covering member; family has no model")

    # close the enumerated family under the clause obligations; every
    # extension added here is entailed by sentences already in the member,
    # so consistency is preserved (and re-checked all the same)
    queue = sorted(family_sets, key=lambda s: sorted(map(syntax.render, s)))
    while queue:
        s = queue.pop()
        for _clause, need, options in obligations.of(s):
            fulfilled = False
            chosen = None
            for option in options:
                ext = obligations.extend(s, option)
                if ext in family_sets:
                    fulfilled = True
                    break
                if chosen is None and consistent(sorted(ext, key=syntax.render)):
                    chosen = ext
            if fulfilled:
                continue
            if chosen is None:
                raise ConstructionFailure(
                    f"no consistent extension for obligation: {need}",
                    counterexample=sorted(map(syntax.render, s)),
                )
            family_sets.add(chosen)
            queue.append(chosen)
            if len(family_sets) > budget.max_members:
                raise ConstructionFailure("member budget exceeded during closure")
    return consprop.ConsistencyProperty(work_sig, frozenset(family_sets))


@dataclass
class CompactnessResult:
    model: bvmodel.BValuedModel
    reports: dict
    consistency_property: object
    conjunction: Formula
    diagnostics: dict


def compactness_run(family, sig: Signature, budget: Budget = DEFAULT_BUDGET) -> CompactnessResult:
    """Build a model of the whole family from a finitely conservative family,
    with a per-member conservativity certificate.

    The family is materialized into the compactness argument's consistency
    property and fed to the model-existence construction, which verifies it
    clause by clause; the resulting model gives the conjunction value 1.
    """
    from . import consprop

    members = [syntax.canon(f) for f in _sentences(family)]
    fincons = is_finitely_conservative(members, sig, budget)
    if not fincons.ok:
        raise BoolkitError(f"family is not finitely conservative: {fincons.reason}")
    prop = materialize_compactness_property(members, sig, budget)
    model, diagnostics = consprop.model_from_consprop(prop, budget=budget)
    psi = big_conjunction(members)
    value = bvmodel.eval_formula(model, psi, max_steps=budget.eval_steps)
    if value != model.algebra.one:
        raise ConstructionFailure(
            "constructed model does not give the conjunction value 1",
            counterexample={"value": value},
        )
    reports = {}
    for f in members:
        reports[syntax.render(f)] = is_conservative_strengthening(psi, f, sig, budget)
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
    for phi in _sentences(generators):
        phi = syntax.canon(phi)
        if not bvmodel.holds(m, phi):
            raise BoolkitError(f"generator is false in the model: {syntax.render(phi)}")
        signed = []
        for theta in sorted(syntax.subsentences(phi, sig), key=syntax.render):
            if bvmodel.holds(m, theta):
                signed.append(theta)
            else:
                signed.append(Not(theta))
        conjuncts = []
        seen = set()
        for f in [phi, *signed]:
            key = syntax.render(f)
            if key not in seen:
                seen.add(key)
                conjuncts.append(f)
        star = conjuncts[0] if len(conjuncts) == 1 else And(tuple(conjuncts))
        out.append(syntax.canon(star))
    return out


def lindenbaum_complete(theory, sig: Signature, budget: Budget = DEFAULT_BUDGET) -> list:
    """Greedy completion of a consistent ground theory over the finite atom
    space: each atom is added positively when consistent, negatively
    otherwise."""
    current = [syntax.canon(f) for f in _sentences(theory)]
    v = consistency_oracle(current, sig, budget)
    if v.status != CONSISTENT:
        raise BoolkitError("cannot complete an inconsistent theory")
    atoms = []
    consts = sorted(sig.constants)
    for a, b in itertools.combinations(consts, 2):
        atoms.append(Eq(a, b))
    for name, arity in sorted(sig.relations.items()):
        for combo in itertools.product(consts, repeat=arity):
            atoms.append(Atom(name, combo))
    for atom in atoms:
        if consistency_oracle([*current, atom], sig, budget).status == CONSISTENT:
            current.append(syntax.canon(atom))
        else:
            current.append(syntax.canon(Not(atom)))
    return current


def first_order_compactness_demo(
    theory,
    sig: Signature,
    budget: Budget = DEFAULT_BUDGET,
    completion_atom_cap: int = 3,
) -> bvmodel.BValuedModel:
    """Route a finitely consistent ground theory through the compactness
    pipeline and return a Tarski model of it.

    The theory is Lindenbaum-completed, turned into a star family read off
    the completion's witness, run through compactness_run, and collapsed by
    an ultrafilter quotient.  The mixing completion step is performed
    literally when the algebra is small; for larger algebras the quotient is
    taken directly, which yields the same model up to isomorphism because the
    original model embeds in its completion with the same atomic values.
    """
    sentences = [syntax.canon(f) for f in _sentences(theory)]
    verdict = consistency_oracle(sentences, sig, budget)
    if verdict.status != CONSISTENT:
        subset = _minimal_inconsistent_subset(sentences, sig, budget)
        raise BoolkitError(
            "theory has an inconsistent finite subset: "
            + "; ".join(syntax.render(f) for f in subset)
        )
    completed = lindenbaum_complete(sentences, sig, budget)
    witness = consistency_oracle(completed, sig, budget).witness
    # a theory and its single conjunction are interchangeable for Boolean
    # consistency; the singleton generator keeps the materialized family small
    stars = star_theory(witness, [big_conjunction(sentences)], sig)
    family = conjunction_closure(stars)
    result = compactness_run(family, sig, budget)
    model = result.model
    from .balg import ultrafilters

    if model.algebra.atom_count <= completion_atom_cap:
        model = bvmodel.mixing_completion(model)
    quotient = bvmodel.quotient_model(model, ultrafilters(model.algebra)[0])
    for f in sentences:
        if not bvmodel.holds(quotient, f):
            raise ConstructionFailure(
                f"quotient fails a theory sentence: {syntax.render(f)}"
            )
    return quotient


def _minimal_inconsistent_subset(sentences, sig, budget):
    core = list(sentences)
    changed = True
    while changed:
        changed = False
        for i in range(len(core)):
            trial = core[:i] + core[i + 1 :]
            if trial and consistency_oracle(trial, sig, budget).status == INCONSISTENT:
                core = trial
                changed = True
                break
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
