"""Sequents, rule-labelled proof trees, the proof checker for the Gentzen-type
calculus, and randomized soundness probing against sampled models.

Sequent sides are finite sets of canonical formulas.  Rule-specific data
(principal formula, instantiating terms, substitutions) is carried explicitly
on each node; nothing is inferred by matching.
"""
from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Optional

from . import bvmodel, syntax
from .errors import BoolkitError
from .syntax import And, Atom, Eq, Exists, Forall, Formula, Or, Signature

AXIOM_RULES = ("eq-axiom-1", "eq-axiom-2", "eq-axiom-3", "eq-axiom-4", "axiom")
# each logical rule: the side of the conclusion its principal formula sits
# on, and the connective the rule introduces
LOGICAL_RULES = {
    "left-and": ("left", And),
    "right-and": ("right", And),
    "left-or": ("right", Or),
    "right-or": ("left", Or),
    "left-forall": ("left", Forall),
    "right-forall": ("right", Forall),
    "left-exists": ("left", Exists),
    "right-exists": ("right", Exists),
}
RULES = AXIOM_RULES + ("cut", "substitution", "weakening", *LOGICAL_RULES)
_NOUNS = {And: ("conjunction", "conjunct"), Or: ("disjunction", "disjunct")}


@dataclass(frozen=True)
class Sequent:
    left: frozenset
    right: frozenset

    def __init__(self, left=(), right=()):
        object.__setattr__(self, "left", frozenset(syntax.canon(f) for f in left))
        object.__setattr__(self, "right", frozenset(syntax.canon(f) for f in right))

    def __repr__(self):
        ls = ", ".join(sorted(syntax.render(f) for f in self.left))
        rs = ", ".join(sorted(syntax.render(f) for f in self.right))
        return f"{ls} |- {rs}"


@dataclass(frozen=True)
class ProofTree:
    conclusion: Sequent
    rule: str
    premises: tuple = ()
    data: Mapping = field(default_factory=dict)

    def __init__(self, conclusion, rule, premises=(), data=None):
        object.__setattr__(self, "conclusion", conclusion)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "premises", tuple(premises))
        object.__setattr__(self, "data", dict(data or {}))


@dataclass(frozen=True)
class ProofVerdict:
    ok: bool
    path: tuple = ()
    reason: str = ""

    def __bool__(self):
        return self.ok


def _fail(path, reason):
    return ProofVerdict(False, tuple(path), reason)


def _substitute_side(side, binding):
    return frozenset(syntax.canon(syntax.substitute(f, binding)) for f in side)


def _check_node(node: ProofTree, path) -> Optional[ProofVerdict]:
    rule = node.rule
    seq = node.conclusion
    prem = node.premises
    data = node.data

    if rule not in RULES:
        return _fail(path, f"unknown rule {rule!r}")
    if rule in AXIOM_RULES and prem:
        return _fail(path, f"{rule} takes no premises")
    if not prem and rule not in AXIOM_RULES:
        return _fail(path, f"leaf labelled {rule}; leaves must be axiom rules")

    if rule == "eq-axiom-1":
        if seq.left:
            return _fail(path, "eq-axiom-1 has empty left side")
        if len(seq.right) != 1:
            return _fail(path, "eq-axiom-1 has a single conclusion formula")
        (f,) = seq.right
        if not (isinstance(f, Eq) and f.left == f.right and not syntax.is_var(f.left)):
            return _fail(path, "eq-axiom-1 concludes c=c")
        return None

    if rule == "eq-axiom-2":
        if len(seq.left) != 1 or len(seq.right) != 1:
            return _fail(path, "eq-axiom-2 is c=d |- d=c")
        (f,) = seq.left
        (g,) = seq.right
        if not (
            isinstance(f, Eq)
            and isinstance(g, Eq)
            and f.left == g.right
            and f.right == g.left
            and not syntax.is_var(f.left)
            and not syntax.is_var(f.right)
        ):
            return _fail(path, "eq-axiom-2 is c=d |- d=c")
        return None

    if rule == "eq-axiom-3":
        if len(seq.right) != 1:
            return _fail(path, "eq-axiom-3 has a single conclusion formula")
        (g,) = seq.right
        if not isinstance(g, Eq):
            return _fail(path, "eq-axiom-3 concludes an equality")
        c, e = g.left, g.right
        candidates = [f for f in seq.left if isinstance(f, Eq)]
        ok = any(
            f1.left == c and f1.right == f2.left and f2.right == e
            for f1 in candidates
            for f2 in candidates
        )
        if not ok or len(seq.left) != 2:
            return _fail(path, "eq-axiom-3 is c=d, d=e |- c=e")
        if any(syntax.free_vars(f) for f in seq.left | seq.right):
            return _fail(path, "eq-axiom-3 uses constants")
        return None

    if rule == "eq-axiom-4":
        base = data.get("formula")
        pairs = tuple(tuple(p) for p in data.get("pairs", ()))
        if base is None or not pairs:
            return _fail(path, "eq-axiom-4 needs data: formula and (u, t) pairs")
        mapping = {}
        for u, t in pairs:
            if syntax.is_var(u) or syntax.is_var(t):
                return _fail(path, "eq-axiom-4 pairs are constants")
            if t in mapping and mapping[t] != u:
                return _fail(path, "eq-axiom-4 pairs conflict on a replaced constant")
            mapping[t] = u
        expected_left = frozenset(Eq(u, t) for u, t in pairs) | {syntax.canon(base)}
        replaced = syntax.canon(syntax.substitute(base, mapping))
        if seq.left != expected_left:
            return _fail(path, "eq-axiom-4 left side is {u_i=t_i} with phi(t_i)")
        if seq.right != frozenset({replaced}):
            return _fail(path, "eq-axiom-4 right side is phi with simultaneous replacement")
        return None

    if rule == "axiom":
        if not seq.left & seq.right:
            return _fail(path, "axiom needs a shared formula on both sides")
        return None

    if rule == "cut":
        if len(prem) != 2:
            return _fail(path, "cut takes two premises")
        phi = data.get("formula")
        if phi is None:
            return _fail(path, "cut needs the cut formula")
        phi = syntax.canon(phi)
        p1, p2 = prem[0].conclusion, prem[1].conclusion
        if phi not in p1.left:
            return _fail(path, "cut formula missing from first premise left side")
        if phi not in p2.right:
            return _fail(path, "cut formula missing from second premise right side")
        if seq.left != (p1.left - {phi}) | p2.left:
            return _fail(path, "cut conclusion left side mismatch")
        if seq.right != p1.right | (p2.right - {phi}):
            return _fail(path, "cut conclusion right side mismatch")
        return None

    if rule == "substitution":
        if len(prem) != 1:
            return _fail(path, "substitution takes one premise")
        mapping = dict(data.get("mapping", {}))
        if not mapping or not all(syntax.is_var(v) for v in mapping):
            return _fail(path, "substitution needs a variable-keyed mapping")
        p = prem[0].conclusion
        try:
            if seq.left != _substitute_side(p.left, mapping) or seq.right != _substitute_side(
                p.right, mapping
            ):
                return _fail(path, "substitution conclusion mismatch")
        except BoolkitError as exc:
            return _fail(path, str(exc))
        return None

    if rule == "weakening":
        if len(prem) != 1:
            return _fail(path, "weakening takes one premise")
        p = prem[0].conclusion
        if not (p.left <= seq.left and p.right <= seq.right):
            return _fail(path, "weakening only adds formulas")
        return None

    # a logical rule: the right-side rules are the left-side ones with the
    # sequent's two sides exchanged
    side, kind = LOGICAL_RULES[rule]
    other = "right" if side == "left" else "left"
    quantified = kind in (Forall, Exists)
    # left-and, left-or, left-forall and right-exists replace the principal
    # formula in their one premise; right-and and right-or take one premise
    # per child; right-forall and left-exists bind an eigenvariable
    replaces = (kind in (And, Forall)) == (side == "left")
    noun, part = _NOUNS.get(kind, ("formula", None))
    if (replaces or quantified) and len(prem) != 1:
        return _fail(path, f"{rule} takes one premise")
    phi = data.get("formula")
    if not isinstance(phi, kind):
        return _fail(path, f"{rule} needs its {'quantified ' if quantified else ''}{noun}")
    phi = syntax.canon(phi)
    parts = {phi.body} if quantified else frozenset(phi.children)
    if quantified and replaces:
        terms = tuple(data.get("terms", ()))
        if len(terms) != len(phi.vars):
            return _fail(path, f"{rule} needs one instantiating term per variable")
        try:
            parts = {syntax.canon(syntax.substitute(phi.body, dict(zip(phi.vars, terms))))}
        except BoolkitError as exc:
            return _fail(path, str(exc))
    if phi not in getattr(seq, side):
        return _fail(path, f"principal {noun} missing from conclusion")
    rest, kept = getattr(seq, side) - {phi}, getattr(seq, other)
    if not (replaces or quantified):
        if len(prem) != len(phi.children):
            return _fail(path, f"{rule} takes one premise per {part}")
        wanted = Counter(Sequent(**{side: rest | {child}, other: kept}) for child in phi.children)
        if wanted != Counter(pr.conclusion for pr in prem):
            return _fail(path, f"{rule} premise mismatch")
        return None
    p = prem[0].conclusion
    if not quantified:
        if getattr(p, other) != kept:
            return _fail(path, f"{rule} keeps the {other} side")
        if getattr(p, side) != rest | parts:
            return _fail(path, f"{rule} premise {side} side mismatch")
        return None
    if getattr(p, other) != kept or getattr(p, side) != rest | parts:
        return _fail(path, f"{rule} premise mismatch")
    if replaces:
        return None
    # eigenvariable condition (*)
    clash = set(phi.vars) & frozenset().union(*map(syntax.free_vars, rest | kept))
    if clash:
        return _fail(path, f"eigenvariable condition violated for {sorted(clash)}")
    return None


def check_proof(p: ProofTree) -> ProofVerdict:
    """Verify every node against its declared rule; the verdict carries the
    path (child indices from the root) and reason of the first failure."""
    stack = [(p, ())]
    while stack:
        node, path = stack.pop()
        bad = _check_node(node, path)
        if bad is not None:
            return bad
        for i, child in enumerate(node.premises):
            stack.append((child, path + (i,)))
    return ProofVerdict(True)


# ---------------------------------------------------------------------------
# soundness probing


@dataclass(frozen=True)
class SoundnessReport:
    ok: bool
    trials: int
    counterexample: Optional[dict] = None

    def __bool__(self):
        return self.ok


def _collect_symbols(p: ProofTree):
    """The relations of every formula in the tree, and the constants of its
    sequents."""
    relations, constants = {}, set()
    stack = [p]
    while stack:
        node = stack.pop()
        stack.extend(node.premises)
        sequent = node.conclusion.left | node.conclusion.right
        constants = constants.union(*map(syntax.constants_of, sequent))
        data = [v for v in node.data.values() if isinstance(v, Formula)]
        for f in [*sequent, *data]:
            for g in syntax.subformulas(f):
                if isinstance(g, Atom):
                    relations[g.rel] = len(g.args)
    return relations, constants


def soundness_probe(
    p: ProofTree,
    trials: int = 100,
    seed: int = 0,
    sig: Optional[Signature] = None,
) -> SoundnessReport:
    """Sample valid pseudo-random models and check that the conclusion's
    conjunction is below its disjunction in every one, for every assignment
    of the free variables.  A counterexample would indicate a checker bug.
    """
    verdict = check_proof(p)
    if not verdict.ok:
        raise BoolkitError(f"refusing to probe an invalid proof: {verdict.reason}")
    if sig is None:
        relations, constants = _collect_symbols(p)
        constants = constants or {"c0"}
        sig = Signature(relations=relations, base_constants=constants)
    rng = random.Random(seed)
    seq = p.conclusion
    fv = frozenset()
    for f in seq.left | seq.right:
        fv |= syntax.free_vars(f)
    fv = sorted(fv)
    for trial in range(trials):
        m = bvmodel.random_model(sig, rng)
        for combo in itertools.product(m.domain, repeat=len(fv)):
            env = dict(zip(fv, combo))
            lhs = m.algebra.meet_all(bvmodel.eval_formula(m, f, env) for f in seq.left)
            rhs = m.algebra.join_all(bvmodel.eval_formula(m, f, env) for f in seq.right)
            if not m.algebra.leq(lhs, rhs):
                return SoundnessReport(
                    False,
                    trial + 1,
                    {"assignment": env, "lhs": lhs, "rhs": rhs, "domain": m.domain},
                )
    return SoundnessReport(True, trials)


# ---------------------------------------------------------------------------
# interchange format


def sequent_to_json(seq: Sequent) -> dict:
    return {
        "left": sorted(syntax.render(f) for f in seq.left),
        "right": sorted(syntax.render(f) for f in seq.right),
    }


def proof_to_json(p: ProofTree) -> dict:
    data = {}
    for key, value in p.data.items():
        if isinstance(value, Formula):
            data[key] = syntax.render(value)
        elif key == "pairs":
            data[key] = [list(pair) for pair in value]
        elif key == "mapping":
            data[key] = dict(value)
        elif key == "terms":
            data[key] = list(value)
        else:
            data[key] = value
    return {
        "rule": p.rule,
        "conclusion": sequent_to_json(p.conclusion),
        "data": data,
        "premises": [proof_to_json(q) for q in p.premises],
    }


def proof_from_json(doc: dict, sig: Signature) -> ProofTree:
    conclusion = Sequent(
        [syntax.parse(s, sig) for s in doc.get("conclusion", {}).get("left", [])],
        [syntax.parse(s, sig) for s in doc.get("conclusion", {}).get("right", [])],
    )
    data = {}
    for key, value in doc.get("data", {}).items():
        if key == "formula":
            data[key] = syntax.parse(value, sig)
        elif key == "pairs":
            data[key] = tuple(tuple(pair) for pair in value)
        elif key == "mapping":
            data[key] = dict(value)
        elif key == "terms":
            data[key] = tuple(value)
        else:
            data[key] = value
    premises = [proof_from_json(q, sig) for q in doc.get("premises", [])]
    return ProofTree(conclusion, doc["rule"], premises, data)
