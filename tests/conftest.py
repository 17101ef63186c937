"""Shared fixtures, random generators, and independent reference oracles.

The reference implementations here deliberately avoid the package's own code
paths: classical truth is computed by direct recursion, satisfiability by
enumerating partitions and relation assignments, and regularization by the
textbook interior-of-closure construction.
"""
import itertools
import random

import pytest

from boolkit import syntax
from boolkit.balg import FiniteBooleanAlgebra
from boolkit.bvmodel import BValuedModel
from boolkit.syntax import And, Atom, Eq, Exists, Forall, Not, Or, Signature


@pytest.fixture
def sig1():
    return Signature(relations={"R": 1}, base_constants={"c0", "c1"}, fresh_constants={"e0"})


@pytest.fixture
def sig_eq():
    return Signature(relations={}, base_constants=set(), fresh_constants={"c", "d"})


# ---------------------------------------------------------------------------
# random formulas and models


def random_formula(sig, rng, depth, scope=()):
    terms = sorted(sig.constants) + list(scope)

    def atom():
        choices = []
        if len(terms) >= 1:
            choices.append("eq")
        if sig.relations:
            choices.append("rel")
        kind = rng.choice(choices)
        if kind == "eq":
            return Eq(rng.choice(terms), rng.choice(terms))
        name = rng.choice(sorted(sig.relations))
        arity = sig.relations[name]
        return Atom(name, tuple(rng.choice(terms) for _ in range(arity)))

    def go(d, scope):
        terms[:] = sorted(sig.constants) + list(scope)
        if d == 0:
            return atom()
        kind = rng.choice(["not", "and", "or", "forall", "exists", "atom"])
        if kind == "atom":
            return atom()
        if kind == "not":
            return Not(go(d - 1, scope))
        if kind in ("and", "or"):
            n = rng.choice([0, 1, 2, 2])
            children = tuple(go(d - 1, scope) for _ in range(n))
            return And(children) if kind == "and" else Or(children)
        var = f"?v{len(scope)}"
        body = go(d - 1, scope + (var,))
        return (Forall if kind == "forall" else Exists)((var,), body)

    return go(depth, tuple(scope))


def random_sentence(sig, rng, depth):
    f = random_formula(sig, rng, depth)
    fv = sorted(syntax.free_vars(f))
    if fv:
        consts = sorted(sig.constants)
        f = syntax.substitute(f, {v: rng.choice(consts) for v in fv})
    return f


# ---------------------------------------------------------------------------
# independent classical evaluator (two-valued reference)


def classical_eval(m, f, env=None):
    env = env or {}

    def term(t):
        if syntax.is_var(t):
            return env[t]
        return m.consts[t]

    if isinstance(f, Eq):
        return m.eq[(term(f.left), term(f.right))] == m.algebra.one
    if isinstance(f, Atom):
        return m.rel[f.rel][tuple(term(t) for t in f.args)] == m.algebra.one
    if isinstance(f, Not):
        return not classical_eval(m, f.body, env)
    if isinstance(f, And):
        return all(classical_eval(m, c, env) for c in f.children)
    if isinstance(f, Or):
        return any(classical_eval(m, c, env) for c in f.children)
    if isinstance(f, (Forall, Exists)):
        combos = itertools.product(m.domain, repeat=len(f.vars))
        results = (
            classical_eval(m, f.body, {**env, **dict(zip(f.vars, combo))})
            for combo in combos
        )
        return all(results) if isinstance(f, Forall) else any(results)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# independent ground satisfiability by exhaustive enumeration


def _partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def brute_force_satisfiable(sentences, sig):
    """Enumerate all structures generated by the constants and evaluate
    classically.  Ground sentences only."""
    consts = sorted(sig.constants)
    for part in _partitions(consts):
        rep = {}
        for block in part:
            r = min(block)
            for c in block:
                rep[c] = r
        blocks = sorted({rep[c] for c in consts})
        rel_atoms = []
        for name, arity in sorted(sig.relations.items()):
            for combo in itertools.product(blocks, repeat=arity):
                rel_atoms.append((name, combo))
        for bits in range(1 << len(rel_atoms)):
            true_atoms = {rel_atoms[i] for i in range(len(rel_atoms)) if bits >> i & 1}

            def ev(f):
                if isinstance(f, Eq):
                    return rep[f.left] == rep[f.right]
                if isinstance(f, Atom):
                    return (f.rel, tuple(rep[a] for a in f.args)) in true_atoms
                if isinstance(f, Not):
                    return not ev(f.body)
                if isinstance(f, And):
                    return all(ev(c) for c in f.children)
                if isinstance(f, Or):
                    return any(ev(c) for c in f.children)
                raise TypeError(f)

            if all(ev(f) for f in sentences):
                return True
    return False


# ---------------------------------------------------------------------------
# independent regularization oracle


def interior_of_closure(poset, u):
    """Textbook int(cl(u)) in the topology whose opens are the down-closed
    sets of the strength order."""
    elements = set(poset.elements)
    u = set(u)
    closure = {q for q in elements if any(poset.leq(r, q) for r in u)} | u
    down = {
        q: {r for r in elements if poset.leq(r, q)} for q in elements
    }
    return frozenset(q for q in elements if down[q] <= closure)


# ---------------------------------------------------------------------------
# naive clause checker (reference for the memoized obligation engine)


def _naive_clause_obligations(s, sig):
    """Per-member clause obligations, rebuilt from scratch for every member:
    (clause, need, options) with raw, uncanonicalized options."""
    consts = sorted(sig.constants)
    fresh = sorted(sig.fresh_constants)
    ordered = sorted(s, key=syntax.render)
    for f in ordered:
        if isinstance(f, Not):
            if not isinstance(f.body, (Atom, Eq)):
                yield ("Ind.1", f"negation of {syntax.render(f.body)}", [syntax.nnf_step(f.body)])
        elif isinstance(f, And):
            for child in f.children:
                yield ("Ind.2", f"conjunct {syntax.render(child)}", [child])
        elif isinstance(f, Or):
            yield ("Ind.4", f"some disjunct of {syntax.render(f)}", list(f.children))
        elif isinstance(f, Forall):
            for combo in itertools.product(consts, repeat=len(f.vars)):
                inst = syntax.substitute(f.body, dict(zip(f.vars, combo)))
                yield ("Ind.3", f"instance {syntax.render(inst)}", [inst])
        elif isinstance(f, Exists):
            options = [
                syntax.substitute(f.body, dict(zip(f.vars, combo)))
                for combo in itertools.product(fresh, repeat=len(f.vars))
            ]
            yield ("Ind.5", f"witness for {syntax.render(f)}", options)
        if isinstance(f, Eq):
            yield ("Str.1", f"symmetric {syntax.render(f)}", [Eq(f.right, f.left)])
    for e in (f for f in ordered if isinstance(f, Eq)):
        for f in ordered:
            if f is e:
                continue
            if e.right in syntax.constants_of(f):
                yield (
                    "Str.2",
                    f"substitute {e.left} for {e.right} in {syntax.render(f)}",
                    [syntax.replace_constants(f, {e.right: e.left})],
                )
    mentioned = set()
    for f in s:
        mentioned |= syntax.constants_of(f)
    for d in consts:
        options = []
        if d in sig.fresh_constants:
            options.append(Eq(d, d))
        preferred = sorted((c for c in fresh if c != d), key=lambda c: (c in mentioned, c))
        options.extend(Eq(c, d) for c in preferred)
        yield ("Str.3", f"fresh name for {d}", options)


def _naive_canon_set(sentences):
    out = {syntax.canon(f) for f in sentences}
    return frozenset(f for f in out if not (isinstance(f, Eq) and f.left == f.right))


def _naive_member(s, sig):
    """One member's sort key, its Con violation (the rendered atom, or None)
    and its obligations as (clause, need, extensions), every extension
    re-canonicalized as a whole.  None depends on the other members."""
    con = next(
        (syntax.render(f.body) for f in sorted(s, key=syntax.render)
         if isinstance(f, Not) and f.body in s),
        None,
    )
    obligations = [
        (clause, need, [_naive_canon_set(set(s) | {candidate}) for candidate in options])
        for clause, need, options in _naive_clause_obligations(s, sig)
    ]
    return (len(s), sorted(map(syntax.render, s))), con, obligations


def naive_verify(prop, memo=None):
    """(ok, clause, member, detail) of the first violation, members in
    (size, sorted renderings) order.  ``memo``, a dict shared by calls over
    one signature, keeps each member's Con check and obligations."""
    memo = {} if memo is None else memo
    members = prop.members
    for s in members:
        if s not in memo:
            memo[s] = _naive_member(s, prop.sig)
    ordered = sorted(members, key=lambda s: memo[s][0])
    for s in ordered:
        if memo[s][1] is not None:
            return (False, "Con", s, memo[s][1])
    for s in ordered:
        for clause, need, extensions in memo[s][2]:
            if not any(ext == s or ext in members for ext in extensions):
                return (False, clause, s, need)
    return (True, "", None, "")


# ---------------------------------------------------------------------------
# reference ground search (rebuilds the congruence closure at every node)


class _ReferenceClosure:
    """Congruence closure of a whole atom assignment, built from scratch."""

    def __init__(self, constants, assignment):
        parent = {c: c for c in constants}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for key, value in assignment.items():
            if key[0] == "eq" and value:
                a, b = sorted((find(key[1]), find(key[2])))
                parent[b] = a
        self.find = find
        self.diseq = set()
        self.rel_true = set()
        self.rel_false = set()
        self.conflict = None
        for key, value in assignment.items():
            if key[0] == "eq" and not value:
                pair = frozenset((find(key[1]), find(key[2])))
                if len(pair) == 1:
                    self.conflict = ("eq-closure", key)
                    return
                self.diseq.add(pair)
            elif key[0] == "rel":
                canon = (key[1], tuple(find(a) for a in key[2]))
                (self.rel_true if value else self.rel_false).add(canon)
        clash = self.rel_true & self.rel_false
        if clash:
            self.conflict = ("rel-congruence", min(clash))

    def value(self, f):
        """Strong Kleene value of a ground formula: True, False or None."""
        if isinstance(f, Eq):
            a, b = self.find(f.left), self.find(f.right)
            if a == b:
                return True
            return False if frozenset((a, b)) in self.diseq else None
        if isinstance(f, Atom):
            canon = (f.rel, tuple(self.find(a) for a in f.args))
            if canon in self.rel_true:
                return True
            return False if canon in self.rel_false else None
        if isinstance(f, Not):
            v = self.value(f.body)
            return None if v is None else not v
        values = [self.value(c) for c in f.children]
        decisive = isinstance(f, Or)
        if decisive in values:
            return decisive
        return None if None in values else not decisive

    def first_undecided_atom(self, f):
        if isinstance(f, (Eq, Atom)):
            if self.value(f) is not None:
                return None
            if isinstance(f, Eq):
                return ("eq", *sorted((f.left, f.right)))
            return ("rel", f.rel, f.args)
        for child in (f.body,) if isinstance(f, Not) else f.children:
            found = self.first_undecided_atom(child)
            if found is not None:
                return found
        return None


def reference_witness(assignment, constants, sig):
    """The two-valued model of a satisfying assignment, read off its
    reference closure: one element per class (named by its minimum), a
    relation true exactly on the classes of its true atoms."""
    closure = _ReferenceClosure(constants, assignment)
    b = FiniteBooleanAlgebra(1)
    one = b.one
    domain = tuple(sorted({closure.find(c) for c in constants}))
    eq = {(a, b): one if a == b else 0 for a in domain for b in domain}
    rel = {
        name: {
            xs: one if (name, xs) in closure.rel_true else 0
            for xs in itertools.product(domain, repeat=arity)
        }
        for name, arity in sig.relations.items()
    }
    consts = {c: closure.find(c) for c in constants}
    return BValuedModel(b, domain, eq, rel, consts)


def reference_search(sentences, constants, node_cap):
    """Depth-first search that re-evaluates every sentence on a fresh
    closure at each node.  Returns (status, nodes, assignment or None,
    certificate or None), with the oracle's certificate format."""
    nodes = 0

    class Exhausted(Exception):
        pass

    def search(assignment):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise Exhausted
        closure = _ReferenceClosure(constants, assignment)
        if closure.conflict is not None:
            kind, detail = closure.conflict
            return None, {"conflict": {"kind": kind, "detail": repr(detail)}}
        branch_atom = None
        for i, f in enumerate(sentences):
            v = closure.value(f)
            if v is False:
                return None, {"conflict": {"kind": "sentence", "index": i}}
            if v is None and branch_atom is None:
                branch_atom = closure.first_undecided_atom(f)
        if branch_atom is None:
            return dict(assignment), None
        cert = {"atom": list(branch_atom)}
        for value in (True, False):
            assignment[branch_atom] = value
            model, sub = search(assignment)
            del assignment[branch_atom]
            if model is not None:
                return model, None
            cert["true" if value else "false"] = sub
        return None, cert

    try:
        assignment, certificate = search({})
    except Exhausted:
        return "Unknown", nodes, None, None
    status = "Consistent" if assignment is not None else "Inconsistent"
    return status, nodes, assignment, certificate
