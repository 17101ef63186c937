"""Shared fixtures, random generators, and independent reference oracles.

The reference implementations here deliberately avoid the package's own code
paths: classical truth is computed by direct recursion, satisfiability by
enumerating partitions and relation assignments, regularization by the
textbook interior-of-closure construction, and a poset's order pair by pair
(``ReferencePoset``).
"""
import itertools
import random
import weakref

import pytest

from boolkit import bvmodel, compact, consprop, syntax
from boolkit.balg import (
    FiniteBooleanAlgebra,
    Filter,
    Poset,
    bit_positions,
    holder_masks,
    ro_completion,
)
from boolkit.bvmodel import BValuedModel
from boolkit.errors import BoolkitError, ParseError
from boolkit.syntax import And, Atom, Eq, Exists, Forall, Not, Or, Signature


@pytest.fixture(scope="session", autouse=True)
def replayed_refutations():
    """Audit the oracle suite-wide.

    Replay the certificate of every Inconsistent search against the ground
    sentences that search was given, and check every status answer, cached
    or searched: a Consistent set's cached witness satisfies each of its
    ground sentences under ``classical_eval``, and an Inconsistent set has a
    subset that a search on the same ground refuted and this fixture
    replayed.  Yields the counts of replays and of audited answers so far.
    """
    count = {"replayed": 0, "consistent": 0, "inconsistent": 0}
    refuted = weakref.WeakKeyDictionary()  # ground -> its replayed refuted sets
    search, status = compact.OracleSession._search, compact.OracleSession.status

    def checked(self, ground, numbers):
        verdict = search(self, ground, numbers)
        if verdict.status == compact.INCONSISTENT:
            sentences = [ground.sentences[n] for n in numbers]
            assert compact.replay_certificate(verdict.certificate, sentences, ground.sig), (
                [syntax.render(f) for f in sentences]
            )
            count["replayed"] += 1
            refuted.setdefault(ground, []).append(frozenset(sentences))
        return verdict

    def audited(self, theory, sig, require_qe=False):
        answer = status(self, theory, sig, require_qe)
        ground = self._ground(sig)
        # re-prepared from the formulas, so that no number or mask a kept-subset
        # walk carried is taken on trust
        fresh = ground.prepare(list(theory), require_qe)
        assert ground.prepare(theory, require_qe) == fresh, [syntax.render(f) for f in theory]
        numbers = fresh[0]
        sentences = [ground.sentences[n] for n in numbers]
        rendered = [syntax.render(f) for f in sentences]
        if answer == compact.CONSISTENT:
            witness = ground.witnesses[sum(1 << n for n in set(numbers))]
            assert all(classical_eval(witness, f) for f in sentences), rendered
            count["consistent"] += 1
        elif answer == compact.INCONSISTENT:
            held = frozenset(sentences)
            assert any(r <= held for r in refuted.get(ground, ())), rendered
            count["inconsistent"] += 1
        return answer

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(compact.OracleSession, "_search", checked)
        patch.setattr(compact.OracleSession, "status", audited)
        yield count


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


def random_model_with_qe(sig, rng, max_atoms=3):
    """Like ``bvmodel.random_model``, but the fresh constants surject onto
    the domain, so the quantifier-elimination axiom gets value 1."""
    fresh = sorted(sig.fresh_constants)
    if not fresh:
        raise BoolkitError("signature has no fresh constants")
    m = bvmodel.random_model(sig, rng, max_atoms=max_atoms, max_domain=len(fresh))
    consts = dict(m.consts)
    shuffled = list(m.domain)
    rng.shuffle(shuffled)
    for i, c in enumerate(fresh):
        consts[c] = shuffled[i % len(shuffled)]
    return BValuedModel(m.algebra, m.domain, m.eq, m.rel, consts)


def sentence_catalog(sig, depth=3, limit=60):
    """A deterministic catalog of sentences over the signature, grown to the
    requested connective depth, for the quotient agreement tests."""
    consts = sorted(sig.constants)
    atoms = []
    for c in consts[:3]:
        for d in consts[:3]:
            atoms.append(Eq(c, d))
    for name, arity in sorted(sig.relations.items()):
        for combo in itertools.product(consts[:2], repeat=arity):
            atoms.append(Atom(name, combo))
    catalog = list(atoms[:limit])
    layer = list(catalog)
    for _ in range(depth - 1):
        new_layer = []
        for i, f in enumerate(layer):
            new_layer.append(Not(f))
            if i + 1 < len(layer):
                new_layer.append(And((f, layer[i + 1])))
                new_layer.append(Or((f, layer[i + 1])))
        layer = new_layer[: max(4, limit // 4)]
        catalog.extend(layer)
    x = "?x"
    quantified = []
    for c in consts[:2]:
        quantified.append(Exists((x,), Eq(x, c)))
        quantified.append(Forall((x,), Or((Eq(x, c), Not(Eq(x, c))))))
    for name, arity in sorted(sig.relations.items()):
        if arity >= 1:
            args = (x,) + tuple(consts[:1] * (arity - 1))
            quantified.append(Exists((x,), Atom(name, args)))
            quantified.append(Forall((x,), Not(Atom(name, args))))
    catalog.extend(quantified)
    return catalog[:limit]


def reference_tokenize(text):
    """(token, offset) pairs by a character loop: parentheses are tokens of
    their own, ``str.isspace`` characters separate, anything else runs on."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            tokens.append((text[i:j], i))
            i = j
    return tokens


class _ReferenceParser:
    """The recursive descent parser that ``syntax.parse`` replaced: one
    method call per token, one Python frame per nesting level."""

    def __init__(self, text, sig):
        self.tokens = syntax._tokenize(text)
        self.pos = 0
        self.sig = sig
        self.text_len = len(text)

    def peek(self):
        if self.pos >= len(self.tokens):
            return None, self.text_len
        return self.tokens[self.pos]

    def next(self):
        tok, at = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", at)
        self.pos += 1
        return tok, at

    def expect(self, want):
        tok, at = self.next()
        if tok != want:
            raise ParseError(f"expected {want!r}, found {tok!r}", at)
        return at

    def term(self):
        tok, at = self.next()
        if tok in "()":
            raise ParseError("expected a term", at)
        if not syntax.is_var(tok) and tok not in self.sig.constants:
            raise ParseError(f"undeclared symbol {tok!r}", at)
        return tok

    def formula(self):
        self.expect("(")
        head, head_at = self.next()
        if head == "and" or head == "or":
            children = []
            while True:
                tok, _ = self.peek()
                if tok == ")":
                    self.next()
                    break
                children.append(self.formula())
            return And(children) if head == "and" else Or(children)
        if head == "not":
            body = self.formula()
            self.expect(")")
            return Not(body)
        if head in ("forall", "exists"):
            self.expect("(")
            vars = []
            while True:
                tok, tok_at = self.next()
                if tok == ")":
                    break
                if not syntax.is_var(tok):
                    raise ParseError(f"quantified name {tok!r} must start with '?'", tok_at)
                if tok in vars:
                    raise ParseError(f"duplicate variable {tok!r} in quantifier block", tok_at)
                vars.append(tok)
            body = self.formula()
            self.expect(")")
            return (Forall if head == "forall" else Exists)(vars, body)
        if head == "=":
            left = self.term()
            right = self.term()
            self.expect(")")
            return Eq(left, right)
        if head in self.sig.relations:
            args = []
            while True:
                tok, _ = self.peek()
                if tok == ")":
                    self.next()
                    break
                args.append(self.term())
            if len(args) != self.sig.relations[head]:
                raise ParseError(
                    f"relation {head!r} expects {self.sig.relations[head]} arguments, got {len(args)}",
                    head_at,
                )
            return Atom(head, args)
        raise ParseError(f"undeclared symbol {head!r}", head_at)


def reference_parse(text, sig):
    """``syntax.parse`` by recursive descent over ``syntax._tokenize``."""
    p = _ReferenceParser(text, sig)
    f = p.formula()
    tok, at = p.peek()
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", at)
    return f


def reference_qe_transform(psi, sig):
    """``syntax.qe_transform`` bottom-up: expand the body of each quantifier
    block first, then ``syntax.substitute`` each pool tuple into it."""
    if not syntax.is_sentence(psi):
        raise ValueError("qe_transform is defined on sentences only")
    if not sig.fresh_constants and not syntax.is_quantifier_free(psi):
        raise ValueError("qe_transform needs a nonempty fresh-constant pool")
    pool = sorted(sig.fresh_constants)

    def go(f):
        if isinstance(f, (Atom, Eq)):
            return f
        if isinstance(f, Not):
            return Not(go(f.body))
        if isinstance(f, And):
            return And(tuple(go(c) for c in f.children))
        if isinstance(f, Or):
            return Or(tuple(go(c) for c in f.children))
        if isinstance(f, (Forall, Exists)):
            body = go(f.body)
            instances = tuple(
                syntax.substitute(body, dict(zip(f.vars, combo)))
                for combo in itertools.product(pool, repeat=len(f.vars))
            )
            return And(instances) if isinstance(f, Forall) else Or(instances)
        raise TypeError(f"not a formula: {f!r}")

    return go(psi)


# ---------------------------------------------------------------------------
# independent evaluators (two-valued and B-valued references)


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


def reference_bvalue(m, f, env=None):
    """Boolean value by a full walk: every child of every conjunction and
    disjunction is evaluated, with no memo and no early exit."""
    env = env or {}
    b = m.algebra

    def term(t):
        return env[t] if syntax.is_var(t) else m.consts[t]

    if isinstance(f, Eq):
        return m.eq[(term(f.left), term(f.right))]
    if isinstance(f, Atom):
        return m.rel[f.rel][tuple(term(t) for t in f.args)]
    if isinstance(f, Not):
        return b.complement(reference_bvalue(m, f.body, env))
    if isinstance(f, And):
        return b.meet_all([reference_bvalue(m, c, env) for c in f.children])
    if isinstance(f, Or):
        return b.join_all([reference_bvalue(m, c, env) for c in f.children])
    if isinstance(f, (Forall, Exists)):
        combos = itertools.product(m.domain, repeat=len(f.vars))
        values = [reference_bvalue(m, f.body, {**env, **dict(zip(f.vars, c))}) for c in combos]
        return b.meet_all(values) if isinstance(f, Forall) else b.join_all(values)
    raise TypeError(f)


# ---------------------------------------------------------------------------
# full-scan model validation (reference for ``bvmodel.validate_model``)


def reference_validate_model(m, max_violations=1):
    """(ok, violations) of the equality axioms, the relation tables, the
    congruence condition and the constants, every scan run in full."""
    b = m.algebra
    bad = []

    def report():
        return (not bad, tuple(bad))

    for a in m.domain:
        for c in m.domain:
            if (a, c) not in m.eq or not b.is_element(m.eq[(a, c)]):
                bad.append(("eq-table", a, c))
                if len(bad) >= max_violations:
                    return report()
    if bad:  # the scans below read the whole table
        return report()
    for a in m.domain:
        if m.eq[(a, a)] != b.one:
            bad.append(("reflexivity", a))
            if len(bad) >= max_violations:
                return report()
    for a, c in itertools.product(m.domain, repeat=2):
        if m.eq[(a, c)] != m.eq[(c, a)]:
            bad.append(("symmetry", a, c))
            if len(bad) >= max_violations:
                return report()
    for a, c, d in itertools.product(m.domain, repeat=3):
        if not b.leq(b.meet(m.eq[(a, c)], m.eq[(c, d)]), m.eq[(a, d)]):
            bad.append(("transitivity", a, c, d))
            if len(bad) >= max_violations:
                return report()
    for name, table in m.rel.items():
        arity = len(next(iter(table))) if table else 0
        for xs in itertools.product(m.domain, repeat=arity):
            if xs not in table or not b.is_element(table[xs]):
                bad.append(("rel-table", name, xs))
                return report()
        for xs in itertools.product(m.domain, repeat=arity):
            for ys in itertools.product(m.domain, repeat=arity):
                guard = b.meet_all(m.eq[(x, y)] for x, y in zip(xs, ys))
                if not b.leq(b.meet(guard, table[xs]), table[ys]):
                    bad.append(("congruence", name, xs, ys))
                    if len(bad) >= max_violations:
                        return report()
    for name, elem in m.consts.items():
        if elem not in m.domain:
            bad.append(("constant", name, elem))
            if len(bad) >= max_violations:
                return report()
    return report()


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


def _relation_atoms(f):
    if isinstance(f, Atom):
        yield f
    elif isinstance(f, Not):
        yield from _relation_atoms(f.body)
    elif isinstance(f, (And, Or)):
        for c in f.children:
            yield from _relation_atoms(c)


def brute_force_satisfiable(sentences, sig):
    """Enumerate all structures generated by the constants and evaluate
    classically.  Ground sentences only.  Relation atoms the sentences do
    not mention are left false, since no sentence reads them."""
    consts = sorted(sig.constants)
    mentioned = {(a.rel, a.args) for f in sentences for a in _relation_atoms(f)}
    for part in _partitions(consts):
        rep = {}
        for block in part:
            r = min(block)
            for c in block:
                rep[c] = r
        rel_atoms = sorted({(name, tuple(rep[x] for x in args)) for name, args in mentioned})
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
# the reference poset builder and set-based views of posets, completions and
# filters


class ReferencePoset:
    """A finite poset with hashable elements, the reference for
    ``balg.Poset``.  ``leq(s, t)`` reads "s is at least as strong as t".

    The order is given by ``leq_pairs`` or by a ``leq`` predicate (called on
    all n² pairs), and its axioms are checked on construction.  The down
    masks are filled pair by pair (bit i of ``_down[j]`` means elements[i]
    <= elements[j]) and the up masks are their transpose, so
    ``ro_completion`` runs on it as on a ``balg.Poset``, over the same
    positions, with the order computed independently.
    """

    def __init__(self, elements, leq_pairs=(), leq=None):
        self.elements = tuple(elements)
        if len(set(self.elements)) != len(self.elements):
            raise BoolkitError("poset elements must be distinct")
        self._index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        if leq is not None:
            leq_pairs = [(a, b) for a in self.elements for b in self.elements if leq(a, b)]
        self._down = [1 << i for i in range(n)]
        for (a, b) in leq_pairs:
            if a not in self._index or b not in self._index:
                raise BoolkitError(f"order pair {(a, b)!r} mentions a non-element")
            self._down[self._index[b]] |= 1 << self._index[a]
        self._check_axioms()
        self._up = [0] * n
        for j, mask in enumerate(self._down):
            for i in bit_positions(mask):
                self._up[i] |= 1 << j

    def _check_axioms(self):
        for i, mask in enumerate(self._down):
            for j in bit_positions(mask):
                if self._down[j] & ~mask:
                    raise BoolkitError("order is not transitive")
                if i != j and self._down[j] >> i & 1:
                    raise BoolkitError("order is not antisymmetric")

    def __len__(self):
        return len(self.elements)

    def leq(self, a, b) -> bool:
        return self._down[self._index[b]] >> self._index[a] & 1 == 1


def poset_of_sets(sets) -> Poset:
    """``balg.Poset`` over distinct sets of hashable items, each set at its
    position in ``sets``; items are numbered first seen first."""
    position = {}  # item -> its position
    rows = [[position.setdefault(x, len(position)) for x in s] for s in sets]
    return Poset([sum(1 << k for k in row) for row in rows], holder_masks(rows, len(position)))


def mask_of(poset, subset) -> int:
    """The bitmask of a set of poset elements."""
    out = 0
    for e in subset:
        out |= 1 << poset._index[e]
    return out


def set_of(poset, mask) -> frozenset:
    return frozenset(e for i, e in enumerate(poset.elements) if mask >> i & 1)


def down_mask(poset, a) -> int:
    """The elements at least as strong as ``a``, as a bitmask."""
    return poset._down[poset._index[a]]


def regularize_mask(poset, u_mask: int) -> int:
    """Interior-of-closure of a set of positions, by the up masks.

    The closure of u is the set of conditions with an extension in u,
    the union of the up masks of u's members.  Its interior keeps the
    conditions whose every extension is in the closure, that is, those
    above no condition outside it.
    """
    everything = (1 << len(poset)) - 1
    touched = 0
    for i in bit_positions(u_mask):
        touched |= poset._up[i]
    outside = 0
    for k in bit_positions(everything & ~touched):
        outside |= poset._up[k]
    return everything & ~outside


def regularize(poset, u) -> frozenset:
    """Interior-of-closure of a set of elements, through ``regularize_mask``."""
    return set_of(poset, regularize_mask(poset, mask_of(poset, u)))


def element_of_mask(ro, u_mask) -> int:
    """The algebra element of a regular open mask: the atoms whose masks
    lie inside it."""
    out = 0
    for j, a in enumerate(ro._atom_masks):
        if a & ~u_mask == 0:
            out |= 1 << j
    return out


def element_of(ro, regular_open) -> int:
    """The algebra element of a regular open set of conditions."""
    u_mask = mask_of(ro.poset, regular_open)
    if regularize_mask(ro.poset, u_mask) != u_mask:
        raise BoolkitError("set is not regular open")
    return element_of_mask(ro, u_mask)


def set_of_element(ro, x) -> frozenset:
    """The regular open set of conditions of an algebra element."""
    mask = 0
    for j, a in enumerate(ro._atom_masks):
        if x >> j & 1:
            mask |= a
    return set_of(ro.poset, regularize_mask(ro.poset, mask))


def filter_from_members(algebra, members) -> Filter:
    """The filter with exactly these members; raises unless they form one."""
    ms = frozenset(members)
    if not ms:
        raise BoolkitError("a filter is nonempty")
    if 0 in ms:
        raise BoolkitError("a filter excludes 0")
    g = algebra.meet_all(ms)
    if g == 0:
        raise BoolkitError("member set is not closed under meet without hitting 0")
    if ms != frozenset(x for x in algebra.elements() if algebra.leq(g, x)):
        raise BoolkitError("member set is not upward closed / meet closed")
    return Filter(algebra, g)


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


def reference_model_json(prop):
    """JSON of the model of a consistency property with both halves of an
    atom's value: the regularization of the members compatible with the
    atom, those that hold it and those to which it can be added without
    leaving the family."""
    members = prop.members
    family = set(members)
    poset = poset_of_sets(members)
    ro = ro_completion(poset)
    consts = sorted(prop.sig.constants)

    def value(atom):
        compatible = sum(1 << k for k, s in enumerate(members) if atom in s or s | {atom} in family)
        return element_of_mask(ro, regularize_mask(poset, compatible))

    eq = {
        (a, b): ro.algebra.one if a == b else value(Eq(*sorted((a, b))))
        for a in consts
        for b in consts
    }
    rel = {
        name: {combo: value(Atom(name, combo)) for combo in itertools.product(consts, repeat=arity)}
        for name, arity in prop.sig.relations.items()
    }
    model = BValuedModel(ro.algebra, tuple(consts), eq, rel, {c: c for c in consts})
    return bvmodel.model_to_json(model)


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
                    [syntax.substitute(f, {e.right: e.left})],
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
            return None if self.value(f) is not None else _atom_key(f)
        for child in (f.body,) if isinstance(f, Not) else f.children:
            found = self.first_undecided_atom(child)
            if found is not None:
                return found
        return None

    def forced(self, f, sign=True):
        """The literal an undecided formula forces when it is to take the
        truth value ``sign``, as (path key, value), or None: an atom forces
        itself, a conjunction the first of its undecided children that
        forces one, and a disjunction whose children are all false but one
        what that one forces (with ``sign`` False, the two swap roles)."""
        if isinstance(f, Not):
            return self.forced(f.body, not sign)
        if self.value(f) is not None:
            return None
        if isinstance(f, (Eq, Atom)):
            return _atom_key(f), sign
        if isinstance(f, And) == sign:
            return next(filter(None, (self.forced(c, sign) for c in f.children)), None)
        # a child is false for this sign when its value is the opposite one
        open_children = [c for c in f.children if self.value(c) is not (not sign)]
        return self.forced(open_children[0], sign) if len(open_children) == 1 else None


def _atom_key(f):
    if isinstance(f, Eq):
        return ("eq", *sorted((f.left, f.right)))
    return ("rel", f.rel, f.args)


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
    closure at each node.  A node branches on the literal forced by the
    first undecided sentence that forces one, forced value first; its other
    side is one leaf, closed by a clash when the path clashes there and by
    the forcing sentence otherwise.  With no forced literal it branches on
    the first undecided atom of the first undecided sentence, True first.
    Returns (status, nodes, assignment or None, certificate or None), with
    the oracle's certificate format."""
    nodes = 0

    class Exhausted(Exception):
        pass

    def count():
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise Exhausted

    def leaf(closure):
        kind, detail = closure.conflict
        return {"conflict": {"kind": kind, "detail": repr(detail)}}

    def search(assignment):
        count()
        closure = _ReferenceClosure(constants, assignment)
        if closure.conflict is not None:
            return None, leaf(closure)
        branch_atom = unit = None
        for i, f in enumerate(sentences):
            v = closure.value(f)
            if v is False:
                return None, {"conflict": {"kind": "sentence", "index": i}}
            if v is None and branch_atom is None:
                branch_atom = closure.first_undecided_atom(f)
            if v is None and unit is None:
                found = closure.forced(f)
                unit = None if found is None else (i, *found)
        if branch_atom is None:
            return dict(assignment), None
        values = (True, False)
        if unit is not None:
            index, branch_atom, forced = unit
            values = (forced,)
        cert = {"atom": list(branch_atom)}
        for value in values:
            assignment[branch_atom] = value
            model, sub = search(assignment)
            del assignment[branch_atom]
            if model is not None:
                return model, None
            cert["true" if value else "false"] = sub
        if unit is not None:
            count()
            assignment[branch_atom] = not forced
            refuted = _ReferenceClosure(constants, assignment)
            del assignment[branch_atom]
            cert["false" if forced else "true"] = (
                leaf(refuted) if refuted.conflict is not None else _sentence_leaf(index)
            )
        return None, cert

    try:
        assignment, certificate = search({})
    except Exhausted:
        return "Unknown", nodes, None, None
    status = "Consistent" if assignment is not None else "Inconsistent"
    return status, nodes, assignment, certificate


def _sentence_leaf(index):
    return {"conflict": {"kind": "sentence", "index": index}}


def _condition_order(s):
    return len(s), sorted(map(syntax.render, s))


def reference_is_dense(d, p, strict=False):
    """Density by comparing every condition with every member of the set;
    returns (ok, least uncovered condition or None)."""
    dset = [frozenset(syntax.canon(f) for f in s) for s in d]

    def uncovered(s):
        return not any((s < t) if strict else (s <= t) for t in dset)

    missed = sorted(filter(uncovered, p.conditions), key=_condition_order)
    return (False, missed[0]) if missed else (True, None)


def reference_generic_filter(p, dense=()):
    """The chain through the dense sets, then saturation that restarts from
    the least condition after every step; returns (members, maximal), or
    raises ValueError where a set is not dense or the chain breaks."""
    dense = [[frozenset(syntax.canon(f) for f in s) for s in d] for d in dense]
    if not all(reference_is_dense(d, p)[0] for d in dense):
        raise ValueError("not dense")
    current = frozenset()
    for d in dense:
        candidates = sorted((t for t in d if current <= t), key=_condition_order)
        if not candidates:
            raise ValueError("chain broken")
        current = candidates[0]
    grown = True
    while grown:
        grown = False
        for t in sorted(p.conditions, key=_condition_order):
            if current < t:
                current, grown = t, True
                break
    members = frozenset(s for s in p.conditions if s <= current)
    return members, not any(current < t for t in p.conditions)


# the forcing layer on frozensets, before its conditions became masks: the
# maximal conditions, the condition order, density through the maximal
# conditions, the canonical dense sets and the one-pass generic filter


def reference_maximal(p):
    """The conditions with no proper extension, found largest first."""
    found = []
    for s in sorted(p.conditions, key=len, reverse=True):
        if not any(s < t for t in found):
            found.append(s)
    return frozenset(found)


def reference_ordered(p):
    """The conditions by size, then by their sorted renderings."""
    return tuple(sorted(p.conditions, key=_condition_order))


def reference_density(d, p, strict=False):
    """Density of a list of canonical conditions: every maximal condition in
    the list, or for the strict flag an empty poset; returns (ok, the least
    uncovered condition or None)."""
    for s in d:
        if s not in p.conditions:
            raise BoolkitError("dense-set entry is not a condition")
    if (not p.conditions) if strict else reference_maximal(p) <= set(d):
        return True, None

    def uncovered(s):
        return not any((s < t) if strict else (s <= t) for t in d)

    return False, next(filter(uncovered, reference_ordered(p)))


def reference_decision_set(p, atom):
    """The conditions deciding the atom, in frozenset order."""
    atom = syntax.canon(atom)
    return [s for s in p.conditions if atom in s or Not(atom) in s]


def reference_commitment_set(p, disjunction):
    """The conditions holding a disjunct, in frozenset order."""
    children = {syntax.canon(c) for c in disjunction.children}
    return [s for s in p.conditions if s & children]


def reference_one_pass_filter(p, dense=()):
    """The chain through the dense sets of canonical conditions, each step
    the least candidate in condition order, then one saturation pass in that
    order; returns (members, maximal), or raises ``BoolkitError`` where a
    set is not dense or the chain breaks."""
    for i, d in enumerate(dense):
        if not reference_density(d, p)[0]:
            raise BoolkitError(f"supplied set {i} is not dense")
    current = frozenset()
    for d in dense:
        candidates = [t for t in d if current <= t]
        if not candidates:
            raise BoolkitError("density violated during chain construction")
        current = min(candidates, key=_condition_order)
    for t in reference_ordered(p):
        if current < t:
            current = t
    members = frozenset(s for s in p.conditions if s <= current)
    return members, not any(current < t for t in p.conditions)


def kept_subsets(universe, keep, max_size=None):
    """The stateless downward-closed walk that ``OracleSession.kept_subsets``
    replaced, as it was: yield the empty tuple, and depth first each kept
    subset, as a tuple in universe order.  After yielding a subset of fewer
    than ``max_size`` elements, ``keep`` is asked about its extensions by
    each later element in universe order."""
    stack = [((), 0)]
    while stack:
        subset, start = stack.pop()
        yield subset
        if max_size is not None and len(subset) >= max_size:
            continue
        for i in range(start, len(universe)):
            ext = subset + (universe[i],)
            if keep(ext):
                stack.append((ext, i + 1))


def reference_kept_subsets(
    session, universe, sig, head=(), tail=(), max_size=None, require_qe=False
):
    """``OracleSession.kept_subsets`` by the replaced walk: ``keep`` asks
    ``status`` about [*head, *ext, *tail] as a plain list, and an Unknown
    extension is yielded when asked, and not kept."""
    unknown = []

    def keep(ext):
        answer = session.status([*head, *ext, *tail], sig, require_qe=require_qe)
        if answer == compact.UNKNOWN:
            unknown.append(ext)
        return answer == compact.CONSISTENT

    for subset in kept_subsets(universe, keep, max_size):
        while unknown:
            yield unknown.pop(0), compact.UNKNOWN
        yield subset, compact.CONSISTENT
    while unknown:
        yield unknown.pop(0), compact.UNKNOWN


def reference_conservativity(psi1, psi0, sig, budget=compact.DEFAULT_BUDGET):
    """The conservativity walk with a fresh search for both sentences of
    every subset; returns the report's fields as a tuple."""
    def status(theory):
        return compact.consistency_oracle(theory, sig, budget).status

    if syntax.canon(psi1) == syntax.canon(psi0):
        return (True, True, 0, None, False, False)
    entail = status([psi1, Not(psi0)])
    if entail != compact.INCONSISTENT:
        return (False, False, 0, None, False, entail == compact.UNKNOWN)
    subs = sorted(syntax.subsentences(psi0, sig), key=syntax.render)
    max_size = len(subs) if budget.max_subset is None else min(budget.max_subset, len(subs))
    bounded = max_size < len(subs)
    checked = 0
    for size in range(max_size + 1):
        for combo in itertools.combinations(subs, size):
            checked += 1
            v0, v1 = status([psi0, *combo]), status([psi1, *combo])
            if compact.UNKNOWN in (v0, v1):
                return (False, True, checked, None, False, True)
            if v0 != v1:
                return (False, True, checked, frozenset(combo), bounded, False)
    return (True, True, checked, None, bounded, False)
