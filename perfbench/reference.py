"""Independent reference checker for the benchmark.

Formulas here are plain tuples, never boolkit objects:

    ("eq", a, b)            equality of two terms
    ("rel", name, (t...))   relation atom
    ("not", f)
    ("and", (f...)), ("or", (f...))
    ("forall", (v...), f), ("exists", (v...), f)

Terms are strings; a term starting with "?" is a variable.  Nothing in this
module imports boolkit: models produced by the program are read through their
public data fields (algebra.atom_count, domain, eq, rel, consts) only, and
satisfiability is decided by brute force over equality partitions.
"""
from __future__ import annotations

import itertools


def is_var(t):
    return t.startswith("?")


# ---------------------------------------------------------------------------
# syntax


def render(f):
    """S-expression text in boolkit's input grammar."""
    op = f[0]
    if op == "eq":
        return f"(= {f[1]} {f[2]})"
    if op == "rel":
        return "(" + " ".join((f[1],) + tuple(f[2])) + ")"
    if op == "not":
        return f"(not {render(f[1])})"
    if op in ("and", "or"):
        return "(" + op + "".join(" " + render(c) for c in f[1]) + ")"
    return f"({op} ({' '.join(f[1])}) {render(f[2])})"


def canon(f):
    """Children of and/or sorted by their rendering, as boolkit orders them."""
    op = f[0]
    if op == "not":
        return ("not", canon(f[1]))
    if op in ("and", "or"):
        return (op, tuple(sorted((canon(c) for c in f[1]), key=render)))
    if op in ("forall", "exists"):
        return (op, f[1], canon(f[2]))
    return f


def map_constants(f, fn):
    """Apply fn to every constant; variables are left alone."""
    op = f[0]

    def term(t):
        return t if is_var(t) else fn(t)

    if op == "eq":
        return ("eq", term(f[1]), term(f[2]))
    if op == "rel":
        return ("rel", f[1], tuple(term(t) for t in f[2]))
    if op == "not":
        return ("not", map_constants(f[1], fn))
    if op in ("and", "or"):
        return (op, tuple(map_constants(c, fn) for c in f[1]))
    return (op, f[1], map_constants(f[2], fn))


def rename(f, prefix):
    return map_constants(f, lambda t: prefix + t)


def subformulas(f):
    yield f
    if f[0] == "not":
        yield from subformulas(f[1])
    elif f[0] in ("and", "or"):
        for c in f[1]:
            yield from subformulas(c)
    elif f[0] in ("forall", "exists"):
        yield from subformulas(f[2])


def constants_of(f):
    out = set()
    for g in subformulas(f):
        if g[0] == "eq":
            out.update(t for t in g[1:] if not is_var(t))
        elif g[0] == "rel":
            out.update(t for t in g[2] if not is_var(t))
    return out


# ---------------------------------------------------------------------------
# classical two-valued evaluation


def holds(f, rep, eq, rel, domain, env=None):
    """Truth of f where constants denote rep[c], eq(x, y) and rel(name, xs)
    give the atomic facts, and quantifiers range over domain."""
    env = env or {}

    def term(t):
        return env[t] if is_var(t) else rep[t]

    op = f[0]
    if op == "eq":
        return eq(term(f[1]), term(f[2]))
    if op == "rel":
        return rel(f[1], tuple(term(t) for t in f[2]))
    if op == "not":
        return not holds(f[1], rep, eq, rel, domain, env)
    if op == "and":
        return all(holds(c, rep, eq, rel, domain, env) for c in f[1])
    if op == "or":
        return any(holds(c, rep, eq, rel, domain, env) for c in f[1])
    results = (
        holds(f[2], rep, eq, rel, domain, {**env, **dict(zip(f[1], combo))})
        for combo in itertools.product(domain, repeat=len(f[1]))
    )
    return all(results) if op == "forall" else any(results)


def atom_value(model, f, env=None):
    """Boolean value of f in a B-valued model as an atom bitmask.

    The operations of a finite powerset algebra act bit by bit, so bit i of
    the value is the classical truth of f in the structure read at atom i.
    """
    value = 0
    for i in range(model.algebra.atom_count):
        bit = 1 << i
        if holds(
            f,
            model.consts,
            lambda x, y: bool(model.eq[(x, y)] & bit),
            lambda name, xs: bool(model.rel[name][xs] & bit),
            model.domain,
            env,
        ):
            value |= bit
    return value


def model_problem(model):
    """None when every atom's structure is a congruence: equality is an
    equivalence relation respected by every relation, tables are total and
    constants land in the domain.  Otherwise a description of the first fault."""
    dom = tuple(model.domain)
    k = model.algebra.atom_count
    one = (1 << k) - 1
    if not dom:
        return "empty domain"
    for c, x in model.consts.items():
        if x not in model.domain:
            return f"constant {c} outside the domain"
    for x, y in itertools.product(dom, repeat=2):
        v = model.eq.get((x, y))
        if not isinstance(v, int) or v & ~one or v < 0:
            return f"equality table entry {(x, y)!r}"
    for name, table in model.rel.items():
        arity = len(next(iter(table))) if table else 0
        for xs in itertools.product(dom, repeat=arity):
            v = table.get(xs)
            if not isinstance(v, int) or v & ~one or v < 0:
                return f"relation {name} entry {xs!r}"
    for i in range(k):
        bit = 1 << i

        def same(x, y):
            return bool(model.eq[(x, y)] & bit)

        for x in dom:
            if not same(x, x):
                return f"atom {i}: equality not reflexive at {x!r}"
        for x, y in itertools.product(dom, repeat=2):
            if same(x, y) != same(y, x):
                return f"atom {i}: equality not symmetric"
        for x, y, z in itertools.product(dom, repeat=3):
            if same(x, y) and same(y, z) and not same(x, z):
                return f"atom {i}: equality not transitive"
        for name, table in model.rel.items():
            arity = len(next(iter(table))) if table else 0
            for xs in itertools.product(dom, repeat=arity):
                if not table[xs] & bit:
                    continue
                for ys in itertools.product(dom, repeat=arity):
                    if all(same(x, y) for x, y in zip(xs, ys)) and not table[ys] & bit:
                        return f"atom {i}: {name} does not respect equality"
    return None


def model_satisfies(model, sentences):
    """Every sentence has value one in the model (constants as given)."""
    one = (1 << model.algebra.atom_count) - 1
    return all(atom_value(model, f) == one for f in sentences)


# ---------------------------------------------------------------------------
# brute-force ground satisfiability over equality partitions


def ground_holds(f, block, true_atoms):
    op = f[0]
    if op == "eq":
        return block[f[1]] == block[f[2]]
    if op == "rel":
        return (f[1], tuple(block[t] for t in f[2])) in true_atoms
    if op == "not":
        return not ground_holds(f[1], block, true_atoms)
    if op == "and":
        return all(ground_holds(c, block, true_atoms) for c in f[1])
    if op == "or":
        return any(ground_holds(c, block, true_atoms) for c in f[1])
    raise ValueError(f"not a ground sentence: {render(f)}")


def _has_relation(f):
    return any(g[0] == "rel" for g in subformulas(f))


def structures(sentences, constants, relations=None):
    """Every structure generated by the constants in which all the ground
    sentences hold, as (block, true_atoms): block maps each constant to the
    index of its equality class, true_atoms is the set of (relation, class
    tuple) pairs that hold.  Relation atoms range over the given relations
    (name -> arity), or over those the sentences mention when None.

    Partitions are grown one constant at a time in sorted order; a sentence
    without relation atoms is evaluated as soon as its constants are placed,
    so a refuted partial partition is not extended.
    """
    consts = sorted(constants)
    sentences = list(sentences)
    rel_atoms = [g for f in sentences for g in subformulas(f) if g[0] == "rel"]
    pos = {c: i for i, c in enumerate(consts)}
    eq_only, with_rel = [], []
    for f in sentences:
        last = max((pos[c] for c in constants_of(f)), default=-1)
        (with_rel if _has_relation(f) else eq_only).append((last, f))
    due = [[f for last, f in eq_only if last == i] for i in range(len(consts))]
    if any(not ground_holds(f, {}, set()) for last, f in eq_only if last < 0):
        return
    rel_sentences = [f for _, f in with_rel]
    block = {}

    def grow(i, classes):
        if i == len(consts):
            if relations is None:
                keys = sorted({(g[1], tuple(block[t] for t in g[2])) for g in rel_atoms})
            else:
                keys = [
                    (name, combo)
                    for name, arity in sorted(relations.items())
                    for combo in itertools.product(range(classes), repeat=arity)
                ]
            for bits in range(1 << len(keys)):
                true_atoms = {keys[j] for j in range(len(keys)) if bits >> j & 1}
                if all(ground_holds(f, block, true_atoms) for f in rel_sentences):
                    yield dict(block), true_atoms
            return
        c = consts[i]
        for b in range(classes + 1):
            block[c] = b
            if all(ground_holds(f, block, set()) for f in due[i]):
                yield from grow(i + 1, max(classes, b + 1))
        del block[c]

    yield from grow(0, 0)


def satisfiable(sentences, constants):
    """Brute-force ground satisfiability; constants must cover the sentences."""
    for _ in structures(sentences, constants):
        return True
    return False
