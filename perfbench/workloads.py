"""The four benchmark workloads: their inputs, the verdict each input asks the
program for, and the check of that verdict against the reference.

Inputs are generated here as reference tuples (see reference.py) from the
benchmark seed.  Before every verdict the constants are renamed with a prefix
that is unique to the verdict and shared by all its constants, so sort order
inside the verdict is kept while no oracle query can be answered from cache
entries left by an earlier verdict or pass.  The program receives only
boolkit objects built from the renamed inputs.

Every workload exposes the same four functions, collected in WORKLOADS:

    inputs(rng)               -> list of items (setup; reference tuples only)
    prepare(bk, item, prefix) -> arguments of one verdict (outside the timing)
    verdict(bk, args)         -> the program's output (timed)
    check(bk, key, item, args, out, memo) -> (decided, problem)

``problem`` is None when the verdict agrees with the reference; ``decided``
is False when the program answered Unknown within its budget.  ``memo``
caches reference results across passes under ``key``, the item's index.
"""
from __future__ import annotations

import itertools
from types import SimpleNamespace

import reference as ref

# ---------------------------------------------------------------------------
# conversion between reference tuples and boolkit objects


def to_formula(bk, f):
    s = bk.syntax
    op = f[0]
    if op == "eq":
        return s.Eq(f[1], f[2])
    if op == "rel":
        return s.Atom(f[1], f[2])
    if op == "not":
        return s.Not(to_formula(bk, f[1]))
    if op == "and":
        return s.And(tuple(to_formula(bk, c) for c in f[1]))
    if op == "or":
        return s.Or(tuple(to_formula(bk, c) for c in f[1]))
    cls = s.Forall if op == "forall" else s.Exists
    return cls(f[1], to_formula(bk, f[2]))


def to_tuple(bk, f):
    """Read a boolkit formula back through its public node fields."""
    s = bk.syntax
    if isinstance(f, s.Eq):
        return ("eq", f.left, f.right)
    if isinstance(f, s.Atom):
        return ("rel", f.rel, tuple(f.args))
    if isinstance(f, s.Not):
        return ("not", to_tuple(bk, f.body))
    if isinstance(f, (s.And, s.Or)):
        op = "and" if isinstance(f, s.And) else "or"
        return (op, tuple(to_tuple(bk, c) for c in f.children))
    op = "forall" if isinstance(f, s.Forall) else "exists"
    return (op, tuple(f.vars), to_tuple(bk, f.body))


def signature(bk, spec, prefix):
    relations, base, fresh = spec
    return bk.syntax.Signature(
        relations=dict(relations),
        base_constants={prefix + c for c in base},
        fresh_constants={prefix + c for c in fresh},
    )


def all_constants(spec):
    return set(spec[1]) | set(spec[2])


def renamed(sentences, prefix):
    return [ref.rename(f, prefix) for f in sentences]


def eq(a, b):
    return ("eq", a, b)


def rel(name, *args):
    return ("rel", name, args)


def neg(f):
    return ("not", f)


def random_ground(rng, consts, relations, depth):
    """A random ground sentence over the constants and relations."""
    if depth == 0 or rng.random() < 0.3:
        name = rng.choice(sorted(relations) + ["="] * 2)
        if name == "=":
            a, b = rng.sample(consts, 2)
            return eq(a, b)
        return rel(name, *(rng.choice(consts) for _ in range(relations[name])))
    op = rng.choice(["not", "and", "or", "or"])
    if op == "not":
        return neg(random_ground(rng, consts, relations, depth - 1))
    children = tuple(random_ground(rng, consts, relations, depth - 1) for _ in range(rng.randint(2, 3)))
    return (op, children)


# ---------------------------------------------------------------------------
# oracle: single consistency_oracle calls

PHP_CAPPED_NODES = 5_000


def php(n):
    """Equality pigeonhole: n+1 pairwise distinct pigeons, each equal to one
    of n holes.  Inconsistent for every n."""
    pigeons = [f"p{i}" for i in range(n + 1)]
    holes = [f"h{j}" for j in range(n)]
    sentences = [("or", tuple(eq(p, h) for h in holes)) for p in pigeons]
    sentences += [neg(eq(a, b)) for a, b in itertools.combinations(pigeons, 2)]
    return sentences, ((), tuple(pigeons + holes), ())


def faicom(n):
    """The failure-of-compactness family at truncation n: c_i differs from
    c_n for each i below n, yet c_n equals one of them."""
    top = f"c{n}"
    sentences = [neg(eq(f"c{i}", top)) for i in range(n)]
    sentences.append(("or", tuple(eq(top, f"c{i}") for i in range(n))))
    return sentences, ((), tuple(f"c{i}" for i in range(n + 1)), ("e0", "e1"))


ORACLE_RANDOM_SETS = 300


def oracle_inputs(rng):
    items = []
    for n in range(3, 7):
        sentences, spec = php(n)
        items.append((sentences, spec, None))
    sentences, spec = php(7)
    items.append((sentences, spec, PHP_CAPPED_NODES))
    for n in range(2, 7):
        sentences, spec = faicom(n)
        items.append((sentences, spec, None))
        for i in range(len(sentences)):
            items.append((sentences[:i] + sentences[i + 1 :], spec, None))
    relations = {"R": 1, "S": 2}
    consts = ["a", "b", "c", "d"]
    spec = ((("R", 1), ("S", 2)), tuple(consts), ())
    for _ in range(ORACLE_RANDOM_SETS):
        size = rng.randint(2, 4)
        sentences = [random_ground(rng, consts, relations, rng.randint(1, 3)) for _ in range(size)]
        items.append((sentences, spec, None))
    return items


def oracle_prepare(bk, item, prefix):
    sentences, spec, nodes = item
    budget = bk.compact.Budget() if nodes is None else bk.compact.Budget(oracle_nodes=nodes)
    theory = [to_formula(bk, f) for f in renamed(sentences, prefix)]
    return SimpleNamespace(theory=theory, sig=signature(bk, spec, prefix), budget=budget, prefix=prefix)


def oracle_verdict(bk, a):
    return bk.compact.consistency_oracle(a.theory, a.sig, a.budget)


def oracle_check(bk, key, item, a, v, memo):
    c = bk.compact
    if v.status == c.UNKNOWN:
        return False, None
    sentences, spec, _ = item
    if key not in memo:
        memo[key] = ref.satisfiable(sentences, all_constants(spec))
    expected = c.CONSISTENT if memo[key] else c.INCONSISTENT
    if v.status != expected:
        return True, f"status {v.status}, reference says {expected}"
    if v.status == c.CONSISTENT:
        problem = ref.model_problem(v.witness)
        if problem:
            return True, f"witness is not a congruence: {problem}"
        if not ref.model_satisfies(v.witness, renamed(sentences, a.prefix)):
            return True, "witness fails a sentence"
    elif not c.replay_certificate(v.certificate, a.theory, a.sig):
        return True, "certificate does not replay"
    return True, None


# ---------------------------------------------------------------------------
# compactness: the model-existence pipelines


def spread(cheap, groups):
    """The cheap items once before each group of slow items.

    One pass of the slow verdicts takes about as long as a run, so a cheap
    verdict would otherwise be sampled once, at one moment of the run.  Asked
    for once per group (each time under its own prefix), the cheap verdicts
    give the percentiles samples taken across the whole pass.
    """
    return [item for group in groups for item in cheap + group]


def compactness_inputs(rng):
    slow, items = [], []
    # first_order_compactness_demo over finitely consistent ground theories
    for k in (3, 4, 6):
        spec = ((), tuple(f"c{i}" for i in range(k)), ("w",))
        items.append(("demo", [neg(eq("c0", "c1"))], spec))
        slow.append(("demo", [neg(eq("c0", "c1")), eq("c1", "c2")], spec))
    spec = ((("B", 2),), ("c0", "c1", "c2"), ("w",))
    b01, b10 = rel("B", "c0", "c1"), rel("B", "c1", "c0")
    items.append(("demo", [b01], spec))
    items.append(("demo", [b01, neg(b10)], spec))
    slow.append(("demo", [b01, neg(eq("c0", "c1")), eq("c1", "c2")], spec))
    items.append(("demo", [("or", (b01, b10))], spec))
    # compactness_run over finitely conservative families (conjunction closures)
    spec_r = ((("R", 1),), ("a", "b"), ("e0", "e1"))
    spec_q = ((("Q", 1),), (), ("a", "b"))
    spec_e = ((), ("a", "b", "c"), ("e0", "e1"))
    ra, rb = rel("R", "a"), rel("R", "b")
    qa, qb = rel("Q", "a"), rel("Q", "b")
    some_q = ("exists", ("?x",), rel("Q", "?x"))
    for spec, gens in [
        (spec_r, [ra]),
        (spec_r, [ra, rb]),
        (spec_r, [ra, neg(eq("a", "b"))]),
        (spec_r, [ra, neg(eq("a", "b")), ("or", (ra, rb))]),
        (spec_r, [ra, rb, ("or", (ra, rb)), neg(eq("a", "b"))]),
        (spec_q, [qa, some_q]),
        (spec_q, [qa, qb, some_q]),
        (spec_e, [eq("a", "b")]),
        (spec_e, [eq("a", "b"), neg(eq("a", "c"))]),
        (spec_r, [("and", (ra, rb)), ("or", (ra, rb))]),
    ]:
        items.append(("run", gens, spec))
    # saturate_theory + model_from_consprop
    cd = ((), (), ("c", "d"))
    p2 = ((("P", 1),), (), ("c0", "c1"))
    cde = ((), (), ("c", "d", "e"))
    p0, p1 = rel("P", "c0"), rel("P", "c1")
    some_p = ("exists", ("?x",), rel("P", "?x"))
    for spec, theory in [
        (cd, []),
        (cd, [eq("c", "d")]),
        (cd, [neg(eq("c", "d"))]),
        (cd, [("or", (eq("c", "d"),))]),
        (p2, []),
        (p2, [p0]),
        (p2, [neg(p0)]),
        (p2, [p0, neg(eq("c0", "c1"))]),
        (p2, [p0, p1]),
        (p2, [("or", (p0, p1))]),
        (p2, [some_p]),
        (p2, [("exists", ("?x",), neg(rel("P", "?x")))]),
        (p2, [("forall", ("?x",), rel("P", "?x"))]),
        (p2, [("and", (p0, neg(eq("c0", "c1"))))]),
        (p2, [("forall", ("?x",), ("or", (rel("P", "?x"),)))]),
        (p2, [eq("c0", "c1"), p0]),
        (cde, [neg(eq("c", "d"))]),
        (cde, [eq("c", "d"), neg(eq("c", "e"))]),
        (cd, [("or", (eq("c", "d"), neg(eq("c", "d"))))]),
        (p2, [neg(some_p)]),
    ]:
        items.append(("saturate", theory, spec))
    # the ~20 s theory runs in the middle of the pass
    return spread(items, [slow[:2], slow[3:], slow[2:3]])


def compactness_prepare(bk, item, prefix):
    kind, sentences, spec = item
    theory = [to_formula(bk, f) for f in renamed(sentences, prefix)]
    return SimpleNamespace(kind=kind, theory=theory, sig=signature(bk, spec, prefix), prefix=prefix)


def compactness_verdict(bk, a):
    c = bk.compact
    if a.kind == "demo":
        return c.first_order_compactness_demo(bk.syntax.Theory(a.theory), a.sig)
    if a.kind == "run":
        return c.compactness_run(c.conjunction_closure(a.theory), a.sig)
    prop = bk.consprop.saturate_theory(bk.syntax.Theory(a.theory), a.sig)
    model, _ = bk.consprop.model_from_consprop(prop)
    return prop, model


def compactness_check(bk, key, item, a, out, memo):
    kind, sentences, _ = item
    theory = renamed(sentences, a.prefix)
    if kind == "demo":
        model = out
        if model.algebra.atom_count != 1:
            return True, "demo model is not two-valued"
    elif kind == "run":
        model = out.model
        if not all(r.conservative for r in out.reports.values()):
            return True, "a member is reported not conservative"
    else:
        prop, model = out
    problem = ref.model_problem(model)
    if problem:
        return True, f"model is not a congruence: {problem}"
    if kind in ("demo", "run"):
        if not ref.model_satisfies(model, theory):
            return True, "model does not give every sentence value one"
        return True, None
    # model existence: the theory and every member hold together at some atom
    members = [[to_tuple(bk, f) for f in s] for s in prop.members]
    if not members:
        return True, "empty consistency property"
    for s in members + [theory]:
        if not any(
            ref.atom_value(model, ("and", tuple(s))) >> i & 1
            for i in range(model.algebra.atom_count)
        ):
            return True, "a member is realized at no atom"
    return True, None


# ---------------------------------------------------------------------------
# forcing: condition posets, generic filters and term models

# (target, (relations, constants, fresh)).  The targets are fixed: placing
# the constants by the seed changed one verdict's time 3.5-fold (0.94 s
# against 3.28 s for the 4-constant disjunction), so the metrics would follow
# the seed.  The seed reaches this workload through the renaming prefix only.
FORCING_TARGETS = [
    (("or", (eq("cw", "c0"), eq("cw", "c1"), eq("cw", "c2"))), ((), ("cw", "c0", "c1", "c2"), ())),
    (("or", (rel("P", "a"), neg(eq("b", "c")))), ((("P", 1),), ("a", "b", "c"), ())),
    (("and", (rel("P", "b"), neg(rel("P", "a")))), ((("P", 1),), ("a", "b", "c"), ())),
    (("or", (eq("cw", "c0"), eq("cw", "c1"))), ((), ("cw", "c0", "c1"), ())),
    (eq("cw", "c0"), ((), ("cw", "c0", "c1"), ())),
    (("or", (rel("P", "a"), rel("P", "b"))), ((("P", 1),), ("a", "b"), ())),
    (("and", (rel("P", "a"), neg(eq("a", "b")))), ((("P", 1),), ("a", "b"), ())),
    (neg(eq("a", "b")), ((), ("a", "b"), ("e",))),
]


def forcing_inputs(rng):
    return spread(FORCING_TARGETS[3:], [[target] for target in FORCING_TARGETS[:3]])


def forcing_universe(phi, spec):
    """The condition universe, independently: proper subformulas of the
    target plus every non-reflexive atom and its negation, canonical."""
    relations, consts = spec[0], all_constants(spec)
    out = {ref.canon(g) for g in ref.subformulas(phi)} - {ref.canon(phi)}
    for a, b in itertools.combinations(sorted(consts), 2):
        out |= {eq(a, b), neg(eq(a, b))}
    for name, arity in relations:
        for combo in itertools.product(sorted(consts), repeat=arity):
            out |= {rel(name, *combo), neg(rel(name, *combo))}
    return sorted(out, key=ref.render)


def forcing_conditions(phi, spec):
    """All subsets of the universe jointly consistent with the target, as
    frozensets of renderings: each universe sentence is the bitmask of the
    target's models it holds in, and a set is a condition when the meet of
    its masks is nonzero."""
    models = list(ref.structures([phi], all_constants(spec), dict(spec[0])))
    universe = forcing_universe(phi, spec)
    masks = []
    for f in universe:
        m = 0
        for i, (block, true_atoms) in enumerate(models):
            if ref.ground_holds(f, block, true_atoms):
                m |= 1 << i
        masks.append(m)
    out = set()
    stack = [((), 0, (1 << len(models)) - 1)]
    while stack:
        subset, start, mask = stack.pop()
        out.add(frozenset(ref.render(universe[i]) for i in subset))
        for j in range(start, len(universe)):
            if mask & masks[j]:
                stack.append((subset + (j,), j + 1, mask & masks[j]))
    return out


def forcing_prepare(bk, item, prefix):
    phi, spec = item
    size_bound = len(forcing_universe(phi, spec))
    return SimpleNamespace(
        phi=to_formula(bk, ref.rename(phi, prefix)),
        sig=signature(bk, spec, prefix),
        size_bound=size_bound,
        prefix=prefix,
    )


def forcing_verdict(bk, a):
    f, s, c = bk.forcing, bk.syntax, bk.compact
    p = f.build_sphi(a.phi, a.sig, size_bound=a.size_bound)
    consts = sorted(a.sig.constants)
    candidates = [f.dense_decision_set(p, s.Eq(x, y)) for x, y in itertools.combinations(consts, 2)]
    for name, arity in sorted(a.sig.relations.items()):
        for combo in itertools.product(consts, repeat=arity):
            candidates.append(f.dense_decision_set(p, s.Atom(name, combo)))
    if isinstance(a.phi, s.Or):
        candidates.append(f.dense_commitment_set(p, a.phi))
    dense = [d for d in candidates if f.is_dense(d, p).ok]
    sentence = f.genericity_sentence(a.phi, dense, p)
    consistent = c.consistency_oracle([sentence], a.sig)
    conservative = c.is_conservative_strengthening(sentence, s.canon(a.phi), a.sig)
    g = f.generic_filter(p, dense)
    return SimpleNamespace(
        poset=p, dense=dense, sentence=sentence, consistent=consistent,
        conservative=conservative, filter=g, model=f.term_model(g),
    )


def forcing_check(bk, key, item, a, out, memo):
    phi, spec = item
    c = bk.compact
    decided = (
        out.consistent.status != c.UNKNOWN
        and not out.conservative.unknown
        and not out.poset.excluded_unknown
    )
    if key not in memo:
        memo[key] = forcing_conditions(phi, spec)
    prefix = a.prefix
    got = {frozenset(_unprefixed(bk, f, prefix) for f in s) for s in out.poset.conditions}
    if got != memo[key]:
        return decided, f"{len(got)} conditions, reference has {len(memo[key])}"
    model = out.model
    problem = ref.model_problem(model)
    if problem:
        return decided, f"term model is not a congruence: {problem}"
    sigma = [to_tuple(bk, f) for f in out.filter.sigma()]
    target = ref.rename(phi, prefix)
    if not ref.model_satisfies(model, [target] + sigma):
        return decided, "term model fails the target or the filter's union"
    if not out.filter.maximal:
        return decided, "filter is not maximal"
    if not all(any(s in out.filter.members for s in d) for d in out.dense):
        return decided, "filter misses a dense set"
    # the term model satisfies the genericity sentence, so it is consistent
    if not ref.model_satisfies(model, [to_tuple(bk, out.sentence)]):
        return decided, "term model fails the genericity sentence"
    if out.consistent.status not in (c.CONSISTENT, c.UNKNOWN):
        return decided, f"genericity sentence judged {out.consistent.status}"
    # the genericity lemma: the sentence conservatively strengthens the target
    if not out.conservative.unknown and not out.conservative.conservative:
        return decided, "genericity sentence reported not conservative"
    return decided, None


def _unprefixed(bk, f, prefix):
    """Canonical rendering of a program formula with the verdict's prefix removed."""
    return ref.render(ref.canon(ref.map_constants(to_tuple(bk, f), lambda t: t[len(prefix):])))


# ---------------------------------------------------------------------------
# semantics: evaluation, normal forms, quotients and proofs


def random_formula(rng, consts, relations, depth, scope=()):
    terms = list(consts) + list(scope)
    if depth == 0 or rng.random() < 0.2:
        name = rng.choice(sorted(relations) + ["="])
        if name == "=":
            return eq(rng.choice(terms), rng.choice(terms))
        return rel(name, *(rng.choice(terms) for _ in range(relations[name])))
    op = rng.choice(["not", "and", "or", "forall", "exists"])
    if op == "not":
        return neg(random_formula(rng, consts, relations, depth - 1, scope))
    if op in ("and", "or"):
        n = rng.choice([1, 2, 2, 3])
        return (op, tuple(random_formula(rng, consts, relations, depth - 1, scope) for _ in range(n)))
    var = f"?v{len(scope)}"
    return (op, (var,), random_formula(rng, consts, relations, depth - 1, scope + (var,)))


def random_model(rng, consts, fresh, relations, max_atoms, max_domain):
    """A valid B-valued model as plain data: per atom, a partition of the
    domain; relations are unions of class tuples atom by atom; the fresh
    constants name every element, so the naming axiom has value one."""
    k = rng.randint(1, max_atoms)
    n = rng.randint(1, min(max_domain, len(fresh)))
    domain = tuple(f"m{i}" for i in range(n))
    labels = [[rng.randrange(n) for _ in range(n)] for _ in range(k)]
    eqt = {}
    for i, x in enumerate(domain):
        for j, y in enumerate(domain):
            eqt[(x, y)] = sum(1 << b for b in range(k) if labels[b][i] == labels[b][j])
    relt = {}
    for name, arity in sorted(relations.items()):
        chosen = [
            {combo for combo in itertools.product(range(n), repeat=arity) if rng.random() < 0.5}
            for _ in range(k)
        ]
        table = {}
        for xs in itertools.product(range(n), repeat=arity):
            table[tuple(domain[x] for x in xs)] = sum(
                1 << b for b in range(k) if tuple(labels[b][x] for x in xs) in chosen[b]
            )
        relt[name] = table
    order = list(domain)
    rng.shuffle(order)
    cmap = {c: order[i % n] for i, c in enumerate(sorted(fresh))}
    cmap.update({c: domain[rng.randrange(n)] for c in consts if c not in fresh})
    return k, domain, eqt, relt, cmap


SEM_REL = {"R": 1, "S": 2}
SEM_SPEC = ((("R", 1), ("S", 2)), ("d0", "d1"), ("e0", "e1", "e2"))


def _sequent(left, right):
    return {"left": [ref.render(f) for f in left], "right": [ref.render(f) for f in right]}


def _node(rule, left, right, premises=(), **data):
    return {"rule": rule, "conclusion": _sequent(left, right), "data": data, "premises": list(premises)}


def proof_corpus():
    """Valid proof documents over P/1, R/2 and constants a, b, k, one or
    more per rule of the calculus."""
    pa, pb, pk = rel("P", "a"), rel("P", "b"), rel("P", "k")
    rab, rbk = rel("R", "a", "b"), rel("R", "b", "k")
    px = rel("P", "?x")
    all_p = ("forall", ("?x",), px)
    some_p = ("exists", ("?x",), px)
    r = ref.render

    def ax(left, right):
        return _node("axiom", left, right)

    refl_a = _node("eq-axiom-1", [], [eq("a", "a")])
    refl_b = _node("eq-axiom-1", [], [eq("b", "b")])
    trans = _node("eq-axiom-3", [eq("a", "b"), eq("b", "k")], [eq("a", "k")])
    symm = _node("eq-axiom-2", [eq("a", "k")], [eq("k", "a")])
    conj = ("and", (pa, neg(pb)))
    both = ("and", (eq("a", "a"), eq("b", "b")))
    disj, swapped = ("or", (pa, pb)), ("or", (pb, pa))

    def into(start):
        return _node(
            "left-or", [start], [swapped],
            [_node("weakening", [start], [pb, pa], [ax([start], [start])])],
            formula=r(swapped),
        )

    forall_rename = _node(
        "right-forall", [all_p], [("forall", ("?y",), rel("P", "?y"))],
        [_node("left-forall", [all_p], [rel("P", "?y")],
               [ax([rel("P", "?y")], [rel("P", "?y")])], formula=r(all_p), terms=["?y"])],
        formula=r(("forall", ("?y",), rel("P", "?y"))),
    )
    exists_rename = _node(
        "left-exists", [some_p], [("exists", ("?y",), rel("P", "?y"))],
        [_node("right-exists", [px], [("exists", ("?y",), rel("P", "?y"))],
               [ax([px], [px])], formula=r(("exists", ("?y",), rel("P", "?y"))), terms=["?x"])],
        formula=r(some_p),
    )
    rxy = rel("R", "?x", "?y")
    return [
        refl_a,
        _node("eq-axiom-2", [eq("a", "b")], [eq("b", "a")]),
        trans,
        _node("eq-axiom-4", [eq("a", "b"), pb], [pa], formula=r(pb), pairs=[["a", "b"]]),
        _node("eq-axiom-4", [eq("a", "b"), eq("b", "k"), rbk], [rab],
              formula=r(rbk), pairs=[["a", "b"], ["b", "k"]]),
        ax([pa, eq("a", "b")], [pa, pk]),
        _node("cut", [eq("a", "b"), eq("b", "k")], [eq("k", "a")], [symm, trans], formula=r(eq("a", "k"))),
        _node("weakening", [pk], [eq("a", "a"), pb], [refl_a]),
        _node("left-and", [conj], [pa], [ax([pa, neg(pb)], [pa])], formula=r(conj)),
        _node("right-and", [], [both], [refl_a, refl_b], formula=r(both)),
        _node("right-or", [disj], [swapped], [into(pa), into(pb)], formula=r(disj)),
        _node("left-forall", [all_p], [pk], [ax([pk], [pk])], formula=r(all_p), terms=["k"]),
        forall_rename,
        exists_rename,
        _node("right-exists", [pb], [some_p], [ax([pb], [pb])], formula=r(some_p), terms=["b"]),
        _node("substitution", [rel("R", "a", "?z")], [rel("R", "a", "?z")], [ax([rxy], [rxy])],
              mapping={"?x": "a", "?y": "?z"}),
        _node("left-forall", [("forall", ("?x", "?y"), rxy)], [rab], [ax([rab], [rab])],
              formula=r(("forall", ("?x", "?y"), rxy)), terms=["a", "b"]),
    ]


PROOF_SPEC = ((("P", 1), ("R", 2)), ("a", "b", "k"), ())


def _parse(text):
    """Reference-side reader for the corpus's own S-expressions."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def go():
        nonlocal pos
        pos += 1  # "("
        head = tokens[pos]
        pos += 1
        if head in ("and", "or"):
            kids = []
            while tokens[pos] != ")":
                kids.append(go())
            pos += 1
            return (head, tuple(kids))
        if head == "not":
            body = go()
            pos += 1
            return ("not", body)
        if head in ("forall", "exists"):
            pos += 1
            vs = []
            while tokens[pos] != ")":
                vs.append(tokens[pos])
                pos += 1
            pos += 1
            body = go()
            pos += 1
            return (head, tuple(vs), body)
        args = []
        while tokens[pos] != ")":
            args.append(tokens[pos])
            pos += 1
        pos += 1
        return ("eq", args[0], args[1]) if head == "=" else ("rel", head, tuple(args))

    return go()


def sequent_countermodel(doc, spec):
    """A two-valued structure generated by the constants that makes every
    left formula of the document's conclusion true and every right formula
    false, or None.  Free variables range over the domain; only relations the
    sequent mentions are varied."""
    left = [_parse(t) for t in doc["conclusion"]["left"]]
    right = [_parse(t) for t in doc["conclusion"]["right"]]
    _, consts, _ = spec
    nodes = [g for f in left + right for g in ref.subformulas(f)]
    arity = {g[1]: len(g[2]) for g in nodes if g[0] == "rel"}
    free = sorted({t for g in nodes if g[0] in ("eq", "rel")
                   for t in (g[1:] if g[0] == "eq" else g[2]) if ref.is_var(t)})
    for block, _ in ref.structures([], consts, {}):
        domain = tuple(range(max(block.values()) + 1))
        keys = [(n, xs) for n, ar in sorted(arity.items()) for xs in itertools.product(domain, repeat=ar)]
        for bits in range(1 << len(keys)):
            true = {keys[j] for j in range(len(keys)) if bits >> j & 1}
            for combo in itertools.product(domain, repeat=len(free)):
                args = (block, lambda x, y: x == y, lambda n, xs: (n, xs) in true, domain, dict(zip(free, combo)))
                if all(ref.holds(f, *args) for f in left) and not any(ref.holds(f, *args) for f in right):
                    return block, true, args[-1]
    return None


def _rename_doc(doc, prefix):
    """Prefix the constants of a proof document (S-expression texts, terms,
    pairs and mappings)."""
    def text(t):
        return ref.render(ref.rename(_parse(t), prefix))

    def term(t):
        return t if ref.is_var(t) else prefix + t

    data = {}
    for key, value in doc["data"].items():
        if key == "formula":
            data[key] = text(value)
        elif key == "terms":
            data[key] = [term(t) for t in value]
        elif key == "pairs":
            data[key] = [[term(u), term(t)] for u, t in value]
        elif key == "mapping":
            data[key] = {v: term(t) for v, t in value.items()}
    return {
        "rule": doc["rule"],
        "conclusion": {side: [text(t) for t in doc["conclusion"][side]] for side in ("left", "right")},
        "data": data,
        "premises": [_rename_doc(p, prefix) for p in doc["premises"]],
    }


def proof_mutants(corpus):
    """Corrupted documents that every sound checker must reject: the root
    relabelled as a premise-less cut, or the conclusion's right side replaced
    by a sentence the reference falsifies together with the left side."""
    out = []
    for doc in corpus:
        out.append(dict(doc, rule="cut", premises=[]))
        bad = dict(doc, conclusion={"left": doc["conclusion"]["left"], "right": ["(= a k)"]})
        if sequent_countermodel(bad, PROOF_SPEC) is not None:
            out.append(bad)
    return out


SEM_EVAL_ITEMS = 400
SEM_SENTENCES_PER_MODEL = 4
SEM_QUOTIENT_ITEMS = 60
PROBE_TRIALS = 40


def semantics_inputs(rng):
    _, consts, fresh = SEM_SPEC
    every = consts + fresh
    items = []
    for _ in range(SEM_EVAL_ITEMS):
        model = random_model(rng, every, fresh, SEM_REL, max_atoms=3, max_domain=3)
        fs = [random_formula(rng, every, SEM_REL, rng.randint(1, 4)) for _ in range(SEM_SENTENCES_PER_MODEL)]
        items.append(("eval", fs, model))
    for _ in range(SEM_QUOTIENT_ITEMS):
        model = random_model(rng, every, fresh, {"R": 1}, max_atoms=2, max_domain=3)
        fs = [random_formula(rng, every, {"R": 1}, rng.randint(1, 3)) for _ in range(3)]
        items.append(("quotient", fs, model))
    corpus = proof_corpus()
    for doc in corpus:
        items.append(("proof", doc, rng.randrange(1 << 30)))
    for doc in proof_mutants(corpus):
        items.append(("mutant", doc, None))
    return items


def _build_model(bk, model, prefix):
    k, domain, eqt, relt, cmap = model
    return bk.bvmodel.BValuedModel(
        bk.balg.FiniteBooleanAlgebra(k), domain, dict(eqt),
        {n: dict(t) for n, t in relt.items()}, {prefix + c: x for c, x in cmap.items()},
    )


def semantics_prepare(bk, item, prefix):
    kind, payload, extra = item
    if kind in ("proof", "mutant"):
        sig = signature(bk, PROOF_SPEC, prefix)
        return SimpleNamespace(kind=kind, doc=_rename_doc(payload, prefix), sig=sig, seed=extra, prefix=prefix)
    spec = SEM_SPEC if kind == "eval" else ((("R", 1),),) + SEM_SPEC[1:]
    texts = [ref.render(ref.rename(f, prefix)) for f in payload]
    return SimpleNamespace(
        kind=kind, texts=texts, sig=signature(bk, spec, prefix),
        model=_build_model(bk, extra, prefix), prefix=prefix,
    )


def semantics_verdict(bk, a):
    s, m = bk.syntax, bk.bvmodel
    if a.kind in ("proof", "mutant"):
        tree = bk.proofs.proof_from_json(a.doc, a.sig)
        verdict = bk.proofs.check_proof(tree)
        probe = bk.proofs.soundness_probe(tree, trials=PROBE_TRIALS, seed=a.seed) if verdict.ok else None
        return verdict, probe
    fs = [s.parse(t, a.sig) for t in a.texts]
    if a.kind == "eval":
        values = [
            (m.eval_formula(a.model, f), m.eval_formula(a.model, s.nnf(f)),
             m.eval_formula(a.model, s.qe_transform(f, a.sig)))
            for f in fs
        ]
        return values, m.validate_model(a.model).ok
    completed = m.mixing_completion(a.model)
    quotients = [(u.generator, m.quotient_model(completed, u)) for u in bk.balg.ultrafilters(completed.algebra)]
    values = [[m.eval_formula(q, f) for f in fs] for _, q in quotients]
    return completed, quotients, values


def semantics_check(bk, key, item, a, out, memo):
    kind, payload, _ = item
    if kind == "proof":
        verdict, probe = out
        if not verdict.ok:
            return True, f"valid proof rejected: {verdict.reason}"
        if not probe.ok or probe.trials != PROBE_TRIALS:
            return True, "soundness probe failed on a valid proof"
        if key not in memo:
            memo[key] = sequent_countermodel(payload, PROOF_SPEC)
        if memo[key] is not None:
            return True, "reference falsifies the conclusion of an accepted proof"
        return True, None
    if kind == "mutant":
        verdict, _ = out
        return True, None if not verdict.ok else "corrupted proof accepted"
    model = a.model
    if kind == "eval":
        # the model is rebuilt from the same data every pass, so the
        # reference value and validity are computed once
        if key not in memo:
            memo[key] = (
                [ref.atom_value(model, ref.rename(f, a.prefix)) for f in payload],
                ref.model_problem(model) is None,
            )
        want, want_valid = memo[key]
        values, valid = out
        for (value, value_nnf, value_qe), w in zip(values, want):
            if (value, value_nnf, value_qe) != (w, w, w):
                return True, f"values {value}, {value_nnf}, {value_qe}; reference {w}"
        if valid != want_valid:
            return True, "validate_model disagrees with the reference"
        return True, None
    completed, quotients, values = out
    problem = ref.model_problem(completed)
    if problem:
        return True, f"mixing completion is not a congruence: {problem}"
    fs = [ref.rename(f, a.prefix) for f in payload]
    full = [ref.atom_value(completed, f) for f in fs]
    for f, v in zip(fs, full):
        if all(g[0] not in ("forall", "exists") for g in ref.subformulas(f)) and v != ref.atom_value(model, f):
            return True, "mixing completion changes a quantifier-free value"
    if len(quotients) != completed.algebra.atom_count:
        return True, "one quotient per atom expected"
    for (gen, q), vals in zip(quotients, values):
        if q.algebra.atom_count != 1 or ref.model_problem(q):
            return True, "quotient by an ultrafilter is not a Tarski model"
        for f, v, got in zip(fs, full, vals):
            truth = ref.atom_value(q, f) == 1
            if truth != bool(v & gen) or got != ref.atom_value(q, f):
                return True, "quotient disagrees with the value in the ultrafilter"
    return True, None


WORKLOADS = {
    "oracle": (oracle_inputs, oracle_prepare, oracle_verdict, oracle_check),
    "compactness": (compactness_inputs, compactness_prepare, compactness_verdict, compactness_check),
    "forcing": (forcing_inputs, forcing_prepare, forcing_verdict, forcing_check),
    "semantics": (semantics_inputs, semantics_prepare, semantics_verdict, semantics_check),
}
