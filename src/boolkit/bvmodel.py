"""B-valued structures: construction-time congruence validation, the Boolean
evaluation map, filter quotients, mixing/fullness checks, mixing completion,
and a seeded generator of valid random models."""
from __future__ import annotations

import itertools
import random
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Optional

from . import syntax
from .balg import Filter, FiniteBooleanAlgebra, quotient_algebra
from .errors import BoolkitError, ParseError, ResourceBudgetError
from .syntax import And, Atom, Eq, Exists, Forall, Formula, Not, Or, Signature

DEFAULT_EVAL_CAP = 10**6


@dataclass
class BValuedModel:
    """A finite structure whose equality and relations take values in a
    finite Boolean algebra.

    ``eq`` maps ordered domain pairs to algebra elements, ``rel`` maps each
    relation name to a table over domain tuples, ``consts`` interprets
    constant names.  Treated as immutable after construction, which
    validates it unless ``check`` is false (a candidate whose violations
    are to be reported).
    """

    algebra: FiniteBooleanAlgebra
    domain: tuple
    eq: dict
    rel: dict
    consts: dict
    check: InitVar[bool] = True

    def __post_init__(self, check):
        self.domain = tuple(self.domain)
        if not self.domain:
            raise BoolkitError("domain must be nonempty")
        if not check:
            return
        report = validate_model(self)
        if not report.ok:
            raise BoolkitError(f"invalid B-valued model: {report.violations[0]}")

    @classmethod
    def tabulate(cls, algebra, domain, relations, eq_value, rel_value, consts) -> "BValuedModel":
        """The validated model whose ``eq`` holds ``eq_value(x, y)`` for every
        ordered domain pair and whose table of each relation (``relations``
        maps a name to its arity) holds ``rel_value(name, xs)`` for every
        domain tuple of its arity: the one layout of a model's tables."""
        domain = tuple(domain)
        eq = {(x, y): eq_value(x, y) for x in domain for y in domain}
        rel = {
            name: {xs: rel_value(name, xs) for xs in itertools.product(domain, repeat=arity)}
            for name, arity in relations.items()
        }
        return cls(algebra, domain, eq, rel, consts)

    @property
    def relations(self) -> dict:
        """Each relation's name and arity, read off its table's keys."""
        return {name: len(next(iter(table))) if table else 0 for name, table in self.rel.items()}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()


def validate_model(m: BValuedModel, max_violations: int = 1) -> ValidationReport:
    """Exhaustively check the equality axioms and the relation congruence
    condition; failures report the violating tuple, at most
    ``max_violations`` of them.

    Congruence is checked by position, R(xs) meet eq(xs[i], y) <= R(xs[i:=y]):
    chained over the positions, by monotonicity of meet alone, this gives it
    for every pair (xs, ys), whose scan runs only to name the violations.
    """
    bad = tuple(itertools.islice(_violations(m), max_violations))
    return ValidationReport(not bad, bad)


def _violations(m: BValuedModel):
    """The violations of ``m`` in report order; a bad table entry ends the
    scan, as the scans after it read the whole table."""
    one, domain, eq = m.algebra.one, m.domain, m.eq
    broken = False
    for a, c in itertools.product(domain, repeat=2):
        if not m.algebra.is_element(eq.get((a, c))):
            broken = True
            yield ("eq-table", a, c)
    if broken:
        return
    for a in domain:
        if eq[(a, a)] != one:
            yield ("reflexivity", a)
    for a, c in itertools.product(domain, repeat=2):
        if eq[(a, c)] != eq[(c, a)]:
            yield ("symmetry", a, c)
    # with equality the identity, transitivity holds, as eq(a, c) meet eq(c, d) is 0
    # unless a = c = d; so does congruence, as a guard is 0 unless xs = ys
    identity = all(eq[(a, c)] == (one if a == c else 0) for a in domain for c in domain)
    if not identity:
        for a, c in itertools.product(domain, repeat=2):
            ac = eq[(a, c)]
            for d in domain:
                if ac & eq[(c, d)] & ~eq[(a, d)]:
                    yield ("transitivity", a, c, d)
    for name, arity in m.relations.items():
        table = m.rel[name]
        tuples = list(itertools.product(domain, repeat=arity))
        for xs in tuples:
            if not m.algebra.is_element(table.get(xs)):
                yield ("rel-table", name, xs)
                return
        if identity or _congruent_by_position(domain, eq, table, tuples):
            continue
        for xs, ys in itertools.product(tuples, repeat=2):
            if m.algebra.meet_all(eq[(x, y)] for x, y in zip(xs, ys)) & table[xs] & ~table[ys]:
                yield ("congruence", name, xs, ys)
    for name, elem in m.consts.items():
        if elem not in domain:
            yield ("constant", name, elem)


def _congruent_by_position(domain, eq, table, tuples) -> bool:
    """R(xs) meet eq(xs[i], y) <= R(xs[i:=y]) for all xs in tuples, i and y."""
    for xs in tuples:
        v = table[xs]
        for i, x in enumerate(xs):
            for y in domain:
                moved = v & eq[(x, y)]
                if moved and moved & ~table[xs[:i] + (y,) + xs[i + 1 :]]:
                    return False
    return True


def two_valued_model(constants, relations: Mapping[str, int], literals) -> BValuedModel:
    """The Tarski structure read off a set of ground literals: the constants
    modulo the positive equalities, each class named by its minimum, and
    each relation holding exactly on the classes of its positive atoms.

    A negative literal that the classes make false raises, naming the least
    such literal by rendering; sentences other than literals are ignored.
    """
    parent = {c: c for c in constants}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    literals = list(literals)
    for f in literals:
        if isinstance(f, Eq):
            ra, rb = find(f.left), find(f.right)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    true = {(f.rel, tuple(map(find, f.args))) for f in literals if isinstance(f, Atom)}

    def made_true(g):
        if isinstance(g, Atom):
            return (g.rel, tuple(map(find, g.args))) in true
        return isinstance(g, Eq) and find(g.left) == find(g.right)

    false = [f for f in literals if isinstance(f, Not) and made_true(f.body)]
    if false:
        f = min(false, key=syntax.render)
        if isinstance(f.body, Atom):
            raise BoolkitError(f"relations ill-defined on classes: {syntax.render(f)}")
        raise BoolkitError(f"equality classes contradict {syntax.render(f)}")
    return tarski_model({c: find(c) for c in constants}, relations, true)


def tarski_model(consts: Mapping, relations: Mapping[str, int], true) -> BValuedModel:
    """The two-valued structure on the sorted values of ``consts`` (constant
    -> element), each relation holding exactly on the (name, tuple) pairs in
    ``true``."""
    return BValuedModel.tabulate(
        FiniteBooleanAlgebra(1), sorted(set(consts.values())), relations,
        lambda x, y: 1 if x == y else 0, lambda name, xs: 1 if (name, xs) in true else 0, consts,
    )


# ---------------------------------------------------------------------------
# evaluation


class _Counter:
    __slots__ = ("left", "memo")  # steps left; id of a closed and/or node -> its value

    def __init__(self, cap):
        self.left = cap
        self.memo = {}


def eval_formula(
    m: BValuedModel,
    f: Formula,
    assignment: Optional[Mapping] = None,
    max_steps: int = DEFAULT_EVAL_CAP,
) -> int:
    """Boolean value of a formula: negation is complement, conjunction meet,
    disjunction join, quantifier blocks meet/join over domain tuples; the
    empty conjunction is 1 and the empty disjunction 0.

    ``max_steps`` counts only the nodes evaluated.  A conjunction stops at
    the first child that brings its meet to 0, and a disjunction at the
    first that brings its join to 1; the children after that are not
    evaluated, so an unbound variable or uninterpreted constant in one of
    them raises nothing.  A closed conjunction or disjunction met again as
    the same object is evaluated once, so ``max_steps`` counts a shared
    closed node once (each further occurrence is one step); with a variable
    bound nothing is shared.  Quantifier blocks range over every domain
    tuple.  Raises on an unbound free variable or uninterpreted constant
    that is evaluated, or when the quantifier blow-up exceeds ``max_steps``.
    """
    counter = _Counter(max_steps)
    env = dict(assignment or {})
    return _eval(m, f, env, counter)


def _resolve(m, term, env):
    if term.startswith(syntax.VAR_PREFIX):  # syntax.is_var, without the call
        if term not in env:
            raise BoolkitError(f"unbound free variable {term}")
        return env[term]
    if term not in m.consts:
        raise BoolkitError(f"uninterpreted constant {term}")
    return m.consts[term]


def _eval(m, f, env, counter) -> int:
    counter.left -= 1
    if counter.left < 0:
        raise ResourceBudgetError("evaluation step budget exceeded")
    kind = type(f)
    if kind is Eq:
        return m.eq[(_resolve(m, f.left, env), _resolve(m, f.right, env))]
    if kind is Atom:
        return m.rel[f.rel][tuple([_resolve(m, t, env) for t in f.args])]
    one = m.algebra.one
    if kind is Not:
        return one ^ _eval(m, f.body, env, counter)
    if kind is And or kind is Or:
        if not env and id(f) in counter.memo:
            return counter.memo[id(f)]
        # a meet stops at 0 and a join at 1: no later child can change it
        if kind is And:
            out = one
            for c in f.children:
                out &= _eval(m, c, env, counter)
                if not out:
                    break
        else:
            out = 0
            for c in f.children:
                out |= _eval(m, c, env, counter)
                if out == one:
                    break
        if not env:
            counter.memo[id(f)] = out
        return out
    if kind is Forall or kind is Exists:
        out = one if kind is Forall else 0
        for combo in itertools.product(m.domain, repeat=len(f.vars)):
            inner = dict(env)
            inner.update(zip(f.vars, combo))
            v = _eval(m, f.body, inner, counter)
            out = out & v if kind is Forall else out | v
        return out
    raise TypeError(f"not a formula: {f!r}")


def holds(m: BValuedModel, f: Formula, assignment=None) -> bool:
    return eval_formula(m, f, assignment) == m.algebra.one


# ---------------------------------------------------------------------------
# quotients


def quotient_model(m: BValuedModel, f: Filter) -> BValuedModel:
    """Identify elements whose equality value lies in the filter; push all
    values through the quotient-algebra projection.  An ultrafilter yields a
    two-valued (Tarski) model."""
    if f.algebra != m.algebra:
        raise BoolkitError("filter belongs to a different algebra")
    quotient, project = quotient_algebra(m.algebra, f)
    reps = []
    cls = {}
    for x in m.domain:
        for r in reps:
            if m.eq[(x, r)] in f:
                cls[x] = r
                break
        else:
            reps.append(x)
            cls[x] = x
    rep = {f"[{r}]": r for r in reps}
    return BValuedModel.tabulate(
        quotient, rep, m.relations,
        lambda a, c: project(m.eq[(rep[a], rep[c])]),
        lambda name, xs: project(m.rel[name][tuple(map(rep.__getitem__, xs))]),
        {name: f"[{cls[elem]}]" for name, elem in m.consts.items()},
    )


# ---------------------------------------------------------------------------
# mixing and fullness


@dataclass(frozen=True)
class MixingVerdict:
    ok: bool
    antichain: tuple = ()
    family: tuple = ()

    def __bool__(self):
        return self.ok


def check_mixing(m: BValuedModel, lam: int) -> MixingVerdict:
    """Exhaustive search for an antichain of size <= lam and a family with no
    patching element; passing with lam >= atom_count is the mixing property."""
    b = m.algebra
    for antichain in b.antichains(lam):
        if len(antichain) < 2:
            continue
        for family in itertools.product(m.domain, repeat=len(antichain)):
            if any(
                all(b.leq(a, m.eq[(tau, fam)]) for a, fam in zip(antichain, family))
                for tau in m.domain
            ):
                continue
            return MixingVerdict(False, antichain, family)
    return MixingVerdict(True)


@dataclass(frozen=True)
class FullnessVerdict:
    ok: bool
    formula: Optional[Formula] = None
    parameters: tuple = ()

    def __bool__(self):
        return self.ok


def check_fullness(m: BValuedModel, catalog: Iterable[Formula]) -> FullnessVerdict:
    """For each existential catalog formula and every parameter tuple, search
    for a single witness tuple attaining the value of the existential."""
    for f in catalog:
        if not isinstance(f, Exists):
            raise BoolkitError(f"catalog entries must be existential formulas, got {f!r}")
        params = sorted(syntax.free_vars(f))
        for combo in itertools.product(m.domain, repeat=len(params)):
            env = dict(zip(params, combo))
            target = eval_formula(m, f, env)
            attained = False
            for witness in itertools.product(m.domain, repeat=len(f.vars)):
                inner = dict(env)
                inner.update(zip(f.vars, witness))
                if eval_formula(m, f.body, inner) == target:
                    attained = True
                    break
            if not attained:
                return FullnessVerdict(False, f, combo)
    return FullnessVerdict(True)


def mixing_witness_catalog(max_antichain: int) -> list:
    """The existential formulas used in the fullness-implies-mixing argument:
    for each antichain size k, a witness x equal to one of k candidates while
    the matching selector pins the antichain component."""
    catalog = []
    for k in range(1, max_antichain + 1):
        disjuncts = tuple(
            And((Eq("?x", f"?t{i}"), Eq(f"?s{i}", "?w"))) for i in range(k)
        )
        catalog.append(Exists(("?x",), Or(disjuncts)))
    return catalog


def mixing_completion(m: BValuedModel) -> BValuedModel:
    """Freely add atom-wise patches: the new domain is all maps from atoms to
    the old domain, equality holds on the atoms where the maps agree up to the
    old equality, and relations are lifted atom-by-atom.

    The original domain embeds via constant maps with atomic values
    preserved; the output has the full mixing property.
    """
    b = m.algebra
    atoms = b.atoms()
    if (len(m.domain) ** len(atoms)) ** 2 > 4 * 10**6:
        raise ResourceBudgetError("mixing completion would exceed the size cap")
    # the atoms are disjoint, so a sum of their parts is their join; a
    # nullary relation's one entry is read at every atom
    nullary = [()] * len(atoms)

    def lift(table, columns):
        return sum(map(int.__and__, atoms, map(table.__getitem__, columns)))

    return BValuedModel.tabulate(
        b, itertools.product(m.domain, repeat=len(atoms)), m.relations,
        lambda s, t: lift(m.eq, zip(s, t)),
        lambda name, ss: lift(m.rel[name], zip(*ss) if ss else nullary),
        {name: (elem,) * len(atoms) for name, elem in m.consts.items()},
    )


# ---------------------------------------------------------------------------
# random models and formula catalogs


def random_model(
    sig: Signature,
    rng: random.Random,
    max_atoms: int = 3,
    max_domain: int = 3,
) -> BValuedModel:
    """A pseudo-random valid model: equality is a per-atom partition of the
    domain and relation values are per-atom unions of partition-class tuples,
    which enforces the congruence conditions by construction."""
    k = rng.randint(1, max_atoms)
    n = rng.randint(1, max_domain)
    b = FiniteBooleanAlgebra(k)
    domain = tuple(f"m{i}" for i in range(n))
    partitions = []
    for _ in range(k):
        labels = [rng.randrange(n) for _ in range(n)]
        partitions.append(labels)
    eq = {}
    for i, x in enumerate(domain):
        for j, y in enumerate(domain):
            value = 0
            for bit, labels in enumerate(partitions):
                if labels[i] == labels[j]:
                    value |= 1 << bit
            eq[(x, y)] = value
    rel = {}
    index = {x: i for i, x in enumerate(domain)}
    for name, arity in sig.relations.items():
        table = {}
        per_atom_choice = []
        for labels in partitions:
            classes = sorted(set(labels))
            chosen = {
                combo
                for combo in itertools.product(classes, repeat=arity)
                if rng.random() < 0.5
            }
            per_atom_choice.append(chosen)
        for xs in itertools.product(domain, repeat=arity):
            value = 0
            for bit, labels in enumerate(partitions):
                combo = tuple(labels[index[x]] for x in xs)
                if combo in per_atom_choice[bit]:
                    value |= 1 << bit
            table[xs] = value
        rel[name] = table
    consts = {c: domain[rng.randrange(n)] for c in sorted(sig.constants)}
    return BValuedModel(b, domain, eq, rel, consts)


def bits_to_string(x: int, atom_count: int) -> str:
    return "".join("1" if x >> i & 1 else "0" for i in range(atom_count))


def bits_from_string(s: str) -> int:
    out = 0
    for i, ch in enumerate(s):
        if ch == "1":
            out |= 1 << i
        elif ch != "0":
            raise ParseError(f"malformed bitstring {s!r}", i)
    return out


def model_to_json(m: BValuedModel) -> dict:
    """Interchange format: atoms listed, tables as bitstring matrices."""
    k = m.algebra.atom_count
    domain = [str(x) for x in m.domain]
    eq = [
        [bits_to_string(m.eq[(a, b)], k) for b in m.domain] for a in m.domain
    ]
    rel = {}
    for name, arity in sorted(m.relations.items()):
        table = m.rel[name]
        entries = {}
        for combo in itertools.product(m.domain, repeat=arity):
            entries[" ".join(str(x) for x in combo)] = bits_to_string(table[combo], k)
        rel[name] = entries
    return {
        "algebra": {"atoms": [f"a{i}" for i in range(k)]},
        "domain": domain,
        "eq": eq,
        "rel": rel,
        "consts": {name: str(elem) for name, elem in sorted(m.consts.items())},
    }


def model_from_json(doc: dict, check: bool = True) -> BValuedModel:
    k = len(doc["algebra"]["atoms"])
    algebra = FiniteBooleanAlgebra(k)
    domain = tuple(doc["domain"])
    eq = {}
    for i, a in enumerate(domain):
        for j, b in enumerate(domain):
            eq[(a, b)] = bits_from_string(doc["eq"][i][j])
    rel = {}
    for name, entries in doc.get("rel", {}).items():
        table = {}
        for key, bits in entries.items():
            combo = tuple(key.split()) if key else ()
            table[combo] = bits_from_string(bits)
        rel[name] = table
    consts = dict(doc.get("consts", {}))
    return BValuedModel(algebra, domain, eq, rel, consts, check)


def existential_catalog(sig: Signature, limit: int = 12) -> list:
    """Existential formulas with parameters, for fullness checks."""
    x, w = "?x", "?w"
    catalog = [Exists((x,), Eq(x, w))]
    for name, arity in sorted(sig.relations.items()):
        if arity >= 1:
            args = (x,) + (w,) * (arity - 1)
            catalog.append(Exists((x,), Atom(name, args)))
            catalog.append(Exists((x,), And((Atom(name, args), Eq(x, w)))))
    catalog.append(Exists((x,), Or((Eq(x, w), Not(Eq(x, w))))))
    catalog.append(Exists((x,), Not(Eq(x, w))))
    return catalog[:limit]
