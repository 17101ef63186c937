"""Relational signatures, formula trees, S-expression parsing, substitution,
negation normal form, subsentence enumeration, and the quantifier-elimination
transform.

Terms are plain strings: a token starting with ``?`` is a variable, anything
else is a constant name.  Conjunctions and disjunctions are n-ary (possibly
empty: the empty conjunction is the true sentence, the empty disjunction the
false one).
"""
from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from .errors import BoolkitError, ParseError, SignatureError

VAR_PREFIX = "?"
_RESERVED = {"and", "or", "not", "forall", "exists", "="}


def is_var(term: str) -> bool:
    return term.startswith(VAR_PREFIX)


# ---------------------------------------------------------------------------
# signature


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities, base constants, and a disjoint pool of
    fresh constants used for subsentence substitution and witnessing."""

    relations: Mapping[str, int]
    base_constants: frozenset
    fresh_constants: frozenset

    def __init__(self, relations=None, base_constants=(), fresh_constants=()):
        object.__setattr__(self, "relations", dict(relations or {}))
        object.__setattr__(self, "base_constants", frozenset(base_constants))
        object.__setattr__(self, "fresh_constants", frozenset(fresh_constants))
        self._check()

    def _check(self):
        if self.base_constants & self.fresh_constants:
            raise SignatureError("base and fresh constants must be disjoint")
        names = list(self.relations) + list(self.base_constants | self.fresh_constants)
        if len(names) != len(set(names)):
            raise SignatureError("relation and constant names must be pairwise distinct")
        for name in names:
            if is_var(name) or name in _RESERVED or not re.fullmatch(r"[^\s()]+", name):
                raise SignatureError(f"illegal symbol name {name!r}")
        for rel, arity in self.relations.items():
            if not isinstance(arity, int) or arity < 0:
                raise SignatureError(f"arity of {rel!r} must be a non-negative integer")

    @property
    def constants(self) -> frozenset:
        return self.base_constants | self.fresh_constants

    def to_json(self) -> dict:
        return {
            "relations": dict(sorted(self.relations.items())),
            "base_constants": sorted(self.base_constants),
            "fresh_constants": sorted(self.fresh_constants),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Signature":
        if not isinstance(data, dict):
            raise SignatureError("a signature is a JSON object")
        return cls(
            relations=data.get("relations", {}),
            base_constants=data.get("base_constants", ()),
            fresh_constants=data.get("fresh_constants", ()),
        )


# ---------------------------------------------------------------------------
# formula trees


class Formula:
    """Base class; concrete nodes are the frozen dataclasses below.

    Instances are immutable.  Two formulas are equal when they are the same
    tree: the same kind over equal ``_fields`` (leaf fields and parts, in
    order).  Hashes (of the kind's name and those fields, without rendering)
    and renderings are cached per instance: trees are compared constantly.
    """

    def __repr__(self):
        return render(self)

    def __init_subclass__(cls):
        cls._fields = operator.attrgetter(*cls.__annotations__)

    def __hash__(self):
        cache = self.__dict__
        h = cache.get("_hash")
        if h is None:
            for part in _parts(self):  # direct calls: hashing costs one frame a level
                part.__hash__()
            h = cache["_hash"] = hash((type(self).__name__, self._fields(self)))
        return h

    def __eq__(self, other):
        if self is other:
            return True
        same = type(self) is type(other) and self.__hash__() == other.__hash__()
        return same and self._fields(self) == other._fields(other)

    def __getstate__(self):
        # the cached hash depends on PYTHONHASHSEED, so pickle leaves it out
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}


@dataclass(frozen=True, repr=False, eq=False)
class Atom(Formula):
    rel: str
    args: tuple

    def __init__(self, rel, args=()):
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "args", tuple(args))


@dataclass(frozen=True, repr=False, eq=False)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True, repr=False, eq=False)
class Not(Formula):
    body: Formula


@dataclass(frozen=True, repr=False, eq=False)
class And(Formula):
    children: tuple

    def __init__(self, children=()):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True, repr=False, eq=False)
class Or(Formula):
    children: tuple

    def __init__(self, children=()):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True, repr=False, eq=False)
class Forall(Formula):
    vars: tuple
    body: Formula

    def __init__(self, vars, body):
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "body", body)


@dataclass(frozen=True, repr=False, eq=False)
class Exists(Formula):
    vars: tuple
    body: Formula

    def __init__(self, vars, body):
        object.__setattr__(self, "vars", tuple(vars))
        object.__setattr__(self, "body", body)


@dataclass(frozen=True)
class Theory:
    """A finite sequence of sentences."""

    sentences: tuple

    def __init__(self, sentences=()):
        sentences = tuple(sentences)
        for f in sentences:
            if free_vars(f):
                raise ValueError(f"theory member has free variables: {render(f)}")
        object.__setattr__(self, "sentences", sentences)

    def __iter__(self):
        return iter(self.sentences)

    def __len__(self):
        return len(self.sentences)


def _parts(f: Formula) -> tuple:
    """The subformulas directly below ``f``, in order: the one place, with
    ``_rebuilt``, that knows which fields of a node hold its subformulas."""
    kind = type(f)
    if kind is Atom or kind is Eq:
        return ()
    if kind is And or kind is Or:
        return f.children
    if kind is Not or kind is Forall or kind is Exists:
        return (f.body,)
    raise TypeError(f"not a formula: {f!r}")


def _rebuilt(f: Formula, parts) -> Formula:
    """A new node of ``f``'s kind and leaf fields over ``parts``; the parts
    of an atom or an equality are its terms."""
    kind = type(f)
    if kind is And or kind is Or:
        return kind(parts)
    if kind is Atom:
        return Atom(f.rel, parts)
    if kind is Forall or kind is Exists:
        return kind(f.vars, *parts)
    return kind(*parts)


def _terms(f: Formula) -> tuple:
    """An atom's or an equality's terms, in order; other nodes have none."""
    return f.args if type(f) is Atom else (f.left, f.right) if type(f) is Eq else ()


def subformulas(f: Formula) -> Iterator[Formula]:
    """All nodes of the tree, root first, each occurrence once."""
    yield f
    for part in _parts(f):
        yield from subformulas(part)


def free_vars(f: Formula) -> frozenset:
    parts = _parts(f)
    out = frozenset() if parts else frozenset(filter(is_var, _terms(f)))
    for part in parts:
        out |= free_vars(part)
    return out - frozenset(f.vars) if isinstance(f, (Forall, Exists)) else out


def constants_of(f: Formula) -> frozenset:
    """Constant names occurring anywhere in the tree."""
    parts = _parts(f)
    out = frozenset() if parts else frozenset(itertools.filterfalse(is_var, _terms(f)))
    for part in parts:
        out |= constants_of(part)
    return out


def is_sentence(f: Formula) -> bool:
    return not free_vars(f)


def is_quantifier_free(f: Formula) -> bool:
    """No quantifier in the tree; a shared child is pushed once, when first
    met, a ``not`` is stepped through and a literal never pushed, and the
    answer is cached in the instance."""
    cached = f.__dict__.get("_qf")
    if cached is not None:
        return cached
    stack, seen, cached = [f], set(), True
    while stack and cached:
        g = stack.pop()
        while type(g) is Not:
            g = g.body
        if isinstance(g, (Forall, Exists)):
            cached = False
        elif isinstance(g, (And, Or)):
            for c in g.children:
                while type(c) is Not:
                    c = c.body
                if type(c) is not Eq and type(c) is not Atom and id(c) not in seen:
                    seen.add(id(c))
                    stack.append(c)
    object.__setattr__(f, "_qf", cached)
    return cached


def validate(f: Formula, sig: Signature) -> None:
    """Raise if an arity is wrong, a constant is undeclared, or a quantifier
    block repeats a variable."""
    for g in subformulas(f):
        if isinstance(g, Atom):
            if g.rel not in sig.relations:
                raise SignatureError(f"undeclared relation {g.rel!r}")
            if len(g.args) != sig.relations[g.rel]:
                raise SignatureError(
                    f"relation {g.rel!r} expects {sig.relations[g.rel]} arguments, got {len(g.args)}"
                )
        elif isinstance(g, (Forall, Exists)):
            if len(set(g.vars)) != len(g.vars):
                raise SignatureError(f"duplicate variable in quantifier block {g.vars}")
            if any(not is_var(v) for v in g.vars):
                raise SignatureError(f"quantifier block {g.vars} must bind variables")
        for t in _terms(g):
            if not is_var(t) and t not in sig.constants:
                raise SignatureError(f"undeclared constant {t!r}")


# ---------------------------------------------------------------------------
# printing and parsing


def render(f: Formula) -> str:
    cached = f.__dict__.get("_render") if isinstance(f, Formula) else None
    if cached is not None:
        return cached
    if isinstance(f, Atom):
        out = "(" + " ".join((f.rel,) + f.args) + ")"
    elif isinstance(f, Eq):
        out = f"(= {f.left} {f.right})"
    elif isinstance(f, Not):
        out = f"(not {render(f.body)})"
    elif isinstance(f, And):
        out = "(and" + "".join(" " + render(c) for c in f.children) + ")"
    elif isinstance(f, Or):
        out = "(or" + "".join(" " + render(c) for c in f.children) + ")"
    elif isinstance(f, Forall):
        out = f"(forall ({' '.join(f.vars)}) {render(f.body)})"
    elif isinstance(f, Exists):
        out = f"(exists ({' '.join(f.vars)}) {render(f.body)})"
    else:
        raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_render", out)
    return out


_TOKEN = re.compile(r"[()]|[^\s()]+")  # \s agrees with str.isspace on every code point


def _tokenize(text: str):
    return [(t.group(), t.start()) for t in _TOKEN.finditer(text)]


def _error(text: str, k: int, message: str) -> ParseError:
    """``message`` at token ``k``'s offset; past the last token, end of input."""
    tokens = _tokenize(text)
    if k >= len(tokens):
        return ParseError("unexpected end of input", len(text))
    return ParseError(message, tokens[k][1])


def parse(text: str, sig: Signature) -> Formula:
    """Parse a formula in the S-expression grammar.

    Grammar: ``(and f...)``, ``(or f...)``, ``(not f)``, ``(forall (?v...) f)``,
    ``(exists (?v...) f)``, ``(= t t)``, ``(REL t...)``.  Tokens starting with
    ``?`` are variables; everything else must be declared in the signature.

    One loop over the tokens with a stack of open frames: nesting depth is
    not bounded by the recursion limit.
    """
    tokens = _TOKEN.findall(text) + ["()", "()"]  # end markers: never a token, never a term
    relations, constants = sig.relations, sig.constants
    stack, k = [], 0  # open frames: (And or Or, children), (Not, None), (Forall or Exists, vars)
    while True:
        if tokens[k] != "(":
            raise _error(text, k, f"expected '(', found {tokens[k]!r}")
        head = tokens[k + 1]
        k += 2
        if head == "and" or head == "or":
            kind = And if head == "and" else Or
            if tokens[k] != ")":
                stack.append((kind, []))
                continue
            f = kind(())
            k += 1
        elif head == "not":
            stack.append((Not, None))
            continue
        elif head == "forall" or head == "exists":
            if tokens[k] != "(":
                raise _error(text, k, f"expected '(', found {tokens[k]!r}")
            k += 1
            vars = []
            while tokens[k] != ")":
                tok = tokens[k]
                if tok[0] != VAR_PREFIX:
                    raise _error(text, k, f"quantified name {tok!r} must start with '?'")
                if tok in vars:
                    raise _error(text, k, f"duplicate variable {tok!r} in quantifier block")
                vars.append(tok)
                k += 1
            stack.append((Forall if head == "forall" else Exists, vars))
            k += 1
            continue
        elif head == "=" or head in relations:
            # "=" takes two terms and then ")"; a relation takes terms up to ")"
            start = k
            while k - start < 2 if head == "=" else tokens[k] != ")":
                tok = tokens[k]
                if tok in "()" or tok[0] != VAR_PREFIX and tok not in constants:
                    message = "expected a term" if tok in "()" else f"undeclared symbol {tok!r}"
                    raise _error(text, k, message)
                k += 1
            if head == "=" and tokens[k] != ")":
                raise _error(text, k, f"expected ')', found {tokens[k]!r}")
            if head != "=" and k - start != relations[head]:
                message = f"relation {head!r} expects {relations[head]} arguments, got {k - start}"
                raise _error(text, start - 1, message)
            f = Eq(*tokens[start:k]) if head == "=" else Atom(head, tokens[start:k])
            k += 1
        else:
            raise _error(text, k - 1, f"undeclared symbol {head!r}")
        # f is complete: add it to the open frames, closing those it ends
        while stack:
            kind, items = stack[-1]
            if kind is And or kind is Or:
                items.append(f)
                if tokens[k] != ")":
                    break
                f = kind(items)
            elif tokens[k] != ")":
                raise _error(text, k, f"expected ')', found {tokens[k]!r}")
            else:
                f = Not(f) if kind is Not else kind(items, f)
            k += 1
            stack.pop()
        else:
            if tokens[k] != "()":
                raise _error(text, k, f"trailing input {tokens[k]!r}")
            return f


# ---------------------------------------------------------------------------
# substitution


def substitute(f: Formula, binding: Mapping[str, str]) -> Formula:
    """Replace free occurrences of the bound variables, or every occurrence
    of the bound constants, by terms, all at once.

    Occurrences bound by an inner quantifier are left untouched; binding a
    variable that never occurs free is a no-op.  A variable term that an
    inner quantifier would capture raises; a constant is never bound, so
    replacing constants by constants never does.
    """
    if not binding:
        return f
    if isinstance(f, (Forall, Exists)):
        binding = {v: t for v, t in binding.items() if v not in f.vars}
        if not binding:
            return f
        for v, t in binding.items():
            if t in f.vars and v in free_vars(*_parts(f)):
                raise BoolkitError(f"substitution captures variable {t}")
    parts = list(map(binding.get, _terms(f), _terms(f)))  # a leaf's parts are its terms
    for part in _parts(f):
        parts.append(substitute(part, binding))
    return _rebuilt(f, parts)


# ---------------------------------------------------------------------------
# negation normal form


def nnf_step(f: Formula) -> Formula:
    """One step of moving a negation inside: returns a formula equivalent to
    the negation of ``f``.

    Atomic f gives ``(not f)``; ``(not g)`` gives ``g``; conjunctions and
    disjunctions dualize with negated children; quantifiers dualize with a
    negated body.
    """
    if isinstance(f, (Atom, Eq)):
        return Not(f)
    if isinstance(f, Not):
        return f.body
    if isinstance(f, And):
        return Or(tuple(Not(c) for c in f.children))
    if isinstance(f, Or):
        return And(tuple(Not(c) for c in f.children))
    if isinstance(f, Forall):
        return Exists(f.vars, Not(f.body))
    if isinstance(f, Exists):
        return Forall(f.vars, Not(f.body))
    raise TypeError(f"not a formula: {f!r}")


def nnf(f: Formula) -> Formula:
    """Full negation normal form: ``not`` ends up applied only to atoms."""
    kind = type(f)
    if kind is Atom or kind is Eq:
        return f
    if kind is Not:
        (body,) = _parts(f)
        return f if type(body) is Atom or type(body) is Eq else nnf(nnf_step(body))
    parts = []
    for part in _parts(f):
        parts.append(nnf(part))
    return _rebuilt(f, parts)


# ---------------------------------------------------------------------------
# canonical forms


def canon(f: Formula) -> Formula:
    """Canonical representative: children of ``and``/``or`` sorted by their
    rendering (duplicates kept, order forgotten).  The result is its own
    ``canon``, so canonicalizing it again is one lookup."""
    cached = f.__dict__.get("_canon")
    if cached is not None:
        return cached
    if isinstance(f, (And, Or)):
        out = canonical(type(f), _parts(f))
    else:
        out = f
        for part in _parts(f):  # at most one
            body = canon(part)
            if body is not part:
                out = _rebuilt(f, (body,))
    object.__setattr__(out, "_canon", out)
    object.__setattr__(f, "_canon", out)
    return out


def canonical(kind, children) -> Formula:
    """The canonical ``kind`` node (``And`` or ``Or``) over the children: the
    one builder of canonical conjunctions and disjunctions."""
    out = kind(tuple(sorted(map(canon, children), key=render)))
    object.__setattr__(out, "_canon", out)
    return out


def conjuncts(f: Formula) -> frozenset:
    """Flatten nested conjunctions into the set of leaf conjuncts."""
    if isinstance(f, And):
        out = set()
        for part in _parts(f):
            out |= conjuncts(part)
        return frozenset(out)
    return frozenset({canon(f)})


# ---------------------------------------------------------------------------
# subsentences


def subsentences(psi: Formula, sig: Signature) -> frozenset:
    """Every sentence obtained from a subformula of ``psi`` by substituting
    constants from the base-plus-fresh pool for its free variables.

    Includes ``psi`` itself; all members are canonical sentences.
    """
    if not is_sentence(psi):
        raise ValueError("subsentences is defined on sentences only")
    pool = sorted(sig.constants)
    out = set()
    for sub in set(subformulas(psi)):
        fv = sorted(free_vars(sub))
        if not fv:
            out.add(canon(sub))
            continue
        if not pool:
            continue
        for combo in itertools.product(pool, repeat=len(fv)):
            out.add(canon(substitute(sub, dict(zip(fv, combo)))))
    return frozenset(out)


def ground_atoms(sig: Signature) -> list:
    """The atomic sentences over the signature, reflexive equalities
    excluded: the equalities of sorted constants, then each relation's."""
    consts = sorted(sig.constants)
    atoms = [Eq(a, b) for a, b in itertools.combinations(consts, 2)]
    for name, arity in sorted(sig.relations.items()):
        atoms += [Atom(name, combo) for combo in itertools.product(consts, repeat=arity)]
    return atoms


# ---------------------------------------------------------------------------
# quantifier elimination relative to the fresh constants


def qe_axiom(sig: Signature) -> Formula:
    """The axiom forcing every element to be named by a fresh constant:
    for all x, x equals one of them."""
    if not sig.fresh_constants:
        raise ValueError("quantifier-elimination axiom needs a nonempty fresh-constant pool")
    x = "?x"
    return Forall((x,), Or(tuple(Eq(x, c) for c in sorted(sig.fresh_constants))))


def qe_transform(psi: Formula, sig: Signature) -> Formula:
    """Replace every quantified subformula by the conjunction (for ``forall``)
    or disjunction (for ``exists``) of its fresh-constant instances, in one
    top-down walk that binds each block's variables in an environment, as
    ``bvmodel`` evaluates (``substitute`` stays the package's one public
    substitution).  The output is quantifier free; each of its not/and/or
    nodes is a new object, and only a variable-free leaf may be the input's."""
    pool = sorted(sig.fresh_constants)
    if not pool and not is_quantifier_free(psi):
        if not is_sentence(psi):
            raise ValueError("qe_transform is defined on sentences only")
        raise ValueError("qe_transform needs a nonempty fresh-constant pool")

    def term(t, env):
        t = env.get(t, t)
        if t.startswith(VAR_PREFIX):
            raise ValueError("qe_transform is defined on sentences only")
        return t

    def go(f: Formula, env) -> Formula:
        kind = type(f)
        if kind is Eq or kind is Atom:
            terms = _terms(f)
            new = tuple([term(t, env) for t in terms])
            return f if new == terms else _rebuilt(f, new)
        if kind is Forall or kind is Exists:
            (body,) = _parts(f)
            combos = itertools.product(pool, repeat=len(f.vars))
            instances = [go(body, env | dict(zip(f.vars, combo))) for combo in combos]
            return (And if kind is Forall else Or)(instances)
        parts = []
        for part in _parts(f):
            parts.append(go(part, env))
        return _rebuilt(f, parts)

    return go(psi, {})


def naming_constraints(sig: Signature) -> list:
    """One sentence per base constant, in order, saying it equals some fresh
    constant; none when there are no fresh constants."""
    fresh = sorted(sig.fresh_constants)
    return [canonical(Or, (Eq(c, d) for c in fresh)) for d in sorted(sig.base_constants) if fresh]
