import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolkit import bvmodel, syntax
from boolkit.errors import BoolkitError, ParseError, ResourceBudgetError, SignatureError
from boolkit.syntax import (
    And,
    Atom,
    Eq,
    Exists,
    Forall,
    Not,
    Or,
    Signature,
    canon,
    canonical,
    nnf,
    nnf_step,
    parse,
    qe_axiom,
    qe_transform,
    render,
    subsentences,
    substitute,
)

from conftest import (
    random_formula,
    random_sentence,
    reference_parse,
    reference_qe_transform,
    reference_tokenize,
)

SIG = Signature(relations={"R": 2}, base_constants={"c0", "c1", "cw"}, fresh_constants={"e"})


class TestParse:
    def test_empty_conjunction(self):
        assert parse("(and)", SIG) == And(())

    def test_disjunction_of_equalities(self):
        f = parse("(or (= cw c0) (= cw c1))", SIG)
        assert f == Or((Eq("cw", "c0"), Eq("cw", "c1")))

    def test_quantified(self):
        f = parse("(forall (?x) (or (= ?x c0)))", SIG)
        assert f == Forall(("?x",), Or((Eq("?x", "c0"),)))

    def test_relation_arity_checked(self):
        with pytest.raises(ParseError):
            parse("(R c0)", SIG)

    def test_undeclared_symbol(self):
        with pytest.raises(ParseError) as err:
            parse("(= c0 zz)", SIG)
        assert err.value.position > 0

    def test_syntax_error_position(self):
        with pytest.raises(ParseError):
            parse("(and (= c0 c1)", SIG)

    def test_duplicate_quantifier_variable(self):
        with pytest.raises(ParseError):
            parse("(exists (?x ?x) (= ?x c0))", SIG)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("(and) (and)", SIG)


def test_tokens_and_offsets_match_a_character_loop():
    rng = random.Random(21)
    pieces = ["(", ")", "c0", "?x", "?v12", "and", "=", "R"] + list(" \t\n\r\x0b\x0c\x1c\u00a0\u2003")
    for _ in range(500):
        text = "".join(rng.choice(pieces) for _ in range(rng.randrange(40)))
        assert syntax._tokenize(text) == reference_tokenize(text), repr(text)


PARSE_SIG = Signature(
    relations={"R": 2, "P": 1, "Z": 0}, base_constants={"c0", "c1"}, fresh_constants={"e"}
)
PARSE_VOCAB = ["(", ")", "(", ")", "and", "or", "not", "forall", "exists", "=",
               "R", "P", "Z", "c0", "e", "?x", "?v0", "zz", "?"]


def _parse_outcome(parser, text):
    try:
        return render(parser(text, PARSE_SIG))
    except ParseError as exc:
        return str(exc), exc.position


def fuzz_text(rng):
    """A rendered random formula, a truncation of one, one with one to three
    tokens replaced, swapped or inserted, or a soup of vocabulary tokens."""
    kind = rng.randrange(4)
    if kind == 3:
        return " ".join(rng.choice(PARSE_VOCAB) for _ in range(rng.randrange(30)))
    depth = rng.randint(0, 5)
    generate = random_formula if rng.random() < 0.3 else random_sentence
    f = generate(PARSE_SIG, rng, depth)
    tokens = [tok for tok, _ in syntax._tokenize(render(f))]
    if kind == 0:
        return rng.choice(" \n").join(tokens)
    if kind == 1:
        return " ".join(tokens[: rng.randrange(len(tokens) + 1)])
    for _ in range(rng.randint(1, 3)):
        i, op = rng.randrange(len(tokens)), rng.randrange(3)
        if op == 0:
            tokens[i] = rng.choice(PARSE_VOCAB)
        elif op == 1:
            j = rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, rng.choice(PARSE_VOCAB))
    return " ".join(tokens)


def test_parse_agrees_with_recursive_descent():
    rng = random.Random(22)
    messages = set()
    for _ in range(20000):
        text = fuzz_text(rng)
        got = _parse_outcome(parse, text)
        assert got == _parse_outcome(reference_parse, text), repr(text)
        if isinstance(got, tuple):
            messages.add(got[0].split(" ")[0])
    # every kind of ParseError was met
    assert messages >= {"unexpected", "expected", "undeclared", "quantified", "duplicate",
                        "relation", "trailing"}


def test_parse_does_not_recurse():
    text = "(not " * 5000 + "(P c0)" + ")" * 5000
    f = parse(text, PARSE_SIG)
    for _ in range(5000):
        f = f.body
    assert f == Atom("P", ("c0",))
    with pytest.raises(ParseError) as err:
        parse(text[:-1], PARSE_SIG)
    assert err.value.position == len(text) - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 4))
def test_render_parse_roundtrip(seed, depth):
    rng = random.Random(seed)
    f = random_sentence(SIG, rng, depth)
    assert parse(render(f), SIG) == f


CANON_SIG = Signature(relations={"R": 1, "S": 2}, base_constants={"a", "b"}, fresh_constants={"e"})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 4), st.sampled_from([And, Or]))
def test_canonical_is_the_builder_canon_uses(seed, depth, kind):
    rng = random.Random(seed)
    f = random_formula(CANON_SIG, rng, depth)
    assert canon(canon(f)) is canon(f)
    # a fresh copy of the tree has the same canonical rendering
    copy = parse(render(f), CANON_SIG)
    assert render(canon(copy)) == render(canon(f))
    kids = [random_formula(CANON_SIG, rng, depth) for _ in range(rng.randint(0, 3))]
    built = canonical(kind, kids)
    assert render(built) == render(canon(kind(kids)))
    assert render(built) == render(canonical(kind, reversed(kids)))
    assert canon(built) is built


class TestSubstitute:
    def test_basic(self):
        assert substitute(Eq("?x", "c0"), {"?x": "c1"}) == Eq("c1", "c0")

    def test_bound_occurrence_untouched(self):
        f = Forall(("?x",), Eq("?x", "c0"))
        assert substitute(f, {"?x": "c1"}) == f

    def test_partial_binding(self):
        assert substitute(Atom("R", ("?x", "?y")), {"?x": "c0"}) == Atom("R", ("c0", "?y"))

    def test_variable_term_captured_by_a_quantifier(self):
        f = Exists(("?y",), Atom("R", ("?x", "?y")))
        with pytest.raises(BoolkitError, match=r"^substitution captures variable \?y$"):
            substitute(f, {"?x": "?y"})

    def test_variable_term_outside_the_quantifier_scope(self):
        f = And((Atom("R", ("?x", "?x")), Exists(("?y",), Eq("?y", "c0"))))
        assert substitute(f, {"?x": "?y"}) == And(
            (Atom("R", ("?y", "?y")), Exists(("?y",), Eq("?y", "c0")))
        )


class TestNnfStep:
    def test_double_negation(self):
        assert nnf_step(Not(Eq("c0", "c1"))) == Eq("c0", "c1")

    def test_conjunction_dualizes(self):
        a, b = Eq("c0", "c1"), Atom("R", ("c0", "c1"))
        assert nnf_step(And((a, b))) == Or((Not(a), Not(b)))

    def test_forall_dualizes(self):
        p = Atom("R", ("?x", "?x"))
        assert nnf_step(Forall(("?x",), p)) == Exists(("?x",), Not(p))

    def test_atomic(self):
        assert nnf_step(Eq("c0", "c1")) == Not(Eq("c0", "c1"))


class TestNnf:
    def test_push_through_conjunction(self):
        f = Not(And((Eq("c0", "c1"), Not(Eq("cw", "cw")))))
        assert nnf(f) == Or((Not(Eq("c0", "c1")), Eq("cw", "cw")))

    def test_already_nnf(self):
        assert nnf(Eq("c0", "c1")) == Eq("c0", "c1")

    def test_quantifier(self):
        f = Not(Exists(("?x",), Atom("R", ("?x", "?x"))))
        assert nnf(f) == Forall(("?x",), Not(Atom("R", ("?x", "?x"))))

    def test_output_negations_atomic(self):
        rng = random.Random(5)
        for _ in range(50):
            f = random_sentence(SIG, rng, 3)
            g = nnf(f)
            for sub in syntax.subformulas(g):
                if isinstance(sub, Not):
                    assert isinstance(sub.body, (Atom, Eq))


class TestSubsentences:
    def test_includes_disjuncts_and_self(self):
        f = Or((Eq("cw", "c0"), Eq("cw", "c1")))
        subs = subsentences(f, SIG)
        assert Eq("cw", "c0") in subs
        assert Eq("cw", "c1") in subs
        assert canon(f) in subs

    def test_no_fresh_constants(self):
        sig = Signature(relations={}, base_constants={"c0"})
        assert subsentences(Eq("c0", "c0"), sig) == frozenset({Eq("c0", "c0")})

    def test_existential_instance_count(self):
        sig = Signature(relations={"R": 1}, base_constants={"a", "b", "c"})
        f = Exists(("?x",), Atom("R", ("?x",)))
        assert len(subsentences(f, sig)) == 4

    def test_closed_under_subsentences(self):
        rng = random.Random(9)
        for _ in range(25):
            f = random_sentence(SIG, rng, 3)
            subs = subsentences(f, SIG)
            for g in subs:
                assert subsentences(g, SIG) <= subs


class TestQe:
    def test_axiom_single_constant(self):
        sig = Signature(relations={}, base_constants={"b"}, fresh_constants={"c0"})
        assert qe_axiom(sig) == Forall(("?x",), Or((Eq("?x", "c0"),)))

    def test_axiom_two_constants(self):
        sig = Signature(relations={}, fresh_constants={"c0", "c1"})
        assert qe_axiom(sig) == Forall(("?x",), Or((Eq("?x", "c0"), Eq("?x", "c1"))))

    def test_axiom_empty_pool_rejected(self):
        sig = Signature(relations={}, base_constants={"b"})
        with pytest.raises(ValueError):
            qe_axiom(sig)

    def test_existential(self):
        sig = Signature(relations={}, base_constants=set(), fresh_constants={"c0", "c1"})
        f = Exists(("?x",), Eq("?x", "c0"))
        assert qe_transform(f, sig) == Or((Eq("c0", "c0"), Eq("c1", "c0")))

    def test_quantifier_free_unchanged(self):
        f = Eq("c0", "c1")
        assert qe_transform(f, SIG) == f

    def test_two_variable_block(self):
        sig = Signature(relations={"R": 2}, fresh_constants={"c0", "c1"})
        f = Forall(("?x", "?y"), Atom("R", ("?x", "?y")))
        out = qe_transform(f, sig)
        assert isinstance(out, And) and len(out.children) == 4

    def test_quantifier_free_is_walked_once_per_object(self):
        rng = random.Random(5)
        for _ in range(60):
            f = random_sentence(SIG, rng, 3)
            expected = not any(isinstance(g, (Forall, Exists)) for g in syntax.subformulas(f))
            assert syntax.is_quantifier_free(f) is expected
            assert f.__dict__["_qf"] is expected and syntax.is_quantifier_free(f) is expected

    def test_quantifier_free_finds_a_quantifier_wherever_it_hides(self):
        r, e = Atom("R", ("c0", "c1")), Eq("c0", "cw")
        q = Exists(("?x",), Atom("R", ("?x", "c0")))
        shared = Or((r, Not(q)))
        wide = tuple(Eq("c0", c) for c in ("c0", "c1", "cw") * 10)
        hidden = {
            "under a not in a conjunction": And((e, Not(Not(q)), r)),
            "in a shared or reached twice": And((Or((e, shared)), Not(shared))),
            "last in a wide disjunction": Or(wide + (Not(r), q)),
        }
        for name, f in hidden.items():
            assert syntax.is_quantifier_free(f) is False, name
            assert f.__dict__["_qf"] is False and syntax.is_quantifier_free(f) is False
        free = Or((r, Not(e)))
        for f in (And((e, Not(Not(r)), r)), And((Or((e, free)), Not(free))), Or(wide)):
            assert syntax.is_quantifier_free(f) is True

    def test_quantifier_free_finds_a_quantified_child_of_many_parents(self):
        r, e = Atom("R", ("c0", "c1")), Eq("c0", "cw")
        q = Exists(("?x",), Atom("R", ("?x", "c0")))
        for last, expected in ((q, False), (r, True)):
            shared = And((r, Or((e, last))))
            parents = [
                Or((Eq("c0", c), shared if i % 2 else Not(shared)))
                for i, c in enumerate(("c0", "c1", "cw") * 4)
            ]
            assert syntax.is_quantifier_free(And(tuple(parents))) is expected

    def test_output_quantifier_free(self):
        rng = random.Random(3)
        for _ in range(30):
            f = random_sentence(SIG, rng, 3)
            assert syntax.is_quantifier_free(qe_transform(f, SIG))


QE_NAMES = ("?x", "?y", "?z")


def quantified_formula(rng, sig, depth, bound=frozenset()):
    """A random formula whose quantifier blocks bind one to three of ?x, ?y
    and ?z, so an inner block often re-binds an outer variable; one atom in
    twenty-five may carry the free variable ?w."""
    kind = rng.choice(["atom", "not", "and", "or", "forall", "exists"]) if depth else "atom"
    if kind == "atom":
        terms = sorted(sig.constants) + sorted(bound) + (["?w"] if rng.random() < 0.04 else [])
        left, right = rng.choice(terms), rng.choice(terms)
        return Eq(left, right) if rng.random() < 0.5 else Atom("R", (left, right))
    if kind == "not":
        return Not(quantified_formula(rng, sig, depth - 1, bound))
    if kind in ("and", "or"):
        children = [quantified_formula(rng, sig, depth - 1, bound)
                    for _ in range(rng.randrange(3))]
        return (And if kind == "and" else Or)(children)
    pool = max(1, len(sig.fresh_constants))
    vars = rng.sample(QE_NAMES, rng.choice([k for k in (1, 2, 3) if pool**k <= 9]))
    body = quantified_formula(rng, sig, depth - 1, bound | set(vars))
    return (Forall if kind == "forall" else Exists)(vars, body)


def _qe_outcome(transform, f, sig):
    try:
        return transform(f, sig)
    except (ValueError, BoolkitError) as exc:
        return type(exc), str(exc)


def _min_steps(m, f):
    """The least ``max_steps`` under which ``eval_formula`` gives a value."""

    def enough(steps):
        try:
            bvmodel.eval_formula(m, f, max_steps=steps)
            return True
        except ResourceBudgetError:
            return False

    low, high = 0, 1
    while not enough(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (low, mid) if enough(mid) else (mid, high)
    return high


def test_qe_transform_agrees_with_bottom_up_substitution():
    rng = random.Random(22)
    seen = {"ok": 0, "not a sentence": 0, "empty pool": 0}
    for _ in range(1000):
        sig = Signature(relations={"R": 2}, base_constants={"c0"},
                        fresh_constants=[f"e{i}" for i in range(rng.randint(0, 3))])
        f = quantified_formula(rng, sig, rng.randint(0, 4))
        got, want = _qe_outcome(qe_transform, f, sig), _qe_outcome(reference_qe_transform, f, sig)
        if isinstance(want, tuple):
            assert got == want, render(f)
            seen["empty pool" if "pool" in want[1] else "not a sentence"] += 1
            continue
        seen["ok"] += 1
        assert render(got) == render(want)
        # each not/and/or of the output is its own object, none of the input's
        inner = [id(g) for g in syntax.subformulas(got) if isinstance(g, (Not, And, Or))]
        assert len(set(inner)) == len(inner)
        assert not set(inner) & {id(g) for g in syntax.subformulas(f)}
        m = bvmodel.random_model(sig, rng, max_domain=2)
        assert _min_steps(m, got) == _min_steps(m, want), render(f)
    assert min(seen.values()) >= 10, seen


class TestSignature:
    def test_overlap_rejected(self):
        with pytest.raises(SignatureError):
            Signature(relations={}, base_constants={"a"}, fresh_constants={"a"})

    def test_name_clash_rejected(self):
        with pytest.raises(SignatureError):
            Signature(relations={"a": 1}, base_constants={"a"})

    def test_json_roundtrip(self):
        assert Signature.from_json(SIG.to_json()) == SIG


def test_a_pickled_formula_hashes_as_a_fresh_one_under_another_hash_seed(tmp_path):
    src = str(Path(syntax.__file__).resolve().parents[1])
    path = tmp_path / "formula.pickle"
    dump = (
        "import pickle, sys; from boolkit.syntax import Eq, Not; f = Not(Eq('a', 'b')); "
        "hash(f); pickle.dump(f, open(sys.argv[1], 'wb'))"
    )
    load = (
        "import pickle, sys; from boolkit.syntax import Eq, Not; "
        "g = pickle.load(open(sys.argv[1], 'rb')); h = Not(Eq('a', 'b')); "
        "print(g == h, g in {h})"
    )
    for seed, code in (("1", dump), ("2", load)):
        done = subprocess.run(
            [sys.executable, "-c", code, str(path)], capture_output=True, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src), timeout=60,
        )
        assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "True"]
