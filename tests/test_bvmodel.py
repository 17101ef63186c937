import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolkit import bvmodel, compact, syntax
from boolkit.balg import FiniteBooleanAlgebra, Filter, ultrafilters
from boolkit.bvmodel import (
    BValuedModel,
    check_fullness,
    check_mixing,
    eval_formula,
    mixing_completion,
    mixing_witness_catalog,
    model_from_json,
    model_to_json,
    quotient_model,
    random_model,
    validate_model,
)
from boolkit.errors import BoolkitError, ResourceBudgetError
from boolkit.syntax import And, Atom, Eq, Exists, Forall, Not, Or, Signature

from conftest import (
    classical_eval,
    random_model_with_qe,
    random_sentence,
    reference_bvalue,
    reference_validate_model,
    sentence_catalog,
)

SIG = Signature(relations={"R": 1}, base_constants={"c0", "c1"}, fresh_constants={"e0"})


def two_valued_identity_model(sig, domain=("x", "y")):
    b = FiniteBooleanAlgebra(1)
    eq = {(a, c): (b.one if a == c else 0) for a in domain for c in domain}
    rel = {}
    for name, arity in sig.relations.items():
        rel[name] = {combo: 0 for combo in itertools.product(domain, repeat=arity)}
    consts = {c: domain[0] for c in sig.constants}
    return BValuedModel(b, domain, eq, rel, consts)


def _identity_model(sig, rng, max_atoms=3, max_domain=3):
    """A model whose equality is the identity and whose relation values are
    random elements of a random algebra."""
    b = FiniteBooleanAlgebra(rng.randint(1, max_atoms))
    domain = tuple(f"m{i}" for i in range(rng.randint(1, max_domain)))
    eq = {(a, c): (b.one if a == c else 0) for a in domain for c in domain}
    rel = {
        name: {xs: rng.randrange(b.one + 1) for xs in itertools.product(domain, repeat=arity)}
        for name, arity in sig.relations.items()
    }
    return BValuedModel(b, domain, eq, rel, {c: rng.choice(domain) for c in sorted(sig.constants)})


def counterexample_model(with_relation=False):
    """Two elements, four-valued algebra, equality the identity; optionally a
    unary relation splitting the atoms, which breaks fullness."""
    b = FiniteBooleanAlgebra(2)
    dom = ("x", "y")
    eq = {("x", "x"): b.one, ("y", "y"): b.one, ("x", "y"): 0, ("y", "x"): 0}
    rel = {}
    if with_relation:
        rel["R"] = {("x",): 0b01, ("y",): 0b10}
    consts = {"c0": "x", "c1": "y", "e0": "x"}
    return BValuedModel(b, dom, eq, rel, consts)


class TestValidation:
    def test_two_valued_identity_passes(self):
        m = two_valued_identity_model(SIG)
        assert validate_model(m).ok

    def test_transitivity_violation_reported(self):
        b = FiniteBooleanAlgebra(1)
        dom = ("t", "s", "p")
        eq = {(a, c): (b.one if a == c else 0) for a in dom for c in dom}
        eq[("t", "s")] = eq[("s", "t")] = b.one
        eq[("s", "p")] = eq[("p", "s")] = b.one
        with pytest.raises(BoolkitError, match="transitivity"):
            BValuedModel(b, dom, eq, {}, {})

    def test_generator_output_passes(self):
        rng = random.Random(0)
        for _ in range(60):
            m = random_model(SIG, rng)
            assert validate_model(m).ok

    def test_reports_as_the_full_scan(self):
        sig = Signature(relations={"R": 1, "S": 2, "T": 3}, base_constants={"c0", "c1"})
        rng = random.Random(3)
        cases = congruence_only = 0
        for _ in range(300):
            mutation = rng.choice(["none", "eq", "eq", "rel", "rel", "missing", "congruence", "stray"])
            max_domain = rng.choice([2, 3, 4])
            if mutation == "congruence":  # a valid model whose equality is not the identity
                m = random_model(sig, rng, max_atoms=3, max_domain=max_domain)
                while all(v == (m.algebra.one if a == c else 0) for (a, c), v in m.eq.items()):
                    m = random_model(sig, rng, max_atoms=3, max_domain=max_domain)
            elif rng.random() < 0.5:
                m = random_model(sig, rng, max_atoms=rng.choice([1, 3]), max_domain=max_domain)
            else:  # equality the identity, relations arbitrary
                m = _identity_model(sig, rng, max_domain=max_domain)
            b, domain = m.algebra, m.domain
            eq = dict(m.eq)
            rel = {name: dict(table) for name, table in m.rel.items()}
            if mutation == "eq":
                a, c = rng.choice(domain), rng.choice(domain)
                eq[(a, c)] = rng.randrange(b.one + 1)
                if rng.random() < 0.5:
                    eq[(c, a)] = eq[(a, c)]
            elif mutation in ("rel", "congruence"):
                name = rng.choice(sorted(rel))
                rel[name][rng.choice(sorted(rel[name]))] = rng.randrange(b.one + 1)
            elif mutation == "missing":
                table = eq if rng.random() < 0.5 else rel[rng.choice(sorted(rel))]
                del table[rng.choice(sorted(table))]
            elif mutation == "stray":  # a key outside the domain, as a JSON table may carry
                name = rng.choice(sorted(rel))
                rel[name][("zz",) * sig.relations[name]] = b.one
            mutant = BValuedModel(b, domain, eq, rel, dict(m.consts), check=False)
            for k in (1, 3, 1000):
                want = reference_validate_model(mutant, k)
                assert astuple(validate_model(mutant, k)) == want
            cases += not want[0]
            congruence_only += mutation == "congruence" and any(v[0] == "congruence" for v in want[1])
        assert cases > 50  # the mutants break the model often enough
        assert congruence_only > 10  # and the by-position check hands over to the full scan

    def test_a_failed_position_check_can_leave_the_full_scan_clean(self):
        # without reflexivity the full scan's guard eq(y, z) meet eq(x, x) is
        # below the by-position guard eq(y, z), and clears S(y, x) <= S(z, x)
        b = FiniteBooleanAlgebra(2)
        dom = ("x", "y", "z")
        eq = {(a, c): 0 for a in dom for c in dom}
        eq[("x", "x")] = 0b01
        for a, c in itertools.product(("y", "z"), repeat=2):
            eq[(a, c)] = b.one
        table = {xs: 0 for xs in itertools.product(dom, repeat=2)}
        table[("y", "x")] = 0b10
        mutant = BValuedModel(b, dom, eq, {"S": table}, {}, check=False)
        tuples = list(itertools.product(dom, repeat=2))
        assert not bvmodel._congruent_by_position(dom, eq, table, tuples)
        expected = (False, (("reflexivity", "x"),))
        for k in (1, 3, 1000):
            assert astuple(validate_model(mutant, k)) == reference_validate_model(mutant, k) == expected

    @pytest.mark.parametrize("k", [1, 2])
    def test_reflexivity_failures_stop_at_the_cap(self, k):
        # an all-zero equality table fails reflexivity at every element
        dom = ("x", "y", "z")
        eq = {(a, c): 0 for a in dom for c in dom}
        mutant = BValuedModel(FiniteBooleanAlgebra(1), dom, eq, {}, {}, check=False)
        expected = (False, tuple(("reflexivity", a) for a in dom[:k]))
        assert astuple(validate_model(mutant, k)) == reference_validate_model(mutant, k) == expected

    def test_a_missing_eq_entry_is_reported_past_one_violation(self):
        m = counterexample_model()
        eq = dict(m.eq)
        del eq[("y", "x")]
        mutant = BValuedModel(m.algebra, m.domain, eq, {}, dict(m.consts), check=False)
        expected = (False, (("eq-table", "y", "x"),))
        assert astuple(validate_model(mutant, 3)) == reference_validate_model(mutant, 3) == expected


    def test_a_constant_outside_the_domain_is_reported(self):
        m = two_valued_identity_model(SIG)
        consts = {"c0": "x", "c1": "z", "e0": "w"}
        mutant = BValuedModel(m.algebra, m.domain, m.eq, m.rel, consts, check=False)
        assert astuple(validate_model(mutant, max_violations=5)) == (
            False, (("constant", "c1", "z"), ("constant", "e0", "w"))
        )
        assert astuple(validate_model(mutant)) == (False, (("constant", "c1", "z"),))
        with pytest.raises(BoolkitError, match="constant"):
            BValuedModel(m.algebra, m.domain, m.eq, m.rel, consts)


class TestEval:
    def test_empty_conjunction_is_one(self):
        rng = random.Random(1)
        m = random_model(SIG, rng)
        assert eval_formula(m, And(())) == m.algebra.one
        assert eval_formula(m, Or(())) == 0

    def test_two_valued_matches_classical(self):
        rng = random.Random(2)
        for _ in range(100):
            m = random_model(SIG, rng, max_atoms=1, max_domain=3)
            f = random_sentence(SIG, rng, 3)
            value = eval_formula(m, f)
            assert (value == m.algebra.one) == classical_eval(m, f)

    def test_truncated_counterexample_family_evaluates_to_zero(self):
        # both inequalities conjoined with the disjunction annihilate
        sig = Signature(relations={}, base_constants={"c0", "c1", "cw"}, fresh_constants={"e0"})
        rng = random.Random(3)
        diseqs = And((Not(Eq("c0", "cw")), Not(Eq("c1", "cw"))))
        disj = Or((Eq("cw", "c0"), Eq("cw", "c1")))
        for _ in range(40):
            m = random_model(sig, rng)
            assert eval_formula(m, And((diseqs, disj))) == 0

    def test_unbound_variable_rejected(self):
        m = two_valued_identity_model(SIG)
        with pytest.raises(BoolkitError):
            eval_formula(m, Eq("?x", "c0"))

    def test_budget_cap(self):
        m = two_valued_identity_model(SIG, domain=("x", "y", "z"))
        f = Forall(("?a", "?b", "?c"), Eq("?a", "?b"))
        with pytest.raises(ResourceBudgetError):
            eval_formula(m, f, max_steps=10)

    def test_a_shared_closed_node_costs_its_steps_once(self):
        m = two_valued_identity_model(SIG)
        # every disjunct is false, so no join stops early
        shared = Or((Atom("R", ("c0",)), Not(Eq("c0", "c1"))))  # 1 + 1 + 2 steps
        f = Or((shared, Not(Not(shared)), shared))  # 1 + 4 + (1 + 1 + 1) + 1
        copy = syntax.parse(syntax.render(f), SIG)  # the same tree, nothing shared
        assert eval_formula(m, f, max_steps=9) == eval_formula(m, copy) == 0
        with pytest.raises(ResourceBudgetError):
            eval_formula(m, f, max_steps=8)
        with pytest.raises(ResourceBudgetError):
            eval_formula(m, copy, max_steps=9)
        assert "counts a shared closed node once" in " ".join(eval_formula.__doc__.split())

    def test_a_meet_stops_at_zero_and_a_join_at_one(self):
        m = two_valued_identity_model(SIG)
        never = Eq("?x", "c9")  # unbound and uninterpreted: raises when evaluated
        with pytest.raises(BoolkitError):
            eval_formula(m, And((Eq("c0", "c1"), never)))
        for f, value in ((And((Atom("R", ("c0",)), never)), 0), (Or((Eq("c0", "c1"), never)), 1)):
            assert eval_formula(m, f, max_steps=2) == value
            with pytest.raises(ResourceBudgetError):
                eval_formula(m, f, max_steps=1)

    def test_agrees_with_a_full_walk(self):
        # random multi-atom models, and sentences whose and/or objects recur
        rng = random.Random(16)
        for _ in range(150):
            m = random_model(SIG, rng, max_atoms=3)
            pool = [random_sentence(SIG, rng, 3) for _ in range(3)]
            for _ in range(5):
                kind = rng.choice((And, Or, Not))
                if kind is Not:
                    pool.append(Not(rng.choice(pool)))
                else:
                    pool.append(kind(tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))))
            pool.append(Forall(("?q",), Or((pool[-1], Eq("?q", "c0"), pool[-1]))))
            for f in pool:
                assert eval_formula(m, f) == reference_bvalue(m, f), syntax.render(f)

    def test_under_a_quantifier_a_shared_node_is_evaluated_per_assignment(self):
        m = bvmodel.two_valued_model(["c0", "c1", "e0"], {"R": 1}, [Atom("R", ("c1",))])
        rx = And((Atom("R", ("?x",)),))  # open, shared under the quantifier
        assert eval_formula(m, Exists(("?x",), Or((rx, rx)))) == 1
        assert eval_formula(m, Forall(("?x",), And((rx, rx)))) == 0
        # a closed node under a quantifier is not memoized either: each of
        # the 3 assignments costs And + Or + R(c1) + R(?x), 4 steps
        closed = Or((Atom("R", ("c1",)),))
        f = Forall(("?x",), And((closed, Atom("R", ("?x",)))))
        assert eval_formula(m, f, max_steps=13) == 0
        with pytest.raises(ResourceBudgetError):
            eval_formula(m, f, max_steps=12)
        # nor is anything under a caller's assignment
        g = And((closed, closed))
        assert eval_formula(m, g, {"?y": "c0"}, max_steps=5) == 1
        with pytest.raises(ResourceBudgetError):
            eval_formula(m, g, {"?y": "c0"}, max_steps=4)
        assert eval_formula(m, g, max_steps=4) == 1

    def test_de_morgan_and_duality_exact(self):
        rng = random.Random(5)
        for _ in range(60):
            m = random_model(SIG, rng)
            f = random_sentence(SIG, rng, 2)
            g = random_sentence(SIG, rng, 2)
            b = m.algebra
            assert eval_formula(m, Not(And((f, g)))) == eval_formula(m, Or((Not(f), Not(g))))
            assert eval_formula(m, Not(Not(f))) == eval_formula(m, f)
            fa = Forall(("?x",), Eq("?x", "c0"))
            ex = Exists(("?x",), Not(Eq("?x", "c0")))
            assert eval_formula(m, Not(fa)) == eval_formula(m, ex)


class TestQuotient:
    def test_trivial_filter_keeps_structure(self):
        rng = random.Random(6)
        m = random_model(SIG, rng)
        q = quotient_model(m, Filter(m.algebra, m.algebra.one))
        assert len(q.domain) == len(m.domain)
        assert q.algebra.atom_count == m.algebra.atom_count

    def test_classes_merge_under_ultrafilter(self):
        m = counterexample_model()
        b = m.algebra
        eq = dict(m.eq)
        eq[("x", "y")] = eq[("y", "x")] = 0b01
        merged = BValuedModel(b, m.domain, eq, {}, m.consts)
        f = ultrafilters(b)[0]
        q = quotient_model(merged, f)
        assert len(q.domain) == 1

    def test_los_for_mixing_models(self):
        rng = random.Random(7)
        catalog = sentence_catalog(SIG, depth=3, limit=20)
        for _ in range(6):
            m = random_model(SIG, rng, max_atoms=2, max_domain=2)
            mc = mixing_completion(m)
            for f in ultrafilters(mc.algebra):
                q = quotient_model(mc, f)
                assert q.algebra.atom_count == 1
                for phi in catalog:
                    assert (eval_formula(mc, phi) in f) == (
                        eval_formula(q, phi) == q.algebra.one
                    )


class TestMixing:
    def test_two_valued_always_mixes(self):
        m = two_valued_identity_model(SIG)
        assert check_mixing(m, 5).ok

    def test_identity_eq_fails_at_two_atoms(self):
        m = counterexample_model()
        verdict = check_mixing(m, 2)
        assert not verdict.ok
        assert len(verdict.antichain) == 2

    def test_completion_passes_at_full_size(self):
        rng = random.Random(8)
        for _ in range(8):
            m = random_model(SIG, rng, max_atoms=2, max_domain=2)
            mc = mixing_completion(m)
            assert check_mixing(mc, mc.algebra.atom_count).ok


class TestFullness:
    def test_two_valued_passes(self):
        m = two_valued_identity_model(SIG)
        assert check_fullness(m, mixing_witness_catalog(2)).ok

    def test_relation_counterexample_fails(self):
        m = counterexample_model(with_relation=True)
        catalog = [Exists(("?x",), Atom("R", ("?x",)))]
        verdict = check_fullness(m, catalog)
        assert not verdict.ok

    def test_mixing_implies_full(self):
        rng = random.Random(9)
        for _ in range(8):
            m = random_model(SIG, rng, max_atoms=2, max_domain=2)
            mc = mixing_completion(m)
            assert check_fullness(mc, mixing_witness_catalog(mc.algebra.atom_count)).ok

    def test_malformed_catalog_rejected(self):
        m = two_valued_identity_model(SIG)
        with pytest.raises(BoolkitError):
            check_fullness(m, [Eq("c0", "c1")])


class TestFullImpliesMixing:
    """Second half of the mixing-fullness equivalence: fullness on the
    witness catalog plus 2-mixing plus a disjoint pair forces mixing."""

    def test_over_random_models(self):
        rng = random.Random(10)
        tested = 0
        for _ in range(60):
            m = random_model(SIG, rng, max_atoms=2, max_domain=3)
            full = check_fullness(m, mixing_witness_catalog(m.algebra.atom_count)).ok
            two_mix = check_mixing(m, 2).ok
            pair = any(
                m.eq[(a, b)] == 0 for a in m.domain for b in m.domain
            )
            if full and two_mix and pair:
                assert check_mixing(m, m.algebra.atom_count).ok
                tested += 1
        assert tested > 0

    def test_near_miss_fails_a_hypothesis(self):
        m = counterexample_model(with_relation=True)
        assert not check_mixing(m, m.algebra.atom_count).ok
        full = check_fullness(m, mixing_witness_catalog(m.algebra.atom_count)).ok
        two_mix = check_mixing(m, 2).ok
        pair = any(m.eq[(a, b)] == 0 for a in m.domain for b in m.domain)
        assert not (full and two_mix and pair)


class TestMixingCompletion:
    def test_single_atom_preserves_domain_size(self):
        rng = random.Random(11)
        m = random_model(SIG, rng, max_atoms=1, max_domain=3)
        mc = mixing_completion(m)
        assert len(mc.domain) == len(m.domain)

    def test_domain_size_counts_maps(self):
        m = counterexample_model()
        mc = mixing_completion(m)
        assert len(mc.domain) == 4

    def test_embedding_preserves_atomic_values(self):
        rng = random.Random(12)
        m = random_model(SIG, rng, max_atoms=2, max_domain=2)
        mc = mixing_completion(m)
        k = m.algebra.atom_count
        embed = {x: tuple(x for _ in range(k)) for x in m.domain}
        for a in m.domain:
            for b in m.domain:
                assert mc.eq[(embed[a], embed[b])] == m.eq[(a, b)]
        for name, table in m.rel.items():
            for combo, value in table.items():
                assert mc.rel[name][tuple(embed[x] for x in combo)] == value

    def test_the_size_cap_is_checked_before_the_maps_are_built(self):
        # 2 ** 64 maps could never be listed; the cap must refuse first
        b = FiniteBooleanAlgebra(64)
        dom = ("x", "y")
        eq = {(a, c): (b.one if a == c else 0) for a in dom for c in dom}
        with pytest.raises(ResourceBudgetError, match="size cap"):
            mixing_completion(BValuedModel(b, dom, eq, {}, {}))

    def test_idempotent_on_atomic_diagram(self):
        rng = random.Random(13)
        m = random_model(SIG, rng, max_atoms=2, max_domain=2)
        mc = mixing_completion(m)
        mcc = mixing_completion(mc)
        k = mc.algebra.atom_count
        for a in mc.domain:
            for b in mc.domain:
                ea = tuple(a for _ in range(k))
                eb = tuple(b for _ in range(k))
                assert mcc.eq[(ea, eb)] == mc.eq[(a, b)]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32))
def test_de_morgan_holds_on_arbitrary_models(seed):
    rng = random.Random(seed)
    m = random_model(SIG, rng)
    f = random_sentence(SIG, rng, 2)
    assert eval_formula(m, Not(f)) == m.algebra.complement(eval_formula(m, f))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_ultrafilter_quotients_are_tarski(seed):
    rng = random.Random(seed)
    m = random_model(SIG, rng)
    for f in ultrafilters(m.algebra):
        q = quotient_model(m, f)
        assert q.algebra.atom_count == 1
        assert validate_model(q).ok


class TestQeFact:
    def test_value_of_transform_matches(self):
        sig = Signature(
            relations={"R": 1}, base_constants={"d"}, fresh_constants={"e0", "e1", "e2"}
        )
        rng = random.Random(14)
        for _ in range(30):
            m = random_model_with_qe(sig, rng, max_atoms=3)
            assert eval_formula(m, syntax.qe_axiom(sig)) == m.algebra.one
            f = random_sentence(sig, rng, 3)
            assert eval_formula(m, f) == eval_formula(m, syntax.qe_transform(f, sig))


class TestInterchange:
    def test_roundtrip(self):
        rng = random.Random(15)
        m = random_model(SIG, rng)
        doc = json.loads(json.dumps(model_to_json(m)))
        m2 = model_from_json(doc)
        assert m2.algebra == m.algebra
        assert set(m2.consts) == set(m.consts)
        for a in m.domain:
            for b in m.domain:
                assert m2.eq[(str(a), str(b))] == m.eq[(a, b)]


class TestTwoValuedModel:
    def test_names_the_least_ill_defined_literal_under_every_hash_seed(self):
        # two negative literals are made false; frozenset order varies with
        # the hash seed, the least rendering does not
        script = (
            "from boolkit import bvmodel, syntax\n"
            "sig = syntax.Signature(relations={'P': 1, 'Q': 1}, base_constants={'a', 'b'})\n"
            "texts = ['(= a b)', '(P a)', '(not (P b))', '(Q a)', '(not (Q b))']\n"
            "literals = frozenset(syntax.parse(t, sig) for t in texts)\n"
            "try:\n"
            "    bvmodel.two_valued_model(sorted(sig.constants), sig.relations, literals)\n"
            "except bvmodel.BoolkitError as exc:\n"
            "    print(exc)\n"
        )
        src = str(Path(bvmodel.__file__).resolve().parents[1])
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            )
            for seed in "0123"
        ]
        outputs = {run.communicate(timeout=60)[0] for run in runs}
        assert outputs == {"relations ill-defined on classes: (not (P b))\n"}


class TestTabulate:
    RELATIONS = {"P": 0, "R": 1, "S": 2, "T": 3}

    def test_every_table_covers_every_domain_tuple(self):
        seen = []
        m = BValuedModel.tabulate(
            FiniteBooleanAlgebra(1), ("x", "y", "z"), self.RELATIONS,
            lambda a, c: int(a == c), lambda name, xs: seen.append((name, xs)) or 0, {"c": "y"},
        )
        assert set(m.eq) == set(itertools.product(m.domain, repeat=2))
        for name, arity in self.RELATIONS.items():
            assert list(m.rel[name]) == list(itertools.product(m.domain, repeat=arity))
        assert m.rel["P"] == {(): 0}
        assert seen == [(name, xs) for name in m.rel for xs in m.rel[name]]
        assert m.relations == self.RELATIONS

    def test_quotients_and_completions_cover_every_tuple(self):
        sig = Signature(relations={"P": 0, "R": 1, "S": 2}, base_constants={"c0", "c1"})
        rng = random.Random(11)
        for _ in range(40):
            m = random_model(sig, rng)
            models = [mixing_completion(m)] + [quotient_model(m, u) for u in ultrafilters(m.algebra)]
            for out in models:
                assert set(out.eq) == set(itertools.product(out.domain, repeat=2))
                for name, arity in sig.relations.items():
                    assert set(out.rel[name]) == set(itertools.product(out.domain, repeat=arity))
            # the completion keeps the nullary value; a quotient projects it
            assert models[0].rel["P"][()] == m.rel["P"][()]

    def test_the_oracle_witness_is_the_two_valued_model_of_its_classes(self):
        sig = Signature(relations=self.RELATIONS, base_constants={"a", "b", "c", "d"})
        constants = sorted(sig.constants)
        rng = random.Random(3)
        for _ in range(30):
            reps = {}
            for i, c in enumerate(constants):  # join an earlier class, or start one
                j = rng.randrange(i + 1)
                reps[c] = reps[constants[j]] if j < i else c
            domain = sorted(set(reps.values()))
            true = frozenset(
                (name, xs)
                for name, arity in sig.relations.items()
                for xs in itertools.product(domain, repeat=arity)
                if rng.random() < 0.3
            )
            witness = compact._Ground(sig).witness((tuple(reps.values()), true))
            literals = [Eq(c, r) for c, r in reps.items()] + [Atom(name, xs) for name, xs in true]
            expected = bvmodel.two_valued_model(constants, sig.relations, literals)
            assert model_to_json(witness) == model_to_json(expected)
