import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from boolkit import bvmodel, compact, consprop, syntax
from boolkit.consprop import (
    ConsistencyProperty,
    closure_universe,
    mixing_model_from_consprop,
    model_from_consprop,
    saturate_theory,
    verify_consistency_property,
)
from boolkit.errors import BoolkitError, ConstructionFailure, ResourceBudgetError
from boolkit.syntax import And, Atom, Eq, Exists, Not, Or, Signature, Theory

from boolkit.balg import ro_completion
from conftest import ReferencePoset, down_mask, poset_of_sets

SIG_CD = Signature(relations={}, base_constants=set(), fresh_constants={"c", "d"})
SIG_P = Signature(relations={"P": 1}, base_constants=set(), fresh_constants={"c0", "c1"})


class TestVerify:
    def test_contradictory_member_fails_con(self):
        prop = ConsistencyProperty(SIG_CD, [[Eq("c", "d"), Not(Eq("c", "d"))]])
        verdict = verify_consistency_property(prop)
        assert not verdict.ok
        assert verdict.clause == "Con"

    def test_missing_symmetric_closure_fails(self):
        prop = ConsistencyProperty(SIG_CD, [[], [Eq("c", "d")]])
        verdict = verify_consistency_property(prop)
        assert not verdict.ok
        assert verdict.clause == "Str.1"

    def test_symmetric_family_passes(self):
        # reflexive naming extensions are identified with the member itself,
        # so this family already satisfies the fresh-naming clause
        prop = ConsistencyProperty(
            SIG_CD, [[], [Eq("c", "d")], [Eq("c", "d"), Eq("d", "c")]]
        )
        assert verify_consistency_property(prop).ok

    def test_missing_disjunct_witness_fails(self):
        f = Or((Eq("c", "d"),))
        prop = ConsistencyProperty(SIG_CD, [[f]])
        verdict = verify_consistency_property(prop)
        assert not verdict.ok
        assert verdict.clause == "Ind.4"

    def test_missing_conjunct_fails(self):
        f = And((Eq("c", "d"), Eq("d", "c")))
        prop = ConsistencyProperty(SIG_CD, [[f]])
        verdict = verify_consistency_property(prop)
        assert not verdict.ok
        assert verdict.clause == "Ind.2"

    def test_negation_move_required(self):
        f = Not(And((Eq("c", "d"),)))
        prop = ConsistencyProperty(SIG_CD, [[f]])
        verdict = verify_consistency_property(prop)
        assert not verdict.ok
        assert verdict.clause == "Ind.1"

    def test_saturated_families_pass(self):
        rng = random.Random(0)
        theories = [
            Theory([]),
            Theory([Eq("c", "d")]),
            Theory([Not(Eq("c", "d"))]),
        ]
        for t in theories:
            prop = saturate_theory(t, SIG_CD)
            assert verify_consistency_property(prop).ok

    def test_member_removal_never_breaks_con(self):
        # removing a member can break the closure clauses but never the
        # contradiction clause
        prop = saturate_theory(Theory([Eq("c", "d")]), SIG_CD)
        members = sorted(prop.members, key=lambda s: sorted(map(syntax.render, s)))
        for i in range(len(members)):
            smaller = ConsistencyProperty(
                SIG_CD, members[:i] + members[i + 1 :]
            )
            verdict = verify_consistency_property(smaller)
            if not verdict.ok:
                assert verdict.clause != "Con"


    def test_matches_the_naive_checker_on_every_one_member_removal(self):
        from conftest import naive_verify
        from test_acceptance import _model_existence_instances

        for sig, theory in _model_existence_instances():
            prop = saturate_theory(theory, sig)
            members = prop.members
            memo = {}
            for i in range(len(members)):
                smaller = ConsistencyProperty(sig, members[:i] + members[i + 1 :])
                verdict = verify_consistency_property(smaller)
                got = (verdict.ok, verdict.clause, verdict.member, verdict.detail)
                assert got == naive_verify(smaller, memo)

    def test_matches_the_naive_checker_on_materialized_and_base_constant_removals(self):
        # materialized properties are over the star signature, where every
        # constant is fresh and so Str.3 is met by the member itself; the
        # saturated properties over base constants make Str.3 ask for a name
        from conftest import naive_verify
        from test_acceptance import _compactness_families

        props = [
            compact.materialize_compactness_property(compact.conjunction_closure(gens), sig)
            for sig, gens in _compactness_families()
        ]
        for sig, theory in [
            (Signature(relations={"P": 1}, base_constants={"a"}, fresh_constants={"c"}),
             Theory([Atom("P", ("a",))])),
            (Signature(relations={}, base_constants={"a", "b"}, fresh_constants={"c"}), Theory([])),
        ]:
            props.append(saturate_theory(theory, sig))
        rng = random.Random(19)
        clauses = set()
        for prop in props:
            members = prop.members
            memo = {}
            for i in sorted(rng.sample(range(len(members)), min(60, len(members)))):
                smaller = ConsistencyProperty(prop.sig, members[:i] + members[i + 1 :])
                verdict = verify_consistency_property(smaller)
                got = (verdict.ok, verdict.clause, verdict.member, verdict.detail)
                assert got == naive_verify(smaller, memo)
                clauses.add(verdict.clause)
        assert clauses >= {"", "Ind.2", "Str.1", "Str.2", "Str.3"}

    @pytest.mark.parametrize(
        "sig, members, clause",
        [
            # Str.2 asks for (P c0), which is in no member
            (SIG_P, [[], [Eq("c0", "c1")], [Eq("c0", "c1"), Eq("c1", "c0")], [Atom("P", ("c1",))],
                     [Eq("c0", "c1"), Eq("c1", "c0"), Atom("P", ("c1",))]], "Str.2"),
            # Ind.5 asks for (P c0) or (P c1), neither in any member
            (SIG_P, [[], [Exists(("?x",), Atom("P", ("?x",)))]], "Ind.5"),
            # the negated atom's body is in no member: no Con violation
            (SIG_CD, [[], [Not(Eq("c", "d"))]], ""),
            (SIG_P, [[Not(Atom("P", ("c0",))), Not(Atom("P", ("c1",)))]], ""),
            # a lone empty member, with and without a fresh pool to name from
            (SIG_CD, [[]], ""),
            (Signature(relations={}, base_constants={"a"}), [[]], "Str.3"),
        ],
    )
    def test_edge_cases_match_the_naive_checker(self, sig, members, clause):
        from conftest import naive_verify

        prop = ConsistencyProperty(sig, members)
        verdict = verify_consistency_property(prop)
        got = (verdict.ok, verdict.clause, verdict.member, verdict.detail)
        assert got == naive_verify(prop)
        assert verdict.clause == clause
        if clause in ("Str.2", "Ind.5"):
            assert syntax.canon(Atom("P", ("c0",))) not in prop.position


class TestMemberNumbering:
    FIELDS = ("sentences", "ids", "masks", "members", "number", "holders")

    @staticmethod
    def _demo_properties(monkeypatch):
        """Each criterion-10 demo's materialized property, with the family
        it was materialized from."""
        from test_acceptance import _ground_theories

        made = []
        real = compact.materialize_compactness_property

        def recorded(family, sig, *args, **kwargs):
            prop = real(family, sig, *args, **kwargs)
            made.append((family, prop))
            return prop

        monkeypatch.setattr(compact, "materialize_compactness_property", recorded)
        for sig, theory in _ground_theories():
            compact.first_order_compactness_demo(theory, sig)
        return made

    def test_the_row_builder_matches_the_member_builder(self, monkeypatch):
        # saturation and materialization hand their rows to ``from_rows``;
        # ``ConsistencyProperty(sig, members)`` numbers the members themselves
        from test_acceptance import (
            _compactness_families,
            _model_existence_instances,
            _star_families,
        )

        props = [saturate_theory(t, sig) for sig, t in _model_existence_instances()]
        props += [
            compact.materialize_compactness_property(compact.conjunction_closure(gens), sig)
            for sig, gens in _compactness_families()
        ]
        demos = self._demo_properties(monkeypatch)
        # the families of the digest script's helper are the demo's own
        assert [family for family, _ in demos] == [family for _, family in _star_families()]
        props += [prop for _, prop in demos]
        assert max(map(len, props)) == 2656
        for prop in props:
            assert "masks" in vars(prop)  # built from rows with the property
            fresh = ConsistencyProperty(prop.sig, prop.members)
            for name in self.FIELDS:
                assert getattr(prop, name) == getattr(fresh, name), name

    def test_rows_may_number_sentences_in_any_order(self):
        # the sentences may come in any order, some in no member; each row
        # lists its numbers in render order of their sentences
        prop = saturate_theory(Theory([Atom("P", ("c0",))]), SIG_P)
        sentences = [*prop.sentences, Atom("P", ("c9",)), Eq("c0", "c9")]
        random.Random(3).shuffle(sentences)
        position = {f: i for i, f in enumerate(sentences)}
        rows = [
            sorted((position[f] for f in s), key=lambda i: syntax.render(sentences[i]))
            for s in prop.members
        ]
        built = ConsistencyProperty.from_rows(prop.sig, sentences, rows)
        fresh = ConsistencyProperty(prop.sig, prop.members)
        for name in self.FIELDS:
            assert getattr(built, name) == getattr(fresh, name), name

    def test_passing_runs_build_no_member_sets(self):
        # verification and model existence stay on member numbers; the
        # member sets are built when asked for, with the same value
        from test_acceptance import _compactness_families, _model_existence_instances

        props = [
            compact.compactness_run(compact.conjunction_closure(gens), sig).consistency_property
            for sig, gens in _compactness_families()
        ]
        for sig, theory in _model_existence_instances():
            props.append(saturate_theory(theory, sig))
            model_from_consprop(props[-1])
        for prop in props:
            assert "members" not in vars(prop)
            doc = prop.to_json()
            assert doc["members"] == sorted(sorted(map(syntax.render, s)) for s in prop.members)
            assert len(prop.members) == len(prop) > 0
            assert ConsistencyProperty.from_json(doc).members == prop.members
            fresh = ConsistencyProperty(prop.sig, prop.members)
            for name in self.FIELDS:
                assert getattr(prop, name) == getattr(fresh, name), name


class TestSaturate:
    def test_empty_theory_members(self):
        prop = saturate_theory(Theory([]), SIG_CD)
        assert frozenset() in prop.members
        assert frozenset({Eq("c", "d")}) in prop.members
        assert frozenset({syntax.canon(Not(Eq("c", "d")))}) in prop.members
        for s in prop.members:
            assert not (Eq("c", "d") in s and syntax.canon(Not(Eq("c", "d"))) in s)

    def test_consistent_theory_excludes_negation(self):
        prop = saturate_theory(Theory([Eq("c", "d")]), SIG_CD)
        neg = syntax.canon(Not(Eq("c", "d")))
        assert all(neg not in s for s in prop.members)

    def test_inconsistent_theory_gives_empty_family(self):
        prop = saturate_theory(
            compact.faicom_family(2), compact.faicom_signature(2)
        )
        assert len(prop) == 0

    def test_members_individually_consistent(self):
        prop = saturate_theory(Theory([Atom("P", ("c0",))]), SIG_P)
        for s in prop.members:
            v = compact.consistency_oracle(sorted(s, key=syntax.render), SIG_P)
            assert v.status == compact.CONSISTENT

    def test_an_oracle_unknown_is_a_budget_error(self):
        theory = Theory([Or((Atom("P", ("c0",)), Atom("P", ("c1",))))])
        with pytest.raises(ResourceBudgetError, match="oracle unknown while saturating the theory"):
            saturate_theory(theory, SIG_P, budget=compact.Budget(oracle_nodes=1))

    def test_universe_bound_enforced(self):
        with pytest.raises(BoolkitError) as exc:
            closure_universe(Theory([Atom("P", ("c0",))]), SIG_P, bound=2)
        assert exc.type is BoolkitError
        assert str(exc.value) == "closure universe exceeds the bound of 2 sentences"


class TestModelExistence:
    def test_trivial_family(self):
        sig = Signature(relations={}, base_constants=set(), fresh_constants={"c"})
        prop = ConsistencyProperty(sig, [[]])
        model, diagnostics = model_from_consprop(prop)
        assert model.algebra.one + 1 == 2
        assert model.domain == ("c",)

    def test_equality_theory_realized(self):
        prop = saturate_theory(Theory([Eq("c", "d")]), SIG_CD)
        model, _ = model_from_consprop(prop)
        assert bvmodel.eval_formula(model, Eq("c", "d")) == model.algebra.one

    def test_cone_below_member_values(self):
        prop = saturate_theory(Theory([Atom("P", ("c0",)), Not(Eq("c0", "c1"))]), SIG_P)
        model, diagnostics = model_from_consprop(prop)
        members = sorted(
            prop.members, key=lambda s: (len(s), sorted(map(syntax.render, s)))
        )
        poset = ReferencePoset(members, leq=lambda a, b: b <= a)
        ro = ro_completion(poset)
        for k, s in enumerate(members):
            cone = ro.cone[k]
            conj = And(tuple(sorted(s, key=syntax.render)))
            assert model.algebra.leq(cone, bvmodel.eval_formula(model, conj))

    def test_inclusion_poset_matches_the_pairwise_order(self):
        from test_acceptance import _model_existence_instances

        for sig, theory in _model_existence_instances():
            prop = saturate_theory(theory, sig)
            members = sorted(prop.members, key=lambda s: (len(s), sorted(map(syntax.render, s))))
            built = poset_of_sets(members)
            reference = ReferencePoset(members, leq=lambda a, b: b <= a)
            assert built._down == [down_mask(reference, s) for s in members]
            ro, ro_ref = ro_completion(built), ro_completion(reference)
            assert ro._atom_masks == ro_ref._atom_masks
            assert ro.cone == ro_ref.cone

    def test_cone_check_names_the_first_member_holding_a_failed_sentence(self, monkeypatch):
        prop = saturate_theory(Theory([Atom("P", ("c0",)), Not(Eq("c0", "c1"))]), SIG_P)
        members = prop.members
        ro = ro_completion(ReferencePoset(members, leq=lambda a, b: b <= a))
        real = bvmodel.eval_formula

        def eval_formula(model, phi, **kwargs):
            return 0 if phi == chosen else real(model, phi, **kwargs)

        monkeypatch.setattr(bvmodel, "eval_formula", eval_formula)
        # the first holders of (P c1) and of its negation have cones below
        # one, each other than the cones of their neighbours
        for chosen in (Not(Eq("c0", "c1")), Atom("P", ("c1",)), Not(Atom("P", ("c1",)))):
            chosen = syntax.canon(chosen)
            with pytest.raises(ConstructionFailure) as exc:
                model_from_consprop(prop)
            k = next(k for k, s in enumerate(members) if chosen in s)
            assert exc.value.counterexample == {
                "member": sorted(map(syntax.render, members[k])),
                "sentence": syntax.render(chosen),
                "cone": ro.cone[k],
                "value": 0,
            }

    def test_cone_check_names_the_first_of_two_failing_members(self, monkeypatch):
        # y comes after x in render order, but a member without x holds y
        # before any member holds x: that member is the first to fail
        sig = Signature(relations={"R": 1}, base_constants={"a", "b"}, fresh_constants={"e0"})
        gens = [Atom("R", ("a",)), Atom("R", ("b",))]
        prop = compact.materialize_compactness_property(compact.conjunction_closure(gens), sig)
        members = prop.members
        first = {f: next(k for k, s in enumerate(members) if f in s) for f in prop.sentences}
        x, y = next(
            (x, y)
            for x, y in itertools.combinations(prop.sentences, 2)
            if first[y] < first[x] and x not in members[first[y]]
        )
        real = bvmodel.eval_formula

        def eval_formula(model, phi, **kwargs):
            return 0 if phi in (x, y) else real(model, phi, **kwargs)

        monkeypatch.setattr(bvmodel, "eval_formula", eval_formula)
        with pytest.raises(ConstructionFailure) as exc:
            model_from_consprop(prop)
        ro = ro_completion(ReferencePoset(members, leq=lambda a, b: b <= a))
        assert exc.value.counterexample == {
            "member": sorted(map(syntax.render, members[first[y]])),
            "sentence": syntax.render(y),
            "cone": ro.cone[first[y]],
            "value": 0,
        }

    def test_each_distinct_sentence_is_evaluated_once(self, monkeypatch):
        prop = saturate_theory(Theory([Atom("P", ("c0",))]), SIG_P)
        real = bvmodel.eval_formula
        calls = []

        def eval_formula(model, phi, **kwargs):
            calls.append(syntax.render(phi))
            return real(model, phi, **kwargs)

        monkeypatch.setattr(bvmodel, "eval_formula", eval_formula)
        _, diagnostics = model_from_consprop(prop)
        assert sorted(calls) == sorted({syntax.render(f) for s in prop.members for f in s})
        assert diagnostics["checked"] == sum(map(len, prop.members))

    def test_atom_values_match_the_two_halved_reference(self):
        # a member compatible with an atom has its extension by the atom
        # below it, so the members holding the atom regularize to the same
        # value as the compatible ones
        from conftest import reference_model_json
        from test_acceptance import _compactness_families, _model_existence_instances

        props = [saturate_theory(theory, sig) for sig, theory in _model_existence_instances()]
        props += [
            compact.materialize_compactness_property(compact.conjunction_closure(gens), sig)
            for sig, gens in _compactness_families()
        ]
        for prop in props:
            model, _ = model_from_consprop(prop)
            assert bvmodel.model_to_json(model) == reference_model_json(prop)

    def test_quantified_theory(self):
        t = Theory([Exists(("?x",), Atom("P", ("?x",)))])
        prop = saturate_theory(t, SIG_P)
        assert verify_consistency_property(prop).ok
        model, _ = model_from_consprop(prop)
        assert bvmodel.eval_formula(model, t.sentences[0]) == model.algebra.one

    def test_construction_failure_surfaces(self):
        # a hand-built family that passes the clauses but gives the disjunction
        # a strictly smaller value than its cone would need cannot arise from
        # saturation; clause verification already rejects unfounded families
        prop = ConsistencyProperty(SIG_CD, [[Or((Eq("c", "d"),))]])
        with pytest.raises(BoolkitError):
            model_from_consprop(prop)

    def test_mixing_strengthening(self):
        prop = saturate_theory(Theory([Eq("c", "d")]), SIG_CD)
        model, diagnostics = mixing_model_from_consprop(prop)
        assert bvmodel.check_mixing(model, model.algebra.atom_count).ok
        assert "mixing_domain" in diagnostics

    def test_mixing_names_the_first_member_losing_its_value_under_every_hash_seed(self):
        # the patched evaluator gives the target sentence 0 on the completion
        # only; every member holding it loses its value, and the one named is
        # the first in member number order, whatever the hash seed
        script = (
            "from boolkit import bvmodel, consprop, syntax\n"
            "sig = syntax.Signature(relations={'P': 1}, fresh_constants={'c0', 'c1'})\n"
            "theory = syntax.Theory([syntax.parse('(or (P c0) (P c1))', sig)])\n"
            "prop = consprop.saturate_theory(theory, sig)\n"
            "target, evaluate = syntax.parse('(P c1)', sig), bvmodel.eval_formula\n"
            "def patched(m, f, *args, **kwargs):\n"
            "    if isinstance(m.domain[0], tuple) and f == target:  # completion maps\n"
            "        return 0\n"
            "    return evaluate(m, f, *args, **kwargs)\n"
            "bvmodel.eval_formula = patched\n"
            "try:\n"
            "    consprop.mixing_model_from_consprop(prop)\n"
            "except consprop.ConstructionFailure as exc:\n"
            "    print(exc.counterexample)\n"
        )
        src = str(Path(consprop.__file__).resolve().parents[1])
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            )
            for seed in "012"
        ]
        outputs = {run.communicate(timeout=60)[0] for run in runs}
        theory = Theory([Or((Atom("P", ("c0",)), Atom("P", ("c1",))))])
        prop = saturate_theory(theory, SIG_P)
        i = prop.position[Atom("P", ("c1",))]
        assert bin(prop.holders[i]).count("1") > 1
        k = next(k for k, ids in enumerate(prop.ids) if i in ids)
        assert outputs == {f"{sorted(map(syntax.render, prop.member(k)))}\n"}

    def test_cross_oracle_agreement(self):
        prop = saturate_theory(Theory([Not(Eq("c", "d"))]), SIG_CD)
        for s in prop.members:
            v = compact.consistency_oracle(sorted(s, key=syntax.render), SIG_CD)
            assert v.status == compact.CONSISTENT


class TestInterchange:
    def test_json_roundtrip(self):
        prop = saturate_theory(Theory([Eq("c", "d")]), SIG_CD)
        doc = json.loads(json.dumps(prop.to_json()))
        restored = ConsistencyProperty.from_json(doc)
        assert restored.members == prop.members
