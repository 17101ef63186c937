import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boolkit import bvmodel, compact, syntax
from boolkit.compact import consistency_oracle, is_conservative_strengthening
from boolkit.errors import BoolkitError
from boolkit.forcing import (
    GenericFilter,
    SPhiPoset,
    build_sphi,
    condition_universe,
    dense_commitment_set,
    dense_decision_set,
    generic_filter,
    genericity_sentence,
    is_dense,
    meets_equivalence,
    term_model,
)
from boolkit.syntax import And, Atom, Eq, Not, Or, Signature

SIG = Signature(relations={}, base_constants={"cw", "c0", "c1"}, fresh_constants=set())
PHI = Or((Eq("cw", "c0"), Eq("cw", "c1")))


@pytest.fixture(scope="module")
def poset():
    return build_sphi(PHI, SIG, size_bound=9)


class TestBuild:
    def test_trivial_sentence_bound_zero(self):
        sig = Signature(relations={}, base_constants={"c0"}, fresh_constants=set())
        p = build_sphi(Eq("c0", "c0"), sig, size_bound=0)
        assert p.conditions == frozenset({frozenset()})

    def test_disjunct_commitments_present(self, poset):
        assert [Eq("c0", "cw")] in poset  # canonical orientation of cw = c0
        assert [Eq("c1", "cw")] in poset

    def test_no_inconsistent_condition(self, poset):
        for s in poset.conditions:
            v = consistency_oracle(list(s) + [PHI], SIG)
            assert v.status == compact.CONSISTENT

    def test_count_matches_brute_force(self):
        sig = Signature(relations={}, base_constants={"a", "b"}, fresh_constants=set())
        phi = Eq("a", "b")
        p = build_sphi(phi, sig, size_bound=4)
        universe = condition_universe(phi, sig)
        expected = 0
        for size in range(0, 5):
            for combo in itertools.combinations(universe, size):
                if consistency_oracle(list(combo) + [phi], sig).status == compact.CONSISTENT:
                    expected += 1
        assert len(p.conditions) == expected

    def test_inconsistent_target_rejected(self):
        sig = Signature(relations={}, base_constants={"a"}, fresh_constants=set())
        with pytest.raises(BoolkitError):
            build_sphi(And((Eq("a", "a"), Not(Eq("a", "a")))), sig, 2)


class TestDense:
    def test_whole_poset_dense(self, poset):
        assert is_dense(list(poset.conditions), poset).ok

    def test_empty_not_dense(self, poset):
        assert not is_dense([], poset).ok

    def test_decision_sets_dense(self, poset):
        for atom in [Eq("c0", "cw"), Eq("c0", "c1")]:
            assert is_dense(dense_decision_set(poset, atom), poset).ok

    def test_commitment_set_dense(self, poset):
        assert is_dense(dense_commitment_set(poset, PHI), poset).ok

    def test_maximal_conditions_dense(self, poset):
        # every condition of a finite poset extends to a maximal one
        maximal = [
            s
            for s in poset.conditions
            if not any(s < t for t in poset.conditions)
        ]
        assert is_dense(maximal, poset).ok

    def test_strict_variant(self, poset):
        # the full poset is dense but not strictly dense (maximal elements
        # have no proper extension)
        assert not is_dense(list(poset.conditions), poset, strict=True).ok

    def test_witness_is_the_least_uncovered_condition_under_every_hash_seed(self):
        # frozenset order varies with the hash seed; the least uncovered
        # condition by size, then sorted renderings, does not
        script = (
            "from boolkit import forcing, syntax\n"
            "sig = syntax.Signature(relations={'P': 1}, base_constants={'a', 'b', 'c'})\n"
            "p = forcing.build_sphi(syntax.parse('(or (P a) (not (= b c)))', sig), sig, 3)\n"
            "verdict = forcing.is_dense([s for s in p.conditions if len(s) == 2], p)\n"
            "print(verdict.ok, sorted(map(syntax.render, verdict.witness)))\n"
        )
        src = str(Path(syntax.__file__).resolve().parents[1])
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
            )
            for seed in "01"
        ]
        outputs = {run.communicate(timeout=60)[0] for run in runs}
        # only the size-3 conditions are uncovered; the witness is the least of them
        sig = Signature(relations={"P": 1}, base_constants={"a", "b", "c"})
        p = build_sphi(syntax.parse("(or (P a) (not (= b c)))", sig), sig, 3)
        two = [s for s in p.conditions if len(s) == 2]
        uncovered = [s for s in p.conditions if not any(s <= t for t in two)]
        assert uncovered and all(len(s) == 3 for s in uncovered)
        least = min(sorted(map(syntax.render, s)) for s in uncovered)
        assert outputs == {f"False {least}\n"}

    def test_non_condition_rejected(self, poset):
        with pytest.raises(BoolkitError):
            is_dense([frozenset({Eq("c0", "c0")})], poset)


class TestGenericFilter:
    def test_no_dense_sets(self, poset):
        g = generic_filter(poset)
        assert g.maximal
        assert frozenset() in g.members

    def test_meets_supplied_dense_sets(self, poset):
        dense = [
            dense_decision_set(poset, Eq("c0", "cw")),
            dense_decision_set(poset, Eq("c0", "c1")),
            dense_commitment_set(poset, PHI),
        ]
        g = generic_filter(poset, dense)
        for d in dense:
            assert any(s in g.members for s in (frozenset(x) for x in d))

    def test_members_upward_closed_and_directed(self, poset):
        g = generic_filter(poset)
        for s in g.members:
            for t in poset.conditions:
                if s >= t:  # t weaker than s
                    assert t in g.members
        for s, t in itertools.combinations(list(g.members)[:12], 2):
            assert any(u >= s | t for u in g.members)


class TestTermModel:
    def test_satisfies_sigma(self, poset):
        g = generic_filter(poset, [dense_commitment_set(poset, PHI)])
        m = term_model(g)
        for f in g.sigma():
            assert bvmodel.holds(m, f)

    def test_classes_merge(self, poset):
        g = generic_filter(poset, [dense_decision_set(poset, Eq("c0", "cw"))])
        m = term_model(g)
        sigma = g.sigma()
        if Eq("c0", "cw") in sigma:
            assert m.consts["c0"] == m.consts["cw"]

    def test_dense_membership_equivalence(self, poset):
        dense = [
            dense_decision_set(poset, Eq("c0", "cw")),
            dense_decision_set(poset, Eq("c0", "c1")),
            dense_commitment_set(poset, PHI),
        ]
        g = generic_filter(poset, dense)
        for d in dense:
            assert meets_equivalence(g, d)

    @pytest.mark.parametrize(
        "condition, message",
        [
            (
                [Eq("a", "b"), Atom("P", ("a",)), Not(Atom("P", ("b",)))],
                "relations ill-defined on classes: (not (P b))",
            ),
            ([Eq("a", "b"), Not(Eq("a", "b"))], "equality classes contradict (not (= a b))"),
        ],
    )
    def test_ill_defined_classes(self, condition, message):
        sig = Signature(relations={"P": 1}, base_constants={"a", "b"})
        condition = frozenset(condition)
        p = SPhiPoset(Eq("a", "a"), sig, frozenset({frozenset(), condition}))
        g = GenericFilter(p, frozenset({frozenset(), condition}), maximal=True)
        with pytest.raises(BoolkitError) as exc:
            term_model(g)
        assert str(exc.value) == message

    def test_needs_maximal_filter(self, poset):
        g = generic_filter(poset)
        partial = type(g)(g.poset, frozenset({frozenset()}), False)
        with pytest.raises(BoolkitError):
            term_model(partial)


class TestGenericitySentence:
    def test_empty_dense_list_returns_target(self, poset):
        assert genericity_sentence(PHI, [], poset) == syntax.canon(PHI)

    def test_trivial_dense_set(self):
        sig = Signature(relations={}, base_constants={"c0"}, fresh_constants=set())
        p = build_sphi(Eq("c0", "c0"), sig, size_bound=0)
        out = genericity_sentence(Eq("c0", "c0"), [[frozenset()]], p)
        expected = syntax.canon(And((Eq("c0", "c0"), Or((And(()),)))))
        assert out == expected

    def test_consistent_and_conservative(self, poset):
        dense = [
            dense_decision_set(poset, Eq("c0", "cw")),
            dense_commitment_set(poset, PHI),
        ]
        sentence = genericity_sentence(PHI, dense, poset)
        assert consistency_oracle([sentence], SIG).status == compact.CONSISTENT
        report = is_conservative_strengthening(sentence, syntax.canon(PHI), SIG)
        assert report.conservative

    def test_non_dense_rejected(self, poset):
        with pytest.raises(BoolkitError):
            genericity_sentence(PHI, [[frozenset()]], poset)
