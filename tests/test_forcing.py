import dataclasses
import functools
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolkit import bvmodel, compact, forcing, syntax
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

from conftest import (
    reference_commitment_set,
    reference_conservativity,
    reference_decision_set,
    reference_density,
    reference_generic_filter,
    reference_is_dense,
    reference_maximal,
    reference_one_pass_filter,
    reference_ordered,
)

SIG = Signature(relations={}, base_constants={"cw", "c0", "c1"}, fresh_constants=set())
PHI = Or((Eq("cw", "c0"), Eq("cw", "c1")))

# (target, relations, constants, fresh constants): the forcing benchmark's targets
TARGETS = [
    ("(or (= cw c0) (= cw c1) (= cw c2))", {}, "cw c0 c1 c2", ""),
    ("(or (P a) (not (= b c)))", {"P": 1}, "a b c", ""),
    ("(and (P b) (not (P a)))", {"P": 1}, "a b c", ""),
    ("(or (= cw c0) (= cw c1))", {}, "cw c0 c1", ""),
    ("(= cw c0)", {}, "cw c0 c1", ""),
    ("(or (P a) (P b))", {"P": 1}, "a b", ""),
    ("(and (P a) (not (= a b)))", {"P": 1}, "a b", ""),
    ("(not (= a b))", {}, "a b", "e"),
]


def _target(text, relations, constants, fresh):
    sig = Signature(relations, set(constants.split()), set(fresh.split()))
    return syntax.canon(syntax.parse(text, sig)), sig


def _full_poset(phi, sig):
    return build_sphi(phi, sig, size_bound=len(condition_universe(phi, sig)))


@functools.lru_cache(maxsize=None)
def _target_poset(i):
    return _full_poset(*_target(*TARGETS[i]))


def _atoms(sig):
    """The ground atoms over the signature, reflexive equalities excluded."""
    consts = sorted(sig.constants)
    atoms = [Eq(x, y) for x, y in itertools.combinations(consts, 2)]
    for name, arity in sorted(sig.relations.items()):
        atoms += [Atom(name, combo) for combo in itertools.product(consts, repeat=arity)]
    return atoms


def _candidates(p):
    """The decision set of every atom and, for a disjunction, the commitment set."""
    candidates = [dense_decision_set(p, atom) for atom in _atoms(p.sig)]
    if isinstance(p.phi, Or):
        candidates.append(dense_commitment_set(p, p.phi))
    return candidates


def _dense_sets(p):
    """The candidate dense sets that are dense."""
    return [d for d in _candidates(p) if is_dense(d, p).ok]


# a small universe for posets that need not be downward closed, as a loaded
# poset may be
UNIVERSE = [
    syntax.canon(f)
    for f in (
        Atom("P", ("a",)), Not(Atom("P", ("a",))), Atom("P", ("b",)),
        Not(Atom("P", ("b",))), Eq("a", "b"), Not(Eq("a", "b")),
    )
]
SMALL_SIG = Signature(relations={"P": 1}, base_constants={"a", "b"})


@st.composite
def families(draw):
    """A poset of up to 16 condition sets over ``UNIVERSE``, downward closed
    or not, its maximal conditions, and up to three lists of its conditions:
    each a random choice, with every maximal condition added half the time
    so that many lists are dense."""
    masks = draw(st.sets(st.integers(0, 2 ** len(UNIVERSE) - 1), max_size=16))
    conditions = {frozenset(f for i, f in enumerate(UNIVERSE) if m >> i & 1) for m in masks}
    if draw(st.booleans()):
        conditions = {frozenset(c) for s in conditions for n in range(len(s) + 1)
                      for c in itertools.combinations(s, n)}
    p = SPhiPoset(Eq("a", "a"), SMALL_SIG, frozenset(conditions))
    return (p, *_lists(draw, conditions))


def _lists(draw, conditions):
    """The maximal conditions and up to three lists of the conditions."""
    ordered = sorted(conditions, key=lambda s: sorted(map(syntax.render, s)))
    maximal = [s for s in ordered if not any(s < t for t in ordered)]
    lists = []
    for _ in range(draw(st.integers(0, 3))):
        chosen = [s for s in ordered if draw(st.booleans())]
        lists.append(chosen + maximal if draw(st.booleans()) else chosen)
    return maximal, lists


@st.composite
def sub_posets(draw):
    """Up to 40 conditions of a target's poset, not downward closed in
    general, and up to three lists of them as ``families`` draws them."""
    p = _target_poset(draw(st.integers(0, len(TARGETS) - 1)))
    ordered = reference_ordered(p)
    picks = draw(st.lists(st.integers(0, len(ordered) - 1), max_size=40))
    conditions = frozenset(ordered[i] for i in picks)
    return SPhiPoset(p.phi, p.sig, conditions), _lists(draw, conditions)[1]


def _assert_matches_the_frozenset_versions(p, lists):
    """The mask poset against the frozenset versions in ``conftest``: the
    maximal conditions, the condition order, the canonical dense sets (now
    in condition order), density with its witness, and the generic filter."""
    ordered = reference_ordered(p)
    assert p.maximal == reference_maximal(p)
    assert tuple(p.masks) == ordered
    rank = {s: i for i, s in enumerate(ordered)}
    candidates = _candidates(p)
    expected = [reference_decision_set(p, atom) for atom in _atoms(p.sig)]
    if isinstance(p.phi, Or):
        expected.append(reference_commitment_set(p, p.phi))
    assert candidates == [sorted(d, key=rank.__getitem__) for d in expected]
    lists = candidates + lists
    for d in lists:
        for strict in (False, True):
            verdict = is_dense(d, p, strict=strict)
            assert (verdict.ok, verdict.witness) == reference_density(d, p, strict)
    for dense in ([], [d for d in lists if reference_density(d, p)[0]], lists):
        try:
            reference = reference_one_pass_filter(p, dense)
        except BoolkitError as exc:
            with pytest.raises(BoolkitError) as got:
                generic_filter(p, dense)
            assert str(got.value) == str(exc)
            continue
        g = generic_filter(p, dense)
        assert (g.members, g.maximal) == reference


def _outputs_under_hash_seeds(script, seeds):
    """The set of what the script prints, run once under each hash seed."""
    src = str(Path(syntax.__file__).resolve().parents[1])
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
        )
        for seed in seeds
    ]
    return {run.communicate(timeout=60)[0] for run in runs}


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

    def test_refuted_subsets_save_searches(self, monkeypatch):
        # a search-count pin: 3918 searches without the refuted-subset hint
        sessions = []

        class Recorded(compact.OracleSession):
            def __init__(self, budget=compact.DEFAULT_BUDGET):
                super().__init__(budget)
                sessions.append(self)

        monkeypatch.setattr(compact, "OracleSession", Recorded)
        p = _full_poset(*_target(*TARGETS[0]))
        assert len(p.conditions) == 1542
        assert [s.counters() for s in sessions] == [{
            "calls": 5390,
            "status_hits": 0,
            "refuted_hits": 3772,
            "hint_hits": 1472,
            "searches": 146,
            "nodes": 688,
        }]

    def test_inconsistent_target_rejected(self):
        sig = Signature(relations={}, base_constants={"a"}, fresh_constants=set())
        with pytest.raises(BoolkitError):
            build_sphi(And((Eq("a", "a"), Not(Eq("a", "a")))), sig, 2)


class TestDense:
    def test_whole_poset_dense(self, poset):
        assert is_dense(list(poset.conditions), poset).ok

    def test_a_canonical_condition_set_is_taken_as_it_is(self):
        f = Or((Eq("c1", "cw"), Eq("c0", "cw")))  # children out of rendering order
        canonical = frozenset({syntax.canon(f)})
        assert syntax.canon(f) is not f
        assert forcing._condition(canonical) is canonical
        for raw in (frozenset({f}), [syntax.canon(f)], {f}):
            assert forcing._condition(raw) == canonical and forcing._condition(raw) is not raw

    def test_a_dense_set_entry_that_is_a_condition_is_taken_as_it_is(self, poset, monkeypatch):
        f = Or((Eq("c1", "cw"), Eq("c0", "cw")))  # children out of rendering order
        poset = SPhiPoset(PHI, SIG, poset.conditions | {frozenset({syntax.canon(f)})})
        conditions = list(poset.masks)[:3]
        canonicalized = []
        condition = forcing._condition
        monkeypatch.setattr(
            forcing, "_condition", lambda s: canonicalized.append(s) or condition(s)
        )
        raw = [{f}, [syntax.canon(f)]]
        out = forcing._entries(conditions + raw, poset)
        # the conditions are looked up as they are, the other entries canonicalized
        assert canonicalized == raw
        assert out[:3] == [poset.masks[s] for s in conditions]
        assert out[3:] == [poset.masks[frozenset({syntax.canon(f)})]] * 2

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
        outputs = _outputs_under_hash_seeds(script, "01")
        # only the size-3 conditions are uncovered; the witness is the least of them
        sig = Signature(relations={"P": 1}, base_constants={"a", "b", "c"})
        p = build_sphi(syntax.parse("(or (P a) (not (= b c)))", sig), sig, 3)
        two = [s for s in p.conditions if len(s) == 2]
        uncovered = [s for s in p.conditions if not any(s <= t for t in two)]
        assert uncovered and all(len(s) == 3 for s in uncovered)
        least = min(sorted(map(syntax.render, s)) for s in uncovered)
        assert outputs == {f"False {least}\n"}

    def test_dense_sets_list_their_conditions_in_condition_order_under_every_hash_seed(self):
        # a formula's hash is a string hash, so frozenset order follows the seed
        script = (
            "from boolkit import forcing, syntax\n"
            "sig = syntax.Signature(relations={'P': 1}, base_constants={'a', 'b', 'c'})\n"
            "phi = syntax.parse('(or (P a) (not (= b c)))', sig)\n"
            "p = forcing.build_sphi(phi, sig, 3)\n"
            "for d in (forcing.dense_decision_set(p, syntax.parse('(P b)', sig)),\n"
            "          forcing.dense_commitment_set(p, phi)):\n"
            "    print([sorted(map(syntax.render, s)) for s in d])\n"
        )
        outputs = _outputs_under_hash_seeds(script, "012")
        sig = Signature(relations={"P": 1}, base_constants={"a", "b", "c"})
        phi = syntax.parse("(or (P a) (not (= b c)))", sig)
        p = build_sphi(phi, sig, 3)
        ordered = reference_ordered(p)
        expected = [
            [s for s in ordered if Atom("P", ("b",)) in s or Not(Atom("P", ("b",))) in s],
            [s for s in ordered if s & set(syntax.canon(phi).children)],
        ]
        assert all(len(d) > 1 for d in expected)
        assert outputs == {"".join(f"{[sorted(map(syntax.render, s)) for s in d]}\n" for d in expected)}

    def test_non_condition_rejected(self, poset):
        with pytest.raises(BoolkitError):
            is_dense([frozenset({Eq("c0", "c0")})], poset)

    @settings(max_examples=300, deadline=None)
    @given(families())
    def test_matches_the_pairwise_check(self, family):
        p, maximal, lists = family
        assert p.maximal == frozenset(maximal)
        for d in lists:
            for strict in (False, True):
                verdict = is_dense(d, p, strict=strict)
                assert (verdict.ok, verdict.witness) == reference_is_dense(d, p, strict)


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

    def test_membership_canonicalizes_the_set(self):
        sig = Signature(relations={"P": 1}, base_constants={"a", "b", "c"})
        phi = syntax.canon(syntax.parse("(or (P a) (not (= b c)))", sig))
        g = generic_filter(SPhiPoset(phi, sig, frozenset({frozenset(), frozenset({phi})})))
        raw = syntax.parse("(or (not (= b c)) (P a))", sig)  # phi, children unsorted
        assert syntax.canon(raw) is not raw and frozenset({raw}) not in g.members
        assert frozenset({raw}) in g and [raw] in g
        assert frozenset({Atom("P", ("a",))}) not in g

    @settings(max_examples=300, deadline=None)
    @given(families())
    def test_matches_the_restarting_saturation(self, family):
        p, _, dense = family
        try:
            expected = reference_generic_filter(p, dense)
        except ValueError:
            with pytest.raises(BoolkitError):
                generic_filter(p, dense)
            return
        g = generic_filter(p, dense)
        assert (g.members, g.maximal) == expected


class TestMaskPoset:
    @pytest.mark.parametrize("target", range(len(TARGETS)), ids=[t[0] for t in TARGETS])
    def test_matches_the_frozenset_versions_on_the_targets(self, target):
        _assert_matches_the_frozenset_versions(_target_poset(target), [])

    @settings(max_examples=200, deadline=None)
    @given(sub_posets())
    @example((SPhiPoset(PHI, SIG, frozenset()), [[]]))
    @example((SPhiPoset(PHI, SIG, frozenset({frozenset()})), [[], [frozenset()]]))
    def test_matches_the_frozenset_versions_on_sub_posets(self, case):
        _assert_matches_the_frozenset_versions(*case)

    @settings(max_examples=200, deadline=None)
    @given(families())
    def test_matches_the_frozenset_versions_on_small_posets(self, family):
        p, _, lists = family
        _assert_matches_the_frozenset_versions(p, lists)


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

    @pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
    def test_the_sentence_is_built_canonical(self, target):
        phi, sig = _target(*target)
        p = _full_poset(phi, sig)
        sentence = genericity_sentence(phi, _dense_sets(p), p)
        assert syntax.canon(sentence) is sentence
        # so the oracle session prepares the sentence without rebuilding it
        ground = compact._Ground(sig)
        assert ground.sentences[ground.prepare([sentence], False)[0][0]] is sentence

    def test_each_condition_has_one_conjunction_object(self):
        phi, sig = _target(*TARGETS[0])  # the 4-constant disjunction
        p = _full_poset(phi, sig)
        dense = _dense_sets(p)
        sentence = genericity_sentence(phi, dense, p)
        blocks = [b for b in sentence.children if b is not phi]
        assert len(blocks) == len(dense) == 7
        references = [c for b in blocks for c in b.children]
        objects = {id(c): c for c in references}
        conditions = {s for d in dense for s in d}
        assert len(objects) == len(conditions) == len(set(map(syntax.render, references)))
        assert len(references) > 3 * len(objects)


class TestGenericityConservativity:
    def test_the_session_counters_on_the_four_constant_target(self):
        # psi1 is asked only about the one maximal psi0-consistent set, all
        # four subsentences, and its witness is rotated in from the walk
        phi, sig = _target(*TARGETS[0])
        p = _full_poset(phi, sig)
        sentence = genericity_sentence(phi, _dense_sets(p), p)
        session = compact.OracleSession()
        report = is_conservative_strengthening(sentence, phi, sig, session=session)
        assert (report.conservative, report.checked_subsets) == (True, 2 ** 4)
        assert session.counters() == {
            "calls": 18,
            "status_hits": 8,
            "refuted_hits": 0,
            "hint_hits": 2,
            "searches": 8,
            "nodes": 26,
        }

    @pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
    def test_reports_match_a_search_for_every_subset(self, target, monkeypatch):
        phi, sig = _target(*target)
        p = _full_poset(phi, sig)
        sentence = genericity_sentence(phi, _dense_sets(p), p)
        queries = []
        status = compact.OracleSession.status

        def recorded(self, theory, sig, require_qe=False):
            result = status(self, theory, sig, require_qe)
            queries.append((theory[0], frozenset(theory[1:]), result))
            return result

        monkeypatch.setattr(compact.OracleSession, "status", recorded)
        report = is_conservative_strengthening(sentence, phi, sig)
        monkeypatch.undo()
        assert dataclasses.astuple(report) == reference_conservativity(sentence, phi, sig)
        # psi1 entails psi0, so no subset refuted with psi0 is asked with psi1
        refuted = {c for f, c, result in queries if f is phi and result == compact.INCONSISTENT}
        asked = {c for f, c, _ in queries if f is sentence}
        assert not refuted & asked
        if target[0] == "(or (P a) (not (= b c)))":
            assert frozenset({Eq("b", "c"), Not(Eq("b", "c"))}) in refuted
