import copy
import dataclasses
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boolkit import bvmodel, compact, syntax
from boolkit.compact import (
    Budget,
    CONSISTENT,
    INCONSISTENT,
    UNKNOWN,
    OracleSession,
    conjunction_closure,
    consistency_oracle,
    faicom_family,
    faicom_signature,
    first_order_compactness_demo,
    is_conservative_strengthening,
    is_finitely_conservative,
    compactness_run,
    lindenbaum_complete,
    materialize_compactness_property,
    replay_certificate,
    star_theory,
)
from boolkit.errors import BoolkitError, ResourceBudgetError, SignatureError
from boolkit.forcing import build_sphi, genericity_sentence
from boolkit.syntax import And, Atom, Eq, Exists, Forall, Not, Or, Signature, Theory

from conftest import (
    _ReferenceClosure,
    brute_force_satisfiable,
    kept_subsets,
    random_sentence,
    reference_conservativity,
    reference_kept_subsets,
    reference_search,
    reference_witness,
)
from test_acceptance import (
    _compactness_families,
    _genericity_dense_sets,
    _genericity_instances,
    _ground_theories,
)
from test_forcing import TARGETS, _full_poset, _target, _target_poset
from test_forcing import _dense_sets as _forcing_dense_sets

SIG = Signature(relations={"R": 1}, base_constants={"a", "b"}, fresh_constants={"e0", "e1"})
SIG_ABC = Signature(relations={"R": 1}, base_constants={"a", "b", "c"})
R_A, R_B, R_C = Atom("R", ("a",)), Atom("R", ("b",)), Atom("R", ("c",))
G = Or((Eq("a", "b"), And((Atom("R", ("a",)), Not(Eq("a", "c"))))))  # one object, shared


def pigeonhole(n):
    """Equality pigeonhole PHP(n): n+1 pairwise distinct pigeons, n holes."""
    pigeons = [f"p{i}" for i in range(n + 1)]
    holes = [f"h{j}" for j in range(n)]
    sig = Signature(relations={}, base_constants=set(pigeons + holes))
    sentences = [Or(tuple(Eq(p, h) for h in holes)) for p in pigeons]
    sentences += [Not(Eq(a, b)) for a, b in itertools.combinations(pigeons, 2)]
    return sentences, sig


@st.composite
def ground_sets(draw, constants=5, literals=8, formulas=6, leaves=6):
    """Ground sentences over 2 to ``constants`` constants with two unary
    relations and a binary one.  A prefix of up to ``literals`` relation
    literals is decided first, so a later equality merge can clash on several
    relation atoms at once; then 1 to ``formulas`` formulas of up to
    ``leaves`` atoms each."""
    consts = [f"k{i}" for i in range(draw(st.integers(2, constants)))]
    sig = Signature(relations={"P": 1, "R": 1, "S": 2}, base_constants=consts)
    c = st.sampled_from(consts)
    relation_atoms = st.one_of(
        st.builds(lambda r, x: Atom(r, (x,)), st.sampled_from(["P", "R"]), c),
        st.builds(lambda x, y: Atom("S", (x, y)), c, c),
    )
    relation_literals = st.one_of(relation_atoms, st.builds(Not, relation_atoms))
    formula = st.recursive(
        st.one_of(st.builds(Eq, c, c), relation_atoms),
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.lists(kids, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
            st.lists(kids, min_size=1, max_size=3).map(lambda cs: Or(tuple(cs))),
        ),
        max_leaves=leaves,
    )
    prefix = draw(st.lists(relation_literals, max_size=literals))
    return prefix + draw(st.lists(formula, min_size=1, max_size=formulas)), sig


@st.composite
def shared_ground_sets(draw):
    """Ground sets whose sentences share subformula objects: a pool starts
    from a ``ground_sets`` draw and grows by conjunctions and disjunctions
    of pool objects, each taken plain or negated, so an object recurs
    within and across sentences and under ``Not`` in both polarities."""
    sentences, sig = draw(ground_sets(constants=4, literals=3, formulas=3, leaves=4))
    pool = list(sentences)
    for _ in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3))
        kids = tuple(f if draw(st.booleans()) else Not(f) for f in picks)
        pool.append(draw(st.sampled_from([And, Or]))(kids))
    shared = draw(st.sampled_from(pool))
    theory = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    return theory + [Or((Not(shared), pool[-1])), Not(And((shared, Not(pool[-1]))))], sig


class TestOracle:
    def test_reflexive_consistent(self):
        v = consistency_oracle([Eq("a", "a")], SIG)
        assert v.status == CONSISTENT

    def test_witness_satisfies_input(self):
        sents = [Atom("R", ("a",)), Not(Eq("a", "b"))]
        v = consistency_oracle(sents, SIG)
        assert v.status == CONSISTENT
        for f in sents:
            assert bvmodel.holds(v.witness, f)

    def test_faicom_three_inconsistent(self):
        sig = faicom_signature(3)
        v = consistency_oracle(faicom_family(3), sig)
        assert v.status == INCONSISTENT
        assert replay_certificate(v.certificate, faicom_family(3), sig)

    def test_faicom_minus_one_inequality_consistent(self):
        sig = faicom_signature(3)
        fam = list(faicom_family(3))
        rest = fam[1:]  # drop c0 != c3
        v = consistency_oracle(rest, sig)
        assert v.status == CONSISTENT
        assert bvmodel.holds(v.witness, fam[-1])

    @settings(max_examples=120, deadline=None)
    @given(ground_sets(constants=4, literals=3, formulas=4, leaves=4))
    @example(  # inconsistent only through transitivity and congruence
        (
            [Eq("k0", "k1"), Eq("k1", "k2"), Or((Not(Eq("k0", "k2")), Atom("R", ("k0",))))]
            + [Not(Atom("R", ("k2",)))],
            Signature(relations={"R": 1}, base_constants={"k0", "k1", "k2"}),
        )
    )
    def test_agrees_with_brute_force(self, case):
        sentences, sig = case
        expected = CONSISTENT if brute_force_satisfiable(sentences, sig) else INCONSISTENT
        verdict = consistency_oracle(sentences, sig)
        assert verdict.status == expected
        if verdict.status == INCONSISTENT:
            assert replay_certificate(verdict.certificate, sentences, sig)

    def test_unknown_on_tiny_budget(self):
        sig = Signature(relations={"R": 2}, base_constants={"a", "b", "c", "d"})
        sentences = [
            Or((Atom("R", (x, y)), Not(Atom("R", (y, x)))))
            for x, y in itertools.product("abcd", repeat=2)
        ]
        v = consistency_oracle(sentences, sig, Budget(oracle_nodes=2))
        assert v.status == UNKNOWN

    def test_cached_verdict_respects_the_callers_budget(self):
        # a session is bound to one budget, so no answer crosses caps
        sentences, sig = pigeonhole(4)
        small = OracleSession(Budget(oracle_nodes=50))
        assert small.verdict(sentences, sig).status == UNKNOWN
        decided = OracleSession().verdict(sentences, sig)
        assert decided.status == INCONSISTENT and decided.budget_used > 50
        assert small.verdict(sentences, sig).status == UNKNOWN
        assert small.status(sentences, sig) == UNKNOWN
        exact = consistency_oracle(sentences, sig, Budget(oracle_nodes=decided.budget_used))
        assert (exact.status, exact.budget_used) == (INCONSISTENT, decided.budget_used)

    def test_cached_unknown_reports_the_callers_cap(self):
        sentences, sig = pigeonhole(4)
        assert OracleSession(Budget(oracle_nodes=30)).verdict(sentences, sig).budget_used == 31
        smaller = OracleSession(Budget(oracle_nodes=10)).verdict(sentences, sig)
        assert (smaller.status, smaller.budget_used) == (UNKNOWN, 11)

    def test_quantified_reduces_via_naming(self):
        sig = Signature(relations={"R": 1}, base_constants={"d"}, fresh_constants={"e"})
        # every element named: an R-witness must be nameable
        v = consistency_oracle(
            [Exists(("?x",), Atom("R", ("?x",))), Not(Atom("R", ("e",))), Not(Atom("R", ("d",)))],
            sig,
        )
        assert v.status == INCONSISTENT

    def test_quantified_needs_fresh_pool(self):
        sig = Signature(relations={"R": 1}, base_constants={"d"})
        with pytest.raises(BoolkitError):
            consistency_oracle([Exists(("?x",), Atom("R", ("?x",)))], sig)

    @pytest.mark.parametrize("require_qe", [False, True])
    def test_a_term_that_is_no_declared_constant_raises(self, require_qe):
        for f in (Eq("?x", "a"), Atom("R", ("d",)), And((Atom("R", ("a",)), Eq("a", "?y")))):
            with pytest.raises(SignatureError, match="undeclared term"):
                consistency_oracle([f], SIG, require_qe=require_qe)
            with pytest.raises(SignatureError, match="undeclared term"):
                OracleSession().status([Atom("R", ("a",)), f], SIG, require_qe=require_qe)
            # the same once a subset's witness lets the hint check read f first
            warm = OracleSession()
            assert warm.status([R_A], SIG, require_qe=require_qe) == CONSISTENT
            with pytest.raises(SignatureError, match="undeclared term"):
                warm.status([R_A, f], SIG, require_qe=require_qe)


class TestSearchTree:
    """The path-closure search must walk the tree the rebuild-per-node
    reference walks: same node count, certificate and witness."""

    @settings(max_examples=300, deadline=None)
    @given(ground_sets(), st.one_of(st.none(), st.integers(1, 50)))
    @example(  # merging a and b clashes on all four relations
        (
            [Atom(r, ("a",)) for r in "RPQS"]
            + [Not(Atom(r, ("b",))) for r in "RPQS"]
            + [Eq("a", "b")],
            Signature(relations=dict.fromkeys("RPQS", 1), base_constants={"a", "b"}),
        ),
        None,
    )
    @example(  # a != b is forced; its refuted side a = b clashes on R
        (
            [R_A, Not(R_B), Or((Not(R_A), R_B, Not(Eq("a", "b")))), Or((Eq("a", "b"), Eq("a", "b")))],
            Signature(relations={"R": 1}, base_constants={"a", "b"}),
        ),
        None,
    )
    @example(pigeonhole(3), None)  # pigeon disjunctions lose leaves to merges
    @example(  # merging a and b falsifies both R(b) leaves, equal tuples, by relabelling
        (
            [Not(R_A), Not(R_C), Not(Eq("b", "c")), Or((Eq("a", "b"), Eq("a", "c"))),
             Or((Eq("b", "c"), R_B, Atom("R", ("b",)), R_C))],
            SIG_ABC,
        ),
        None,
    )
    @example(  # G is a top-level disjunction and inside the second sentence
        ([G, Or((And((G, Eq("b", "c"))), Not(R_B))), Not(Eq("a", "b"))], SIG_ABC), None
    )
    def test_matches_the_rebuild_per_node_search(self, case, cap):
        sentences, sig = case
        budget = Budget() if cap is None else Budget(oracle_nodes=cap)
        verdict = consistency_oracle(sentences, sig, budget)
        from boolkit import certify  # here: report_digests.py imports this file on old checkouts

        ground, _ = certify.prepare_ground(sentences, sig)
        constants = sorted(sig.constants)
        status, nodes, assignment, certificate = reference_search(
            ground, constants, budget.oracle_nodes
        )
        assert (verdict.status, verdict.budget_used) == (status, nodes)
        assert verdict.certificate == certificate
        if status == CONSISTENT:
            expected = reference_witness(assignment, constants, sig)
            assert bvmodel.model_to_json(verdict.witness) == bvmodel.model_to_json(expected)
        if status == INCONSISTENT:
            assert replay_certificate(verdict.certificate, sentences, sig)
            assert len(list(_nodes(verdict.certificate))) == nodes

    @settings(max_examples=300, deadline=None)
    @given(shared_ground_sets(), st.one_of(st.none(), st.integers(1, 50)))
    @example(  # G in both polarities, within one sentence and across three
        ([Or((Not(G), Not(R_B))), And((G, R_B)), Or((G, Not(G)))], SIG_ABC), None
    )
    def test_shared_subformulas_walk_the_tree_of_the_unshared_search(self, case, cap):
        sentences, sig = case
        budget = Budget() if cap is None else Budget(oracle_nodes=cap)
        verdict = consistency_oracle(sentences, sig, budget)
        from boolkit import certify  # here: report_digests.py imports this file on old checkouts

        ground, _ = certify.prepare_ground(sentences, sig)
        constants = sorted(sig.constants)
        status, nodes, assignment, certificate = reference_search(
            ground, constants, budget.oracle_nodes
        )
        assert (verdict.status, verdict.budget_used) == (status, nodes)
        assert json.dumps(verdict.certificate) == json.dumps(certificate)
        if status == CONSISTENT:
            expected = reference_witness(assignment, constants, sig)
            assert bvmodel.model_to_json(verdict.witness) == bvmodel.model_to_json(expected)

    def test_compiles_one_node_per_object_and_polarity(self):
        g = Or((Eq("b", "a"), Atom("R", ("a",))))
        ground = compact._Ground(SIG)
        numbers = ground.prepare([And((g, Not(g))), Or((g, Atom("R", ("b",))))], False)[0]
        first, second = (ground.compiled(n) for n in numbers)
        negated, plain = first[1]  # "(not ..." renders before "(or ..."
        assert second[1][1] is plain and plain[0] == "or" and negated[0] == "and"
        assert plain[1][0] == ("eq", True, ("eq", "a", "b"))
        assert negated[1][0] == ("eq", False, ("eq", "a", "b"))
        # g is reached twice at its plain polarity, once negated
        assert plain[2] is not None and negated[2] is None and first[2] is None
        assert ground.compiled(numbers[0]) is first

    def test_compiles_one_leaf_per_literal_object_and_polarity(self):
        phi, sig = _target(*TARGETS[0])  # the 4-constant disjunction
        p = _target_poset(0)
        sentence = genericity_sentence(phi, _forcing_dense_sets(p), p)
        ground = compact._Ground(sig)
        numbers = ground.prepare([sentence, Not(phi)], False)[0]
        literals, stack, seen = set(), [(sentence, True), (Not(phi), True)], set()
        while stack:
            f, sign = stack.pop()
            while isinstance(f, Not):
                f, sign = f.body, not sign
            if not isinstance(f, (And, Or)):
                literals.add((id(f), sign))
            elif (id(f), sign) not in seen:
                seen.add((id(f), sign))
                stack.extend((c, sign) for c in f.children)
        leaves, reached, stack, seen = {}, 0, [ground.compiled(n) for n in numbers], set()
        while stack:
            node = stack.pop()
            if type(node) is tuple:
                leaves[id(node)] = node
                reached += 1
            elif id(node) not in seen:
                seen.add(id(node))
                stack.extend(node[1])
        # 6,693 leaves reached (6,690 in the sentence), 21 leaf tuples, 12 distinct literals
        assert reached > 6000 and len(set(leaves.values())) == 12
        assert len(leaves) <= len(literals) < 40

    @pytest.mark.parametrize("target", range(len(TARGETS)), ids=[t[0] for t in TARGETS])
    def test_genericity_sentences_match_the_rebuild_per_node_search(self, target):
        # the sentence alone, as its consistency is checked, and with the
        # target negated, as conservativity asks first; one session compiles both
        phi, sig = _target(*TARGETS[target])
        p = _target_poset(target)
        sentence = genericity_sentence(phi, _forcing_dense_sets(p), p)
        session, constants = OracleSession(), sorted(sig.constants)
        from boolkit import certify  # here: report_digests.py imports this file on old checkouts

        for sentences in ([sentence], [sentence, Not(phi)]):
            verdict = session.verdict(sentences, sig)
            ground, _ = certify.prepare_ground(sentences, sig)
            status, nodes, assignment, certificate = reference_search(
                ground, constants, Budget().oracle_nodes
            )
            assert (verdict.status, verdict.budget_used) == (status, nodes)
            assert json.dumps(verdict.certificate) == json.dumps(certificate)
            if status == CONSISTENT:
                expected = reference_witness(assignment, constants, sig)
                assert bvmodel.model_to_json(verdict.witness) == bvmodel.model_to_json(expected)
            else:
                assert replay_certificate(verdict.certificate, sentences, sig)
        assert verdict.status == INCONSISTENT  # the sentence entails the target

    def test_a_quantifier_reaching_the_compiler_raises(self):
        ground = compact._Ground(SIG)
        for quantified in (Exists(("?x",), R_A), Not(Forall(("?x",), R_A))):
            n = ground.number(And((R_A, Or((Not(R_A), quantified)))))
            with pytest.raises(BoolkitError) as exc:
                ground.compiled(n)
            body = quantified.body if isinstance(quantified, Not) else quantified
            assert str(exc.value) == f"non-ground sentence reached the ground solver: {body!r}"

    @pytest.mark.parametrize("instance", range(5))
    def test_a_shared_genericity_sentence_answers_as_its_unshared_copy(self, instance):
        sig, phi, bound = _genericity_instances()[instance]
        p = build_sphi(phi, sig, size_bound=bound)
        sentence = genericity_sentence(phi, _genericity_dense_sets(p), p)
        copy = syntax.parse(syntax.render(sentence), sig)
        shared, unshared = consistency_oracle([sentence], sig), consistency_oracle([copy], sig)
        fields = ("status", "budget_used", "certificate")
        assert [getattr(shared, k) for k in fields] == [getattr(unshared, k) for k in fields]
        witness = shared.witness
        assert bvmodel.model_to_json(witness) == bvmodel.model_to_json(unshared.witness)
        rng = random.Random(instance)
        for m in [witness] + [bvmodel.random_model(sig, rng) for _ in range(8)]:
            assert bvmodel.eval_formula(m, sentence) == bvmodel.eval_formula(m, copy)

    @pytest.mark.parametrize(
        "n, caps", [(3, range(1, 44)), (4, [*range(1, 148, 7), 148, 149])], ids=["php3", "php4"]
    )
    def test_every_cap_stops_where_the_rebuild_per_node_search_stops(self, n, caps):
        # every cap on PHP(3), so one lands on each refuted side closed inline
        sentences, sig = pigeonhole(n)
        from boolkit import certify  # here: report_digests.py imports this file on old checkouts

        ground, _ = certify.prepare_ground(sentences, sig)
        constants = sorted(sig.constants)
        for cap in caps:
            verdict = consistency_oracle(sentences, sig, Budget(oracle_nodes=cap))
            status, nodes, _, certificate = reference_search(ground, constants, cap)
            assert (verdict.status, verdict.budget_used) == (status, nodes), cap
            assert verdict.certificate == certificate

    def test_a_refuted_side_is_closed_without_assigning_its_atom(self, monkeypatch):
        # every node but the root was one assignment before (42/148/680/3954);
        # a unit's refuted side on an equality-only theory is now none
        assigned = []
        assign = compact._PathClosure.assign

        def spy(closure, key, value):
            assigned.append(key)
            return assign(closure, key, value)

        monkeypatch.setattr(compact._PathClosure, "assign", spy)
        for n, expected in [(3, 26), (4, 97), (5, 459), (6, 2696)]:
            sentences, sig = pigeonhole(n)
            assigned.clear()
            assert consistency_oracle(sentences, sig).status == INCONSISTENT
            assert len(assigned) == expected

    @pytest.mark.parametrize("n, nodes", [(3, 43), (4, 149), (5, 681), (6, 3955)])
    def test_pigeonhole_ladder_node_counts(self, n, nodes):
        sentences, sig = pigeonhole(n)
        verdict = consistency_oracle(sentences, sig)
        assert (verdict.status, verdict.budget_used) == (INCONSISTENT, nodes)
        assert len(list(_nodes(verdict.certificate))) == nodes

    def test_pigeonhole_seven_decides_under_the_default_budget(self):
        sentences, sig = pigeonhole(7)
        verdict = consistency_oracle(sentences, sig)
        assert (verdict.status, verdict.budget_used) == (INCONSISTENT, 27455)
        assert len(list(_nodes(verdict.certificate))) == 27455
        assert replay_certificate(verdict.certificate, sentences, sig)

    def test_capped_pigeonhole_stops_one_node_past_the_cap(self):
        sentences, sig = pigeonhole(7)
        verdict = consistency_oracle(sentences, sig, Budget(oracle_nodes=5000))
        assert (verdict.status, verdict.budget_used) == (UNKNOWN, 5001)


def _nodes(node, address=(), path=None):
    """Every node of a certificate with its address (the branch names that
    lead to it) and the atom assignment of its path."""
    path = {} if path is None else path
    yield node, address, path
    if "atom" in node:
        kind, x, y = node["atom"]
        key = ("rel", x, tuple(y)) if kind == "rel" else (kind, x, y)
        for truth, branch in ((True, "true"), (False, "false")):
            yield from _nodes(node[branch], address + (branch,), {**path, key: truth})


def _mutant(certificate, address, replacement):
    """A copy of the certificate with the node at ``address`` replaced."""
    if not address:
        return replacement
    mutant = copy.deepcopy(certificate)
    parent = mutant
    for branch in address[:-1]:
        parent = parent[branch]
    parent[address[-1]] = replacement
    return mutant


def _sentence_leaf(index):
    return {"conflict": {"kind": "sentence", "index": index}}


# the refutation of [R(a), not R(a)]
SPLIT_R_A = {"atom": ["rel", "R", ["a"]], "true": _sentence_leaf(1), "false": _sentence_leaf(0)}


def _split(atom):
    """A split on ``atom`` above the refutation of [R(a), not R(a)] in both
    branches: it closes, so only the atom itself can be at fault."""
    return {"atom": atom, "true": SPLIT_R_A, "false": SPLIT_R_A}


MALFORMED = {
    "list": [],
    "no-keys": {"nope": 1},
    "index-5": _sentence_leaf(5),
    "index-negative": _sentence_leaf(-1),
    "index-bool": _sentence_leaf(True),
    "index-str": {"conflict": {"kind": "sentence", "index": "0"}},
    "conflict-none": {"conflict": None},
    "unknown-kind": {**SPLIT_R_A, "true": {"conflict": {"kind": "clash"}}},
    "undeclared-constant": _split(["rel", "R", ["zz"]]),
    "wrong-arity": _split(["rel", "R", ["a", "b"]]),
    "undeclared-relation": _split(["rel", "Q", ["a"]]),
    "undeclared-eq-constant": _split(["eq", "a", "zz"]),
    "unhashable-constant": _split(["eq", ["a"], "b"]),
    "unhashable-relation": _split(["rel", ["R"], ["a"]]),
    "unknown-atom-kind": _split(["lt", "a", "b"]),
    "atom-string": _split("R(a)"),
    "nested-resplit": {**SPLIT_R_A, "true": SPLIT_R_A},
    "missing-branch": {"atom": ["rel", "R", ["a"]], "true": _sentence_leaf(1)},
}


class TestReplay:
    """The certificate checker accepts the oracle's refutations and rejects,
    without raising, every malformed or mutated certificate."""

    def test_accepts_a_refutation_and_its_json_round_trip(self):
        theory = [R_A, Not(R_A)]
        certificate = consistency_oracle(theory, SIG).certificate
        assert replay_certificate(certificate, theory, SIG)
        assert replay_certificate(json.loads(json.dumps(certificate)), theory, SIG)

    @pytest.mark.parametrize(
        "certificate",
        list(MALFORMED.values()),
        ids=list(MALFORMED),
    )
    def test_rejects_a_malformed_certificate(self, certificate):
        assert replay_certificate(certificate, [R_A, Not(R_A)], SIG) is False

    def test_a_clash_leaf_closes_only_under_its_own_kind(self):
        # a = e0 and e0 = b below a != b: the search never splits on an atom
        # the path decides, so this equality clash is built by hand
        eq_theory = [Not(Eq("a", "b")), Eq("a", "e0"), Eq("e0", "b")]
        eq_clash = {
            "atom": ["eq", "a", "b"],
            "true": _sentence_leaf(0),
            "false": {
                "atom": ["eq", "a", "e0"],
                "true": {
                    "atom": ["eq", "b", "e0"],
                    "true": {"conflict": {"kind": "eq-closure"}},
                    "false": _sentence_leaf(2),
                },
                "false": _sentence_leaf(1),
            },
        }
        cases = [
            (eq_theory, eq_clash, "eq-closure"),
            ([R_A, Not(Atom("R", ("b",))), Eq("a", "b")], None, "rel-congruence"),
        ]
        for theory, certificate, kind in cases:
            certificate = certificate or consistency_oracle(theory, SIG).certificate
            assert replay_certificate(certificate, theory, SIG)
            other = {"eq-closure": "rel-congruence", "rel-congruence": "eq-closure"}[kind]
            clashes = [
                address
                for node, address, _ in _nodes(certificate)
                if node.get("conflict", {}).get("kind") == kind
            ]
            assert clashes
            for address in clashes:
                mutant = _mutant(certificate, address, {"conflict": {"kind": other}})
                assert replay_certificate(mutant, theory, SIG) is False

    @pytest.mark.parametrize(
        "theory, sig", [pigeonhole(3), (list(faicom_family(3)), faicom_signature(3))],
        ids=["php3", "faicom3"],
    )
    def test_rejects_every_mutant_of_a_refutation(self, theory, sig):
        certificate = consistency_oracle(theory, sig).certificate
        assert replay_certificate(certificate, theory, sig)
        from boolkit import certify  # here: report_digests.py imports this file on old checkouts

        ground, _ = certify.prepare_ground(theory, sig)
        constants = sorted(sig.constants)
        mutants = {"moved index": [], "missing branch": [], "changed kind": []}
        for node, address, path in _nodes(certificate):
            mutants["missing branch"].append(_mutant(certificate, address, None))
            if node.get("conflict", {}).get("kind") != "sentence":
                continue
            closure = _ReferenceClosure(constants, path)
            assert closure.conflict is None
            for index, f in enumerate(ground):
                if closure.value(f) is not False:
                    mutants["moved index"].append(
                        _mutant(certificate, address, _sentence_leaf(index))
                    )
            for kind in ("eq-closure", "rel-congruence"):
                leaf = {"conflict": {"kind": kind, "detail": "mutant"}}
                mutants["changed kind"].append(_mutant(certificate, address, leaf))
        for kind, cases in mutants.items():
            assert cases, kind
            for mutant in cases:
                assert replay_certificate(mutant, theory, sig) is False, kind

    def test_shares_no_code_with_the_solver(self):
        src = str(Path(compact.__file__).resolve().parents[1])
        code = "import sys, boolkit.certify; print(*sorted(m for m in sys.modules if 'boolkit' in m))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True,
        ).stdout.split()
        assert out == ["boolkit", "boolkit.certify", "boolkit.errors", "boolkit.syntax"]

    def test_prepare_ground_matches_the_session(self):
        # imported here, so that report_digests.py can import this module on an older checkout
        from boolkit import certify

        cases = [pigeonhole(n) for n in (3, 4, 5)]
        for n in range(2, 7):
            family = list(faicom_family(n))
            cases += [(family[:i] + family[i + 1:], faicom_signature(n)) for i in range(n + 1)]
            cases.append((family, faicom_signature(n)))
        cases += [(list(theory), sig) for sig, theory in _ground_theories()]
        cases += [([f], Q_SIG) for f in QUANTIFIED] + [(QUANTIFIED, Q_SIG)]
        # instances whose conjuncts sort apart from the quantified body's
        s2 = Signature(relations={"S": 2}, base_constants={"a", "b"}, fresh_constants={"e0", "e1"})
        cases.append(([Exists(("?x",), And((Atom("S", ("?x", "b")), Atom("S", ("a", "?x")))))], s2))
        session = OracleSession()  # shared, so later cases meet prepared entries again
        for require_qe in (False, True):
            for theory, sig in cases:
                ground = session._ground(sig)
                numbers, qe_applied, _ = ground.prepare(theory, require_qe)
                sentences, applied = certify.prepare_ground(theory, sig, require_qe)
                quantified = not all(map(syntax.is_quantifier_free, theory))
                assert applied == qe_applied == (require_qe or quantified)
                rendered = [syntax.render(ground.sentences[n]) for n in numbers]
                assert [syntax.render(f) for f in sentences] == rendered
                naming = syntax.naming_constraints(sig) if applied else []
                assert sentences[len(theory):] == naming

    def test_the_suite_replays_every_refutation(self, replayed_refutations):
        before = replayed_refutations["replayed"]
        assert consistency_oracle(faicom_family(3), faicom_signature(3)).status == INCONSISTENT
        assert consistency_oracle(list(faicom_family(3))[1:], faicom_signature(3))
        assert replayed_refutations["replayed"] == before + 1


# two base constants and one fresh one: a quantified sentence expands over
# three constants, so a pair has few subsentences
Q_SIG = Signature(relations={"P": 1}, base_constants={"a", "b"}, fresh_constants={"e"})
VALID = [Exists(("?x",), Eq("?x", "a")), Forall(("?x",), Eq("?x", "?x"))]
QUANTIFIED = VALID + [Forall(("?x",), Atom("P", ("?x",)))]


@st.composite
def conservativity_pairs(draw):
    """(psi1, psi0, max_subset) over ``Q_SIG``, ground or quantified: psi1
    is psi0 and one more conjunct, or a sentence of its own, or, where only
    psi0 is quantified, psi0 less a valid quantified conjunct; max_subset
    is between 1 and the number of psi0's subsentences."""
    c = st.sampled_from(["a", "b", "e"])
    leaf = st.one_of(st.builds(Eq, c, c), st.builds(lambda x: Atom("P", (x,)), c))
    ground = st.recursive(
        leaf,
        lambda kids: st.one_of(
            st.builds(Not, kids),
            st.lists(kids, min_size=2, max_size=2).map(lambda cs: And(tuple(cs))),
            st.lists(kids, min_size=2, max_size=2).map(lambda cs: Or(tuple(cs))),
        ),
        max_leaves=2,
    )
    sentence = st.one_of(ground, ground, st.sampled_from(QUANTIFIED))
    shape = draw(st.sampled_from(["extra", "extra", "own", "split"]))
    if shape == "split":
        psi1 = draw(ground)
        psi0 = And((draw(st.sampled_from(VALID)), psi1))
    else:
        psi0 = draw(sentence)
        psi1 = And((psi0, draw(sentence))) if shape == "extra" else draw(sentence)
    subs = syntax.subsentences(psi0, Q_SIG)
    return psi1, psi0, draw(st.integers(1, len(subs)))


# psi0-consistent sets are maximal at two of three subsentences, and psi1
# refutes the one with the negated atom
EXCLUDED_MIDDLE = (
    And((Or((Atom("P", ("a",)), Not(Atom("P", ("a",))))), Atom("P", ("a",)))),
    Or((Atom("P", ("a",)), Not(Atom("P", ("a",))))),
    3,
)


class TestConservative:
    def test_identity(self):
        f = Or((Eq("a", "b"), Atom("R", ("a",))))
        report = is_conservative_strengthening(f, f, SIG)
        assert report.conservative

    def test_equivalent_strengthening_checked_exhaustively(self):
        psi0 = Atom("R", ("a",))
        psi1 = And((psi0, Or((psi0,))))
        report = is_conservative_strengthening(psi1, psi0, SIG)
        assert report.conservative
        assert report.checked_subsets > 0

    def test_remark_pair_not_conservative(self):
        sig = faicom_signature(2)
        psi0 = Or((Eq("c2", "c0"), Eq("c2", "c1")))
        psi1 = And((psi0, Not(Eq("c0", "c2"))))
        report = is_conservative_strengthening(psi1, psi0, sig)
        assert report.entailment_ok
        assert not report.conservative
        # psi1 refutes the maximal psi0-consistent set, which holds both
        # disjuncts, so the ordered scan runs and names the first violation
        assert report.violating_subset == frozenset({Eq("c2", "c0")})
        assert report.checked_subsets == 2
        assert dataclasses.astuple(report) == reference_conservativity(psi1, psi0, sig)

    def test_fresh_tautology_conjunct_conservative(self):
        psi0 = Atom("R", ("a",))
        psi1 = And((psi0, Eq("b", "b")))
        report = is_conservative_strengthening(psi1, psi0, SIG)
        assert report.conservative

    def test_non_entailing_rejected(self):
        report = is_conservative_strengthening(Atom("R", ("a",)), Atom("R", ("b",)), SIG)
        assert not report.entailment_ok
        assert not report.conservative

    def test_a_quantified_target_over_a_ground_strengthening_searches_both(self):
        # only psi0 is quantified, so {psi0} + C carries the naming
        # constraints and {psi1} + C may not: refuting the first does not
        # refute the second
        sig = Signature(relations={}, base_constants={"a", "b", "c"}, fresh_constants={"e1", "e2"})
        distinct = (Not(Eq("a", "b")), Not(Eq("b", "c")), Not(Eq("a", "c")))
        psi0 = And((Forall(("?x",), Eq("?x", "?x")),) + distinct)
        psi1 = And(distinct)
        report = is_conservative_strengthening(psi1, psi0, sig)
        assert dataclasses.astuple(report) == reference_conservativity(psi1, psi0, sig)
        assert report.violating_subset == frozenset()

    @settings(max_examples=100, deadline=None)
    @given(conservativity_pairs())
    @example(EXCLUDED_MIDDLE)
    def test_reports_as_a_search_for_every_subset(self, case):
        psi1, psi0, max_subset = case
        budget = Budget(max_subset=max_subset)
        report = is_conservative_strengthening(psi1, psi0, Q_SIG, budget)
        assert dataclasses.astuple(report) == reference_conservativity(psi1, psi0, Q_SIG, budget)

    @settings(max_examples=100, deadline=None)
    @given(conservativity_pairs(), st.integers(2, 20))
    def test_capped_reports_agree_when_decided(self, case, cap):
        psi1, psi0, max_subset = case
        capped = Budget(oracle_nodes=cap, max_subset=max_subset)
        report = dataclasses.astuple(is_conservative_strengthening(psi1, psi0, Q_SIG, capped))
        reference = reference_conservativity(psi1, psi0, Q_SIG, capped)
        if not report[-1] and not reference[-1]:
            assert report == reference
        # a decided report is the uncapped one
        if not report[-1]:
            uncapped = Budget(max_subset=max_subset)
            assert report == reference_conservativity(psi1, psi0, Q_SIG, uncapped)

    def test_an_unknown_status_in_the_walk_falls_back_to_the_scan(self, monkeypatch):
        # as if a capped search left {psi0, not P(a)} undecided: the walk
        # cannot tell which sets are maximal, and the scan reports Unknown
        psi1, psi0, _ = EXCLUDED_MIDDLE
        undecided = {psi0, Not(Atom("P", ("a",)))}
        status = OracleSession.status

        def capped(self, theory, sig, require_qe=False):
            if set(theory) == undecided:
                return UNKNOWN
            return status(self, theory, sig, require_qe)

        monkeypatch.setattr(OracleSession, "status", capped)
        report = is_conservative_strengthening(psi1, psi0, Q_SIG)
        assert (report.conservative, report.unknown, report.checked_subsets) == (False, True, 3)

    def test_a_refuted_target_agrees_on_every_subset(self):
        psi0 = And((Eq("a", "b"), Not(Eq("a", "b"))))
        psi1 = And((psi0, Atom("R", ("a",))))
        session = OracleSession()
        report = is_conservative_strengthening(psi1, psi0, SIG, session=session)
        assert dataclasses.astuple(report) == reference_conservativity(psi1, psi0, SIG)
        assert report.conservative and report.checked_subsets == 2 ** 3
        # the entailment and psi0 alone; psi1 is asked about no subset
        assert session.calls == 2

    def test_bounded_run_labelled(self):
        psi0 = Or((Eq("a", "b"), Atom("R", ("a",))))
        psi1 = And((psi0, Or((psi0,))))
        report = is_conservative_strengthening(psi1, psi0, SIG, Budget(max_subset=1))
        assert report.bounded


class TestFiniteConservativity:
    def test_singleton_conjunction(self):
        t = [Atom("R", ("a",)), Not(Eq("a", "b"))]
        family = [And(tuple(t))]
        verdict = is_finitely_conservative(family, SIG)
        assert verdict.ok

    def test_faicom_closure_fails_with_remark_witness(self):
        sig = faicom_signature(2)
        family = conjunction_closure(faicom_family(2))
        verdict = is_finitely_conservative(family, sig)
        assert not verdict.ok
        assert verdict.reason == "conjunction is not conservative over a conjunct"
        disj = syntax.canon(Or((Eq("c2", "c0"), Eq("c2", "c1"))))
        assert verdict.base == disj
        assert syntax.conjuncts(verdict.member) >= {disj}
        assert verdict.report.violating_subset is not None

    def test_closure_violation_detected(self):
        phi, psi = Atom("R", ("a",)), Atom("R", ("b",))
        family = [phi, psi]  # missing the pair conjunction
        verdict = is_finitely_conservative(family, SIG)
        assert not verdict.ok
        assert verdict.reason == "not closed under finite conjunctions"

    def test_empty_family_rejected(self):
        verdict = is_finitely_conservative([], SIG)
        assert (verdict.ok, verdict.reason, verdict.unknown) == (False, "empty family", False)

    def test_family_without_a_consistent_member_rejected(self):
        clash = And((Atom("R", ("a",)), Not(Atom("R", ("a",)))))
        verdict = is_finitely_conservative([clash, Not(Eq("a", "a"))], SIG)
        assert (verdict.ok, verdict.reason, verdict.unknown) == (
            False, "no Boolean consistent member", False
        )

    def test_passing_family_is_finitely_consistent(self):
        gens = [Atom("R", ("a",)), Not(Eq("a", "b"                                                                 ))]
        family = conjunction_closure(gens)
        verdict = is_finitely_conservative(family, SIG)
        assert verdict.ok
        for size in range(1, len(family) + 1):
            for combo in itertools.combinations(family, size):
                assert consistency_oracle(list(combo), SIG).status == CONSISTENT


class TestCompactnessRun:
    def test_singleton_family(self):
        f = Atom("R", ("a",))
        result = compactness_run([f], SIG)
        assert bvmodel.eval_formula(result.model, f) == result.model.algebra.one

    def test_three_generator_family(self):
        gens = [Atom("R", ("a",)), Not(Eq("a", "b")), Or((Atom("R", ("a",)), Atom("R", ("b",))))]
        family = conjunction_closure(gens)
        result = compactness_run(family, SIG)
        one = result.model.algebra.one
        assert bvmodel.eval_formula(result.model, result.conjunction) == one
        assert all(r.conservative for r in result.reports.values())
        # cross-check against the oracle on the union
        assert consistency_oracle(gens, SIG).status == CONSISTENT

    def test_rejects_non_conservative_family(self):
        sig = faicom_signature(2)
        family = conjunction_closure(faicom_family(2))
        with pytest.raises(BoolkitError):
            compactness_run(family, sig)

    def test_universe_bound_is_a_budget_error(self):
        ra, rb = Atom("R", ("a",)), Atom("R", ("b",))
        with pytest.raises(ResourceBudgetError) as exc:
            materialize_compactness_property([And((ra, rb)), ra, rb], SIG, Budget(max_members=2))
        assert str(exc.value) == "compactness universe exceeds the bound of 2 sentences"

    def test_reports_reverify_independently(self):
        gens = [Atom("R", ("a",)), Atom("R", ("b",))]
        family = conjunction_closure(gens)
        result = compactness_run(family, SIG)
        for key, report in result.reports.items():
            member = syntax.parse(key, SIG)
            fresh = is_conservative_strengthening(result.conjunction, member, SIG)
            assert fresh.conservative == report.conservative


class TestStarTheory:
    def test_star_signs_subsentences(self):
        witness = consistency_oracle(
            [Atom("R", ("a",)), Not(Eq("a", "b"))], SIG
        ).witness
        phi = Or((Eq("a", "b"), Atom("R", ("a",))))
        (star,) = star_theory(witness, [phi], SIG)
        key = syntax.conjuncts(star)
        assert syntax.canon(phi) in key
        assert syntax.canon(Not(Eq("a", "b"))) in key
        assert Atom("R", ("a",)) in key

    def test_false_generator_rejected(self):
        witness = consistency_oracle([Not(Atom("R", ("a",)))], SIG).witness
        with pytest.raises(BoolkitError):
            star_theory(witness, [Atom("R", ("a",))], SIG)

    def test_closure_is_finitely_conservative(self):
        witness = consistency_oracle(
            [Atom("R", ("a",)), Not(Eq("a", "b"))], SIG
        ).witness
        gens = [Atom("R", ("a",)), Or((Atom("R", ("a",)), Atom("R", ("b",))))]
        stars = star_theory(witness, gens, SIG)
        family = conjunction_closure(stars)
        assert is_finitely_conservative(family, SIG).ok

    def test_star_equivalent_to_generators(self):
        witness = consistency_oracle([Atom("R", ("a",))], SIG).witness
        gens = [Atom("R", ("a",))]
        stars = star_theory(witness, gens, SIG)
        conj = And(tuple(stars))
        # stars entail the generators
        assert consistency_oracle([conj, Not(gens[0])], SIG).status == INCONSISTENT
        # generators plus the witness facts entail every star conjunct
        facts = []
        for c in sorted(SIG.constants):
            for d in sorted(SIG.constants):
                f = Eq(c, d)
                facts.append(f if bvmodel.holds(witness, f) else Not(f))
        for name, arity in SIG.relations.items():
            for combo in itertools.product(sorted(SIG.constants), repeat=arity):
                f = Atom(name, combo)
                facts.append(f if bvmodel.holds(witness, f) else Not(f))
        for conjunct in syntax.conjuncts(stars[0]):
            v = consistency_oracle(facts + list(gens) + [Not(conjunct)], SIG)
            assert v.status == INCONSISTENT, syntax.render(conjunct)


class TestLindenbaum:
    def test_completion_decides_every_atom(self):
        completed = lindenbaum_complete([Not(Eq("a", "b"))], SIG)
        rendered = {syntax.render(f) for f in completed}
        for c, d in itertools.combinations(sorted(SIG.constants), 2):
            assert (
                syntax.render(Eq(c, d)) in rendered
                or syntax.render(syntax.canon(Not(Eq(c, d)))) in rendered
            )

    def test_inconsistent_input_rejected(self):
        with pytest.raises(BoolkitError):
            lindenbaum_complete([Eq("a", "b"), Not(Eq("a", "b"))], SIG)


class TestFirstOrderCompactness:
    def test_distinct_pair(self):
        sig = Signature(relations={}, base_constants={"a", "b", "c"}, fresh_constants={"e"})
        t = Theory([Not(Eq("a", "b"))])
        model = first_order_compactness_demo(t, sig)
        assert model.algebra.atom_count == 1
        assert bvmodel.holds(model, Not(Eq("a", "b")))

    def test_four_pairwise_distinct(self):
        names = ["a", "b", "c", "d"]
        sig = Signature(relations={}, base_constants=set(names), fresh_constants={"e"})
        t = Theory([Not(Eq(x, y)) for x, y in itertools.combinations(names, 2)])
        model = first_order_compactness_demo(t, sig)
        interpretations = {model.consts[n] for n in names}
        assert len(interpretations) == 4

    def test_inconsistent_pair_rejected_with_subset(self):
        sig = Signature(relations={}, base_constants={"a", "b"}, fresh_constants={"e"})
        t = Theory([Eq("a", "b"), Not(Eq("a", "b"))])
        with pytest.raises(BoolkitError, match="inconsistent finite subset"):
            first_order_compactness_demo(t, sig)

    def test_the_reported_subset_keeps_only_what_the_contradiction_needs(self):
        sig = Signature(relations={"P": 1, "Q": 1}, base_constants={"a", "b"}, fresh_constants={"e"})
        pa, qb, ab, not_pb = Atom("P", ("a",)), Atom("Q", ("b",)), Eq("a", "b"), Not(Atom("P", ("b",)))
        core = compact._minimal_inconsistent_subset([pa, qb, ab, not_pb], sig, compact.OracleSession())
        assert core == [pa, ab, not_pb]
        assert not brute_force_satisfiable(core, sig)
        for size in range(len(core)):
            for subset in itertools.combinations(core, size):
                assert brute_force_satisfiable(list(subset), sig), subset
        rendered = "; ".join(syntax.render(f) for f in core)
        with pytest.raises(BoolkitError, match=f"inconsistent finite subset: {re.escape(rendered)}$"):
            first_order_compactness_demo(Theory([pa, qb, ab, not_pb]), sig)


class TestFaicom:
    def test_family_shape(self):
        fam = list(faicom_family(2))
        assert Not(Eq("c0", "c2")) in fam
        assert Or((Eq("c2", "c0"), Eq("c2", "c1"))) in fam

    def test_one_is_already_inconsistent(self):
        sig = faicom_signature(1)
        assert consistency_oracle(faicom_family(1), sig).status == INCONSISTENT

    def test_all_single_deletions_consistent(self):
        for n in (2, 3):
            sig = faicom_signature(n)
            fam = list(faicom_family(n))
            assert consistency_oracle(fam, sig).status == INCONSISTENT
            for i in range(len(fam)):
                rest = fam[:i] + fam[i + 1 :]
                assert consistency_oracle(rest, sig).status == CONSISTENT

    def test_rejects_zero(self):
        with pytest.raises(BoolkitError):
            faicom_family(0)


K_SIG = Signature(relations={"S": 2}, base_constants={"k0", "k1", "k2"})


class TestOracleSession:
    def test_permuted_repeat_replays_its_own_certificate(self):
        s00, s01 = Atom("S", ("k0", "k0")), Atom("S", ("k0", "k1"))
        first = [s00, Not(s01), Not(s00)]
        permuted = [s00, Not(s00), Not(s01)]
        session = OracleSession()
        assert replay_certificate(session.verdict(first, K_SIG).certificate, first, K_SIG)
        verdict = session.verdict(permuted, K_SIG)
        assert verdict.status == INCONSISTENT
        assert replay_certificate(verdict.certificate, permuted, K_SIG)

    def test_statuses_are_kept_per_set_and_verdicts_always_search(self):
        sentences = [Atom("R", ("a",)), Not(Eq("a", "b"))]
        session = OracleSession()
        verdict = session.verdict(sentences, SIG)
        again = session.verdict(sentences, SIG)
        assert again is not verdict and again.status == verdict.status == CONSISTENT
        assert session.status(sentences[::-1], SIG) == CONSISTENT
        assert session.counters() == {
            "calls": 3,
            "status_hits": 1,
            "refuted_hits": 0,
            "hint_hits": 0,
            "searches": 2,
            "nodes": verdict.budget_used + again.budget_used,
        }

    def test_equal_signatures_share_one_ground(self):
        session = OracleSession()
        same = Signature(SIG.relations, SIG.base_constants, SIG.fresh_constants)
        star = compact.star_signature(SIG)
        ground = session._ground(SIG)
        assert session._ground(same) is ground
        star_ground = session._ground(star)
        assert star_ground is not ground
        # alternating between the two, each keeps its own ground
        assert session._ground(SIG) is ground and session._ground(star) is star_ground

    def test_a_session_and_a_budget_are_not_both_given(self):
        with pytest.raises(TypeError):
            compactness_run([Atom("R", ("a",))], SIG, Budget(), session=OracleSession())

    @settings(max_examples=100, deadline=None)
    @given(ground_sets(), st.booleans(), st.randoms(use_true_random=False))
    def test_status_agrees_with_a_fresh_search(self, case, reduced, rng):
        sentences, sig = case
        if reduced:
            # the last two constants become the fresh pool, so every query
            # also carries the naming constraints of the others
            consts = sorted(sig.constants)
            sig = Signature(sig.relations, consts[:-2], consts[-2:])
        universe = sentences[:6]
        session = OracleSession()
        # depth-first over subsets, as materialization asks: each query is a
        # set already found consistent plus one later sentence, in any order
        stack = [((), 0)]
        queries = 0
        while stack and queries < 40:
            subset, start = stack.pop()
            for j in range(start, len(universe)):
                ext = [*subset, universe[j]]
                rng.shuffle(ext)
                hints, refuted = session.hint_hits, session.refuted_hits
                status = session.status(ext, sig, require_qe=reduced)
                queries += 1
                assert status == consistency_oracle(ext, sig, require_qe=reduced).status
                ground = session._ground(sig)
                numbers = ground.prepare(ext, reduced)[0]
                prepared = [ground.sentences[n] for n in numbers]
                key = sum(1 << n for n in set(numbers))  # the set's mask
                if session.hint_hits > hints:
                    witness = ground.witnesses[key]
                    assert all(bvmodel.holds(witness, f) for f in prepared)
                if session.refuted_hits > refuted:
                    assert any(
                        ground.statuses.get(key & ~(1 << n)) == INCONSISTENT for n in numbers
                    )
                if status == CONSISTENT:
                    stack.append((tuple(ext), j + 1))

    def test_a_witness_decides_a_set_the_capped_search_leaves_unknown(self):
        sig = Signature(relations={}, base_constants={"a", "b", "c", "d"})
        ab = Not(Eq("a", "b"))
        bc_or_cd = Or((Not(Eq("b", "c")), Not(Eq("c", "d"))))
        capped = Budget(oracle_nodes=3)
        # a != b is forced, then b = c is tried first, which forces c != d
        # past the cap
        assert consistency_oracle([ab, bc_or_cd], sig, capped).status == UNKNOWN
        session = OracleSession(capped)
        assert session.status([ab], sig) == CONSISTENT
        # the witness of {a != b} has b != c, so no search is made
        assert session.status([ab, bc_or_cd], sig) == CONSISTENT
        assert (session.hint_hits, session.searches) == (1, 1)
        # a verdict always carries its own search
        assert session.verdict([ab, bc_or_cd], sig).status == UNKNOWN

    def test_a_refuted_subset_decides_a_set_the_capped_search_leaves_unknown(self):
        sig = Signature(relations={}, base_constants={"a", "b", "c", "d", "e"})
        ab, not_ab = Eq("a", "b"), Not(Eq("a", "b"))
        cd = Eq("c", "d")
        capped = Budget(oracle_nodes=3)
        # the forced c = d goes first, which leaves the refuted side of
        # a = b past the cap
        assert consistency_oracle([cd, ab, not_ab], sig, capped).status == UNKNOWN
        session = OracleSession(capped)
        assert session.status([ab, not_ab], sig) == INCONSISTENT
        assert session.status([cd, ab, not_ab], sig) == INCONSISTENT
        assert (session.refuted_hits, session.searches) == (1, 1)
        # a verdict always carries its own search
        assert session.verdict([cd, ab, not_ab], sig).status == UNKNOWN

    # R(a) alone, and with a != b, end in one model; a = b or b = c in another
    Q1, Q2, Q3 = [R_A], [And((R_A, Not(Eq("a", "b"))))], [Or((Eq("a", "b"), Eq("b", "c")))]

    def test_sets_ending_in_one_model_share_one_witness(self):
        session = OracleSession()
        queries = (self.Q1, self.Q2, self.Q3, self.Q1 + self.Q2, self.Q2 + self.Q3)
        assert [session.status(q, SIG_ABC) for q in queries] == [CONSISTENT] * 5
        ground = session._ground(SIG_ABC)
        w1, w2, w3, w12, w23 = (ground.witnesses[ground.prepare(q, False)[2]] for q in queries)
        assert w1 is w2 is w12
        assert w3 is not w1 and w23 not in (w1, w3)
        assert list(ground.models.values()) == [w1, w3, w23]
        # the same counters as when each search built its own witness
        assert session.counters() == {
            "calls": 5,
            "status_hits": 0,
            "refuted_hits": 0,
            "hint_hits": 1,
            "searches": 4,
            "nodes": 11,
        }

    def test_a_new_witness_is_checked_against_each_sentence(self, monkeypatch):
        false_r = bvmodel.two_valued_model(["a", "b", "c"], {"R": 1}, [])
        monkeypatch.setattr(compact._Ground, "witness", lambda ground, model: false_r)
        with pytest.raises(BoolkitError, match=re.escape(syntax.render(R_A))):
            OracleSession().status(self.Q1, SIG_ABC)

    def test_a_reused_witness_is_checked_against_each_new_sentence(self):
        session = OracleSession()
        assert session.status(self.Q1, SIG_ABC) == CONSISTENT
        ground = session._ground(SIG_ABC)
        (model,) = ground.models
        # R(a) holds here, but Q2's a != b does not
        merged = bvmodel.two_valued_model(["a", "b", "c"], {"R": 1}, [R_A, Eq("a", "b")])
        ground.models[model] = merged
        with pytest.raises(BoolkitError, match=re.escape(syntax.render(self.Q2[0]))):
            session.status(self.Q2, SIG_ABC)
        assert ground.holds[(id(merged), ground.prepare(self.Q2, False)[0][0])] is False

    def test_counters_are_deterministic_and_witnesses_save_searches(self, monkeypatch):
        sessions = []

        class Recorded(OracleSession):
            def __init__(self, budget=compact.DEFAULT_BUDGET):
                super().__init__(budget)
                sessions.append(self)

        monkeypatch.setattr(compact, "OracleSession", Recorded)
        sig = Signature(relations={}, base_constants={"c0", "c1", "c2"}, fresh_constants={"w"})
        theory = Theory([Not(Eq("c0", "c1")), Eq("c1", "c2")])
        runs = []
        for _ in range(2):
            sessions.clear()
            first_order_compactness_demo(theory, sig)
            # the demo threads one session through the whole pipeline
            assert len(sessions) == 1
            runs.append(sessions[0].counters())
        assert runs[0] == runs[1]
        # answering only repeats of a sentence set takes 777 searches here
        assert runs[0]["searches"] < 777

    DEMOS = {
        "B-c0c1-c0c1-c1c2": (
            {"B": 2}, 3, [Atom("B", ("c0", "c1")), Not(Eq("c0", "c1")), Eq("c1", "c2")]
        ),
        "c0c1-c1c2-six": ({}, 6, [Not(Eq("c0", "c1")), Eq("c1", "c2")]),
    }
    # sha256 over each demo's status queries in order, each with its answer:
    # a function of the theory, whatever witness or certificate a search finds
    DEMO_QUERIES = {
        "B-c0c1-c0c1-c1c2": "7690f5378200479ce635f22123b733d5e2ba7b442bb794954534113ee71a23af",
        "c0c1-c1c2-six": "8881c1c90e402aa96d444f3a50b813e8e9082a6fb2be0421ec01a16d7de773af",
    }
    # the demo's session counters: calls, status, refuted and hint hits,
    # searches and nodes
    DEMO_COUNTERS = {
        "B-c0c1-c0c1-c1c2": (2718, 36, 0, 2659, 23, 125),
        "c0c1-c1c2-six": (773, 19, 0, 724, 30, 170),
    }

    @staticmethod
    def _demo(name, monkeypatch):
        """The demo's session counters, and a digest of its status queries
        in order, each with its answer."""
        relations, constants, theory = TestOracleSession.DEMOS[name]
        sessions, digest = [], hashlib.sha256()
        status = OracleSession.status

        class Recorded(OracleSession):
            def __init__(self, budget=compact.DEFAULT_BUDGET):
                super().__init__(budget)
                sessions.append(self)

            def status(self, theory, sig, require_qe=False):
                result = status(self, theory, sig, require_qe)
                digest.update(repr(([syntax.render(f) for f in theory], result)).encode())
                return result

        monkeypatch.setattr(compact, "OracleSession", Recorded)
        names = {f"c{i}" for i in range(constants)}
        sig = Signature(relations=relations, base_constants=names, fresh_constants={"w"})
        first_order_compactness_demo(Theory(theory), sig)
        # the demo threads one session through the whole pipeline
        (session,) = sessions
        return tuple(session.counters().values()), digest.hexdigest()

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_the_demo_asks_the_same_queries(self, name, monkeypatch):
        assert self._demo(name, monkeypatch)[1] == self.DEMO_QUERIES[name]

    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_the_demo_session_counters(self, name, monkeypatch):
        # a pin of every answer's source (cache, refuted subset, witness or
        # search) and of the nodes searched
        assert self._demo(name, monkeypatch)[0] == self.DEMO_COUNTERS[name]

    def test_the_suite_audits_every_status_answer(self, replayed_refutations):
        count = replayed_refutations
        before = (count["consistent"], count["inconsistent"])
        sig = Signature(relations={}, base_constants={"a", "b", "c", "d", "e"})
        ab, not_ab = Eq("a", "b"), Not(Eq("a", "b"))
        cd_or_ce = Or((Eq("c", "d"), Eq("c", "e")))
        session = OracleSession()
        assert session.status([ab, not_ab], sig) == INCONSISTENT
        assert session.status([cd_or_ce, ab, not_ab], sig) == INCONSISTENT
        assert session.status([ab], sig) == CONSISTENT
        assert session.status([ab, cd_or_ce], sig) == CONSISTENT
        assert session.status([ab], sig) == CONSISTENT
        assert (session.status_hits, session.refuted_hits, session.searches) == (1, 1, 3)
        assert (count["consistent"], count["inconsistent"]) == (before[0] + 3, before[1] + 2)


class TestKeptSubsets:
    def test_yields_the_kept_subsets_reached_through_kept_prefixes(self):
        universe = tuple(range(6))
        asked = []

        def keep(ext):
            asked.append(ext)
            return sum(ext) <= 6

        got = list(kept_subsets(universe, keep))
        expected = [
            c for k in range(7) for c in itertools.combinations(universe, k) if sum(c) <= 6
        ]
        assert sorted(got) == sorted(expected) and len(got) == len(set(got))
        assert got[0] == ()
        # each kept subset is asked about once, and its extensions only after it
        assert sorted(asked) == sorted(
            s + (i,) for s in got for i in universe if not s or i > s[-1]
        )
        assert list(kept_subsets(universe, lambda ext: True, 1)) == [
            (), (5,), (4,), (3,), (2,), (1,), (0,)
        ]

    # sha256 over each run's status queries in order, each with its answer,
    # and the run's result, as the stack walks that ``kept_subsets``
    # replaced produced them
    WALKS = {
        "build_sphi": "bca33645989a5678e7dfa57f89392362f830774e729295be78a063cd9e90601a",
        "saturate_theory": "cc009a6e5c9af80769060db1687659498f8db80e91987879d2963d5cb9493752",
        "materialize_compactness_property": "3d3379be53d6799a1752efa26d922fdac337632c507fd0be5ad4f8e5cdc79ff3",
    }
    # each walk's session counters, summed over its runs: calls, status,
    # refuted and hint hits, searches and nodes
    WALK_COUNTERS = {
        "build_sphi": (7140, 11, 4708, 2161, 260, 1134),
        "saturate_theory": (2518, 1245, 482, 601, 190, 740),
        "materialize_compactness_property": (334, 40, 1, 209, 84, 227),
    }

    @staticmethod
    def _runs(name):
        """Zero-argument calls, each giving one run's result as JSON."""
        from test_acceptance import _compactness_families, _model_existence_instances

        from boolkit import consprop

        if name == "build_sphi":
            return [lambda t=t: _full_poset(*_target(*t)).to_json() for t in TARGETS]
        if name == "saturate_theory":
            return [
                lambda sig=sig, t=t: consprop.saturate_theory(t, sig).to_json()
                for sig, t in _model_existence_instances()
            ]
        return [
            lambda sig=sig, f=conjunction_closure(gens): (
                compact.materialize_compactness_property(f, sig).to_json()
            )
            for sig, gens in _compactness_families()
        ]

    @staticmethod
    def _walk(name, monkeypatch):
        """The digest of a walk's queries, answers and results, and its
        session counters summed over its runs."""
        digest = hashlib.sha256()
        sessions = []
        init, status = compact.OracleSession.__init__, compact.OracleSession.status

        def recorded_init(self, budget=compact.DEFAULT_BUDGET):
            init(self, budget)
            sessions.append(self)

        def recorded_status(self, theory, sig, require_qe=False):
            result = status(self, theory, sig, require_qe)
            digest.update(repr(([syntax.render(f) for f in theory], result)).encode())
            return result

        monkeypatch.setattr(compact.OracleSession, "__init__", recorded_init)
        monkeypatch.setattr(compact.OracleSession, "status", recorded_status)
        for run in TestKeptSubsets._runs(name):
            digest.update(json.dumps(run(), sort_keys=True).encode())
        totals = [sum(values) for values in zip(*(s.counters().values() for s in sessions))]
        return digest.hexdigest(), tuple(totals)

    @pytest.mark.parametrize("name", sorted(WALKS))
    def test_walks_ask_the_oracle_as_before(self, name, monkeypatch):
        assert self._walk(name, monkeypatch)[0] == self.WALKS[name]

    @pytest.mark.parametrize("name", sorted(WALK_COUNTERS))
    def test_walk_session_counters(self, name, monkeypatch):
        assert self._walk(name, monkeypatch)[1] == self.WALK_COUNTERS[name]

    class _Recorded(OracleSession):
        """A session that keeps each status query, rendered, with its answer."""

        def __init__(self, budget=compact.DEFAULT_BUDGET):
            super().__init__(budget)
            self.stream = []

        def status(self, theory, sig, require_qe=False):
            answer = super().status(theory, sig, require_qe)
            self.stream.append(([syntax.render(f) for f in theory], answer))
            return answer

    DIFF_SIG = Signature(
        relations={"P": 1, "R": 2}, base_constants={"a", "b"}, fresh_constants={"e"}
    )

    @pytest.mark.parametrize("seed", range(4))
    def test_the_session_walk_asks_as_the_replaced_walk(self, seed):
        rng, sig = random.Random(seed), self.DIFF_SIG
        seen = {"kept": 0, "unknown": 0, "plain frame": 0, "reduced frame": 0}
        for _ in range(15):
            sentences = [random_sentence(sig, rng, 2) for _ in range(9)]
            quantified = [f for f in sentences if not syntax.is_quantifier_free(f)]
            plain = [f for f in sentences if syntax.is_quantifier_free(f)]
            universe = plain[:4] + quantified[:2]
            rng.shuffle(universe)
            head, tail = plain[4 : 4 + rng.randint(0, 1)], quantified[2 : 2 + rng.randint(0, 1)]
            require_qe, max_size = rng.random() < 0.5, rng.choice([None, 1, 2, 3])
            budget = Budget(oracle_nodes=rng.choice([2, 3, 200_000]))
            runs = []
            for walk in (OracleSession.kept_subsets, reference_kept_subsets):
                session = self._Recorded(budget)
                root = session.status([*head, *tail], sig, require_qe=require_qe)
                got = []
                if root == CONSISTENT:
                    got = list(walk(session, universe, sig, head, tail, max_size, require_qe))
                runs.append((got, session.stream, session.counters()))
            assert runs[0] == runs[1]
            got = runs[0][0]
            seen["kept"] += sum(status == CONSISTENT for _, status in got)
            seen["unknown"] += sum(status == UNKNOWN for _, status in got)
            # a plain frame's walk turns reduced at its quantified sentences
            seen["reduced frame" if require_qe or tail else "plain frame"] += bool(got)
        # each seed walks kept and Unknown sets, from either frame
        assert min(seen.values()) > 0, seen

    def test_a_quantifier_free_sentence_is_its_own_ground_sentence(self):
        # the walk carries a quantifier-free sentence's own number into a
        # reduced query, which ``qe_transform`` of it must not change
        rng, sig = random.Random(3), self.DIFF_SIG
        plain = [syntax.canon(random_sentence(sig, rng, 3)) for _ in range(300)]
        plain = [f for f in plain if syntax.is_quantifier_free(f)]
        assert len(plain) > 50
        assert all(syntax.canon(syntax.qe_transform(f, sig)) == f for f in plain)

    def test_materialization_raises_at_the_walk_query_left_unknown(self):
        # the criterion-8 family {R a, not a = b, R a or R b} under a 3-node
        # cap: the anchor walk meets an undecided set at the 37th query, as
        # the stateless walk did
        sig, gens = _compactness_families()[3]
        session = self._Recorded(Budget(oracle_nodes=3))
        with pytest.raises(ResourceBudgetError, match="^oracle unknown while materializing$"):
            materialize_compactness_property(conjunction_closure(gens), sig, session=session)
        assert session.stream[-1] == (
            ["(R a)", "(R b)", "(and (not (= a b)) (or (R a) (R b)))"], UNKNOWN
        )
        assert tuple(session.counters().values()) == (37, 6, 0, 17, 14, 38)
