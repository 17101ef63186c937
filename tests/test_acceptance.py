"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its elapsed time and asserting the stated budget."""
import itertools
import random
import time

from boolkit import bvmodel, consprop, syntax
from boolkit.balg import ro_completion, ultrafilters
from boolkit.bvmodel import (
    check_fullness,
    check_mixing,
    eval_formula,
    mixing_completion,
    mixing_witness_catalog,
    quotient_model,
    random_model,
)
from boolkit.compact import (
    CONSISTENT,
    INCONSISTENT,
    compactness_run,
    conjunction_closure,
    consistency_oracle,
    faicom_family,
    faicom_signature,
    first_order_compactness_demo,
    is_conservative_strengthening,
    is_finitely_conservative,
    lindenbaum_complete,
    star_theory,
)
from boolkit.forcing import (
    build_sphi,
    dense_commitment_set,
    dense_decision_set,
    generic_filter,
    genericity_sentence,
    is_dense,
    meets_equivalence,
    term_model,
)
from boolkit.syntax import And, Atom, Eq, Exists, Forall, Not, Or, Signature, Theory

from conftest import (
    ReferencePoset,
    classical_eval,
    random_model_with_qe,
    random_sentence,
    sentence_catalog,
)
from test_proofs import mutations, proof_corpus

SIG = Signature(relations={"R": 1}, base_constants={"c0", "c1"}, fresh_constants={"e0"})


def _finish(number, description, started, cap_seconds, ok=True):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < cap_seconds else "FAIL"
    print(f"[{status}] criterion {number:2d}: {description} — {elapsed:.2f}s (< {cap_seconds}s)")
    assert ok, f"criterion {number} failed"
    assert elapsed < cap_seconds, f"criterion {number} exceeded {cap_seconds}s"


def test_criterion_01_nnf_semantics():
    started = time.time()
    rng = random.Random(101)
    for _ in range(500):
        m = random_model(SIG, rng, max_atoms=3, max_domain=3)
        f = random_sentence(SIG, rng, rng.randint(1, 4))
        assert eval_formula(m, syntax.nnf(f)) == eval_formula(m, f)
        assert eval_formula(m, syntax.nnf_step(f)) == eval_formula(m, Not(f))
    _finish(1, "negation normal form preserves values on 500 pairs", started, 60)


def test_criterion_02_two_valued_collapse():
    started = time.time()
    rng = random.Random(202)
    for _ in range(500):
        m = random_model(SIG, rng, max_atoms=1, max_domain=3)
        f = random_sentence(SIG, rng, rng.randint(1, 4))
        assert (eval_formula(m, f) == m.algebra.one) == classical_eval(m, f)
    _finish(2, "two-valued evaluation matches the classical reference on 500 pairs", started, 30)


def test_criterion_03_qe_fact():
    started = time.time()
    sig = Signature(
        relations={"R": 1}, base_constants={"d0"}, fresh_constants={"e0", "e1", "e2"}
    )
    rng = random.Random(303)
    axiom = syntax.qe_axiom(sig)
    fixed_catalog = [
        Exists(("?x",), Eq("?x", "d0")),
        Forall(("?x",), Or((Eq("?x", "d0"), Not(Eq("?x", "d0"))))),
        Exists(("?x",), Atom("R", ("?x",))),
        Forall(("?x",), Exists(("?y",), Eq("?x", "?y"))),
        Not(Exists(("?x",), And((Atom("R", ("?x",)), Not(Eq("?x", "e0")))))),
    ]
    for _ in range(100):
        m = random_model_with_qe(sig, rng, max_atoms=3)
        assert eval_formula(m, axiom) == m.algebra.one
        catalog = fixed_catalog + [random_sentence(sig, rng, 3) for _ in range(3)]
        for psi in catalog:
            assert eval_formula(m, psi) == eval_formula(m, syntax.qe_transform(psi, sig))
    _finish(3, "with the naming axiom at value 1 the transform preserves values", started, 60)


def _near_miss_models():
    out = []
    from boolkit.balg import FiniteBooleanAlgebra

    b = FiniteBooleanAlgebra(2)
    dom = ("x", "y")
    eq = {("x", "x"): b.one, ("y", "y"): b.one, ("x", "y"): 0, ("y", "x"): 0}
    consts = {"c0": "x", "c1": "y", "e0": "x"}
    out.append(bvmodel.BValuedModel(b, dom, eq, {"R": {("x",): 0, ("y",): 0}}, consts))
    out.append(
        bvmodel.BValuedModel(b, dom, eq, {"R": {("x",): 0b01, ("y",): 0b10}}, consts)
    )
    out.append(
        bvmodel.BValuedModel(b, dom, eq, {"R": {("x",): 0b01, ("y",): 0}}, consts)
    )
    dom3 = ("x", "y", "z")
    eq_id3 = {(p, q): (b.one if p == q else 0) for p in dom3 for q in dom3}
    out.append(bvmodel.BValuedModel(b, dom3, eq_id3, {}, {"c0": "x", "c1": "y", "e0": "z"}))
    b3 = FiniteBooleanAlgebra(3)
    dom3 = ("x", "y")
    eq3 = {("x", "x"): b3.one, ("y", "y"): b3.one, ("x", "y"): 0, ("y", "x"): 0}
    out.append(
        bvmodel.BValuedModel(
            b3, dom3, eq3, {"R": {("x",): 0b001, ("y",): 0b110}}, consts
        )
    )
    return out


def test_criterion_04_mixing_fullness_equivalence():
    started = time.time()
    rng = random.Random(404)
    # mixing completions are full
    for _ in range(50):
        m = random_model(SIG, rng, max_atoms=2, max_domain=2)
        mc = mixing_completion(m)
        catalog = mixing_witness_catalog(mc.algebra.atom_count)
        catalog += bvmodel.existential_catalog(SIG, limit=4)
        assert check_fullness(mc, catalog).ok
    # fullness with two-mixing and a disjoint pair forces mixing
    instances = [random_model(SIG, rng, max_atoms=2, max_domain=3) for _ in range(50)]
    near_misses = _near_miss_models()
    misclassified = 0
    hypotheses_held = 0
    for m in instances + near_misses:
        catalog = mixing_witness_catalog(m.algebra.atom_count)
        full = check_fullness(m, catalog).ok
        two_mix = check_mixing(m, 2).ok
        pair = any(m.eq[(a, b)] == 0 for a in m.domain for b in m.domain)
        mixes = check_mixing(m, m.algebra.atom_count).ok
        if full and two_mix and pair:
            hypotheses_held += 1
            if not mixes:
                misclassified += 1
    for m in near_misses:
        assert not check_mixing(m, m.algebra.atom_count).ok
    assert misclassified == 0
    assert hypotheses_held > 0
    _finish(4, "mixing gives fullness; fullness plus two-mixing gives mixing", started, 120)


def test_criterion_05_quotient_los():
    started = time.time()
    rng = random.Random(505)
    catalog = sentence_catalog(SIG, depth=3, limit=20)
    checked = 0
    for _ in range(50):
        m = random_model(SIG, rng, max_atoms=2, max_domain=2)
        mc = mixing_completion(m)
        assert check_mixing(mc, mc.algebra.atom_count).ok
        for filt in ultrafilters(mc.algebra):
            q = quotient_model(mc, filt)
            for phi in catalog:
                assert (eval_formula(mc, phi) in filt) == (
                    eval_formula(q, phi) == q.algebra.one
                )
            checked += 1
    assert checked >= 50
    _finish(5, "a value lies in the ultrafilter exactly when the quotient satisfies", started, 120)


def test_criterion_06_faicom_replication():
    started = time.time()
    for n in range(2, 7):
        sig = faicom_signature(n)
        family = list(faicom_family(n))
        assert consistency_oracle(family, sig).status == INCONSISTENT
        for i in range(len(family)):
            rest = family[:i] + family[i + 1 :]
            assert consistency_oracle(rest, sig).status == CONSISTENT
        verdict = is_finitely_conservative(conjunction_closure(family), sig)
        assert not verdict.ok
        assert verdict.reason == "conjunction is not conservative over a conjunct"
        disj = syntax.canon(Or(tuple(Eq(f"c{n}", f"c{i}") for i in range(n))))
        member_key = syntax.conjuncts(verdict.member)
        assert disj in member_key
        assert any(
            syntax.canon(Not(Eq(f"c{i}", f"c{n}"))) in member_key
            for i in range(n)
        )
        assert verdict.base == disj
        witness = verdict.report.violating_subset
        assert witness is not None
        assert all(isinstance(f, Eq) for f in witness)
    _finish(6, "the truncated counterexample family behaves exactly as computed", started, 60)


def _model_existence_instances():
    sig_cd = Signature(relations={}, base_constants=set(), fresh_constants={"c", "d"})
    sig_p = Signature(relations={"P": 1}, base_constants=set(), fresh_constants={"c0", "c1"})
    sig3 = Signature(relations={}, base_constants=set(), fresh_constants={"c", "d", "e"})
    instances = [
        (sig_cd, Theory([])),
        (sig_cd, Theory([Eq("c", "d")])),
        (sig_cd, Theory([Not(Eq("c", "d"))])),
        (sig_cd, Theory([Or((Eq("c", "d"),))])),
        (sig_p, Theory([])),
        (sig_p, Theory([Atom("P", ("c0",))])),
        (sig_p, Theory([Not(Atom("P", ("c0",)))])),
        (sig_p, Theory([Atom("P", ("c0",)), Not(Eq("c0", "c1"))])),
        (sig_p, Theory([Atom("P", ("c0",)), Atom("P", ("c1",))])),
        (sig_p, Theory([Or((Atom("P", ("c0",)), Atom("P", ("c1",))))])),
        (sig_p, Theory([Exists(("?x",), Atom("P", ("?x",)))])),
        (sig_p, Theory([Exists(("?x",), Not(Atom("P", ("?x",))))])),
        (sig_p, Theory([Forall(("?x",), Atom("P", ("?x",)))])),
        (sig_p, Theory([And((Atom("P", ("c0",)), Not(Eq("c0", "c1"))))])),
        (sig_p, Theory([Forall(("?x",), Or((Atom("P", ("?x",)),)))])),
        (sig_p, Theory([Eq("c0", "c1"), Atom("P", ("c0",))])),
        (sig3, Theory([Not(Eq("c", "d"))])),
        (sig3, Theory([Eq("c", "d"), Not(Eq("c", "e"))])),
        (sig_cd, Theory([Or((Eq("c", "d"), Not(Eq("c", "d"))))])),
        (sig_p, Theory([Not(Exists(("?x",), Atom("P", ("?x",))))])),
    ]
    return instances


def test_criterion_07_model_existence():
    started = time.time()
    instances = _model_existence_instances()
    assert len(instances) >= 20
    for sig, theory in instances:
        universe = consprop.closure_universe(theory, sig, bound=64)
        assert len(universe) <= 12, (len(universe), [syntax.render(f) for f in theory])
        prop = consprop.saturate_theory(theory, sig)
        assert len(prop) > 0
        assert consprop.verify_consistency_property(prop).ok
        model, diagnostics = consprop.model_from_consprop(prop)
        members = sorted(
            prop.members, key=lambda s: (len(s), sorted(map(syntax.render, s)))
        )
        poset = ReferencePoset(members, leq=lambda a, b: b <= a)
        ro = ro_completion(poset)
        for k, s in enumerate(members):
            conj = And(tuple(sorted(s, key=syntax.render)))
            assert model.algebra.leq(ro.cone[k], eval_formula(model, conj))
    _finish(7, "saturated theories verify and their models realize every member", started, 300)


def _compactness_families():
    sig_r = Signature(relations={"R": 1}, base_constants={"a", "b"}, fresh_constants={"e0", "e1"})
    sig_q = Signature(relations={"Q": 1}, base_constants=set(), fresh_constants={"a", "b"})
    sig_e = Signature(relations={}, base_constants={"a", "b", "c"}, fresh_constants={"e0", "e1"})
    Ra, Rb = Atom("R", ("a",)), Atom("R", ("b",))
    Qa, Qb = Atom("Q", ("a",)), Atom("Q", ("b",))
    files = [
        (sig_r, [Ra]),
        (sig_r, [Ra, Rb]),
        (sig_r, [Ra, Not(Eq("a", "b"))]),
        (sig_r, [Ra, Not(Eq("a", "b")), Or((Ra, Rb))]),
        (sig_r, [Ra, Rb, Or((Ra, Rb)), Not(Eq("a", "b"))]),
        (sig_q, [Qa, Exists(("?x",), Atom("Q", ("?x",)))]),
        (sig_q, [Qa, Qb, Exists(("?x",), Atom("Q", ("?x",)))]),
        (sig_e, [Eq("a", "b")]),
        (sig_e, [Eq("a", "b"), Not(Eq("a", "c"))]),
        (sig_r, [And((Ra, Rb)), Or((Ra, Rb))]),
    ]
    return files


def test_criterion_08_boolean_compactness():
    started = time.time()
    families = _compactness_families()
    assert len(families) >= 10
    for sig, gens in families:
        family = conjunction_closure(gens)
        assert len({syntax.conjuncts(g) for g in gens}) <= 4
        verdict = is_finitely_conservative(family, sig)
        assert verdict.ok, [syntax.render(g) for g in gens]
        result = compactness_run(family, sig)
        one = result.model.algebra.one
        assert eval_formula(result.model, result.conjunction) == one
        for key, report in result.reports.items():
            assert report.conservative
            member = syntax.parse(key, sig)
            again = is_conservative_strengthening(result.conjunction, member, sig)
            assert again.conservative
        assert consistency_oracle(gens, sig).status == CONSISTENT
    _finish(8, "finitely conservative families get models of their conjunction", started, 300)


def _tarski_instances():
    sig_r = Signature(relations={"R": 1}, base_constants={"a", "b"}, fresh_constants={"e0"})
    sig_s = Signature(relations={"S": 2}, base_constants={"a", "b"}, fresh_constants={"e0"})
    sig_e = Signature(relations={}, base_constants={"a", "b", "c"}, fresh_constants=set())
    Ra, Rb = Atom("R", ("a",)), Atom("R", ("b",))
    Sab = Atom("S", ("a", "b"))
    out = [
        (sig_r, [Ra], [Ra]),
        (sig_r, [Ra, Not(Rb)], [Ra, Not(Rb)]),
        (sig_r, [Ra, Not(Eq("a", "b"))], [Ra, Or((Ra, Rb))]),
        (sig_r, [Not(Ra), Not(Rb)], [Not(Ra)]),
        (sig_r, [Ra, Rb, Eq("a", "b")], [Ra, Eq("a", "b")]),
        (sig_s, [Sab], [Sab]),
        (sig_s, [Sab, Not(Eq("a", "b"))], [Sab, Not(Eq("a", "b"))]),
        (sig_s, [Sab, Atom("S", ("b", "a"))], [Or((Sab, Atom("S", ("b", "a"))))]),
        (sig_e, [Eq("a", "b")], [Eq("a", "b")]),
        (sig_e, [Not(Eq("a", "b")), Not(Eq("b", "c"))], [Not(Eq("a", "b"))]),
    ]
    return out


def test_criterion_09_star_pipeline():
    started = time.time()
    instances = _tarski_instances()
    assert len(instances) >= 10
    for sig, ground, generators in instances:
        witness = consistency_oracle(ground, sig).witness
        assert witness is not None and len(witness.domain) <= 3
        stars = star_theory(witness, generators, sig)
        family = conjunction_closure(stars)
        assert is_finitely_conservative(family, sig).ok
        conj = And(tuple(stars)) if len(stars) > 1 else stars[0]
        # the star family entails the generators
        for phi in generators:
            assert consistency_oracle([conj, Not(phi)], sig).status == INCONSISTENT
        # the generators plus the model's atomic facts entail the star conjuncts
        facts = []
        consts = sorted(sig.constants)
        for c, d in itertools.combinations(consts, 2):
            f = Eq(c, d)
            facts.append(f if bvmodel.holds(witness, f) else Not(f))
        for name, arity in sig.relations.items():
            for combo in itertools.product(consts, repeat=arity):
                f = Atom(name, combo)
                facts.append(f if bvmodel.holds(witness, f) else Not(f))
        for star in stars:
            for conjunct in syntax.conjuncts(star):
                v = consistency_oracle(facts + list(generators) + [Not(conjunct)], sig)
                assert v.status == INCONSISTENT
    _finish(9, "star families are finitely conservative and equivalent to their sources", started, 180)


def _ground_theories():
    def names(k):
        return [f"c{i}" for i in range(k)]

    out = []
    for k in (3, 4, 6):
        ns = names(k)
        sig = Signature(relations={}, base_constants=set(ns), fresh_constants={"w"})
        out.append((sig, Theory([Not(Eq(ns[0], ns[1]))])))
        out.append((sig, Theory([Not(Eq(ns[0], ns[1])), Eq(ns[1], ns[2])])))
    ns = names(3)
    sig_b = Signature(relations={"B": 2}, base_constants=set(ns), fresh_constants={"w"})
    out.append((sig_b, Theory([Atom("B", (ns[0], ns[1]))])))
    out.append((sig_b, Theory([Atom("B", (ns[0], ns[1])), Not(Atom("B", (ns[1], ns[0])))])))
    out.append(
        (sig_b, Theory([Atom("B", (ns[0], ns[1])), Not(Eq(ns[0], ns[1])), Eq(ns[1], ns[2])]))
    )
    out.append((sig_b, Theory([Or((Atom("B", (ns[0], ns[1])), Atom("B", (ns[1], ns[0]))))])))
    return out


def _star_families():
    """The family ``first_order_compactness_demo`` materializes for each
    criterion-10 theory: the conjunction closure of the star theory of the
    theory's conjunction, read off the witness of its Lindenbaum
    completion."""
    out = []
    for sig, theory in _ground_theories():
        sentences = [syntax.canon(f) for f in theory]
        witness = consistency_oracle(lindenbaum_complete(sentences, sig), sig).witness
        stars = star_theory(witness, [syntax.canonical(And, set(sentences))], sig)
        out.append((sig, conjunction_closure(stars)))
    return out


def test_criterion_10_first_order_compactness():
    started = time.time()
    theories = _ground_theories()
    assert len(theories) >= 10
    for sig, theory in theories:
        for size in range(1, len(theory.sentences) + 1):
            for combo in itertools.combinations(theory.sentences, size):
                assert consistency_oracle(list(combo), sig).status == CONSISTENT
        model = first_order_compactness_demo(theory, sig)
        assert model.algebra.atom_count == 1
        for f in theory:
            assert bvmodel.holds(model, f)
    _finish(10, "finitely consistent ground theories get Tarski models", started, 180)


def test_criterion_11_proof_checker():
    started = time.time()
    corpus = proof_corpus()
    assert len(corpus) >= 15
    from boolkit.proofs import check_proof, soundness_probe

    for name, tree in corpus:
        assert check_proof(tree).ok, name
        report = soundness_probe(tree, trials=100, seed=1111)
        assert report.ok, name
    rejected = 0
    for name, tree in corpus:
        for bad in mutations(tree):
            assert not check_proof(bad).ok, name
            rejected += 1
    assert rejected >= 30
    _finish(11, "the proof corpus checks and probes sound; mutations are rejected", started, 120)


def _genericity_instances():
    sig_a = Signature(relations={}, base_constants={"cw", "c0", "c1"}, fresh_constants=set())
    sig_b = Signature(relations={"P": 1}, base_constants={"a", "b"}, fresh_constants=set())
    sig_c = Signature(relations={}, base_constants={"a", "b"}, fresh_constants={"e"})
    return [
        (sig_a, Or((Eq("cw", "c0"), Eq("cw", "c1"))), 9),
        (sig_a, Eq("cw", "c0"), 9),
        (sig_b, Or((Atom("P", ("a",)), Atom("P", ("b",)))), 9),
        (sig_b, And((Atom("P", ("a",)), Not(Eq("a", "b")))), 9),
        (sig_c, Not(Eq("a", "b")), 9),
    ]


def _genericity_dense_sets(p):
    """Up to five dense sets of the poset: decisions of the first equalities,
    commitment to a disjunctive target, decisions of relation atoms."""
    sig, phi = p.sig, p.phi
    dense = []
    consts = sorted(sig.constants)
    for c, d in itertools.combinations(consts, 2):
        candidate = dense_decision_set(p, Eq(c, d))
        if is_dense(candidate, p).ok:
            dense.append(candidate)
        if len(dense) >= 3:
            break
    if isinstance(phi, Or):
        commitment = dense_commitment_set(p, phi)
        if is_dense(commitment, p).ok:
            dense.append(commitment)
    for name, arity in sorted(sig.relations.items()):
        atom = Atom(name, tuple(consts[:arity]))
        candidate = dense_decision_set(p, atom)
        if is_dense(candidate, p).ok:
            dense.append(candidate)
    return dense[:5]


def test_criterion_12_genericity_lemma():
    started = time.time()
    instances = _genericity_instances()
    assert len(instances) >= 5
    for sig, phi, bound in instances:
        p = build_sphi(phi, sig, size_bound=bound)
        dense = _genericity_dense_sets(p)
        assert dense
        sentence = genericity_sentence(phi, dense, p)
        assert consistency_oracle([sentence], sig).status == CONSISTENT
        assert is_conservative_strengthening(sentence, syntax.canon(phi), sig).conservative
        g = generic_filter(p, dense)
        for d in dense:
            assert any(frozenset(s) in g.members for s in d)
            assert meets_equivalence(g, d)
        m = term_model(g)
        for f in g.sigma():
            assert bvmodel.holds(m, f)
    _finish(12, "genericity sentences are consistent conservative strengthenings", started, 180)
