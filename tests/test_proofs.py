import hashlib
import json

import pytest

from boolkit import proofs, syntax
from boolkit.errors import BoolkitError
from boolkit.proofs import ProofTree, Sequent, check_proof, proof_from_json, proof_to_json, soundness_probe
from boolkit.syntax import And, Atom, Eq, Exists, Forall, Not, Or, Signature

SIG = Signature(relations={"P": 1, "R": 2}, base_constants={"c", "d", "e"})

P_c, P_d, P_e = Atom("P", ("c",)), Atom("P", ("d",)), Atom("P", ("e",))


def axiom(left, right):
    return ProofTree(Sequent(left, right), "axiom")


def proof_corpus():
    """Valid proofs covering every rule, including eigenvariable conditions."""
    trees = []

    trees.append(("refl", ProofTree(Sequent([], [Eq("c", "c")]), "eq-axiom-1")))
    trees.append(
        ("symm", ProofTree(Sequent([Eq("c", "d")], [Eq("d", "c")]), "eq-axiom-2"))
    )
    trees.append(
        (
            "trans",
            ProofTree(Sequent([Eq("c", "d"), Eq("d", "e")], [Eq("c", "e")]), "eq-axiom-3"),
        )
    )
    trees.append(
        (
            "subst-eq-unary",
            ProofTree(
                Sequent([Eq("c", "d"), P_d], [P_c]),
                "eq-axiom-4",
                data={"formula": P_d, "pairs": (("c", "d"),)},
            ),
        )
    )
    trees.append(
        (
            "subst-eq-simultaneous",
            ProofTree(
                Sequent(
                    [Eq("c", "d"), Eq("d", "e"), Atom("R", ("d", "e"))],
                    [Atom("R", ("c", "d"))],
                ),
                "eq-axiom-4",
                data={"formula": Atom("R", ("d", "e")), "pairs": (("c", "d"), ("d", "e"))},
            ),
        )
    )
    trees.append(("shared", axiom([P_c, Eq("c", "d")], [P_c, Eq("d", "e")])))

    eq3 = ProofTree(Sequent([Eq("c", "d"), Eq("d", "e")], [Eq("c", "e")]), "eq-axiom-3")
    eq2 = ProofTree(Sequent([Eq("c", "e")], [Eq("e", "c")]), "eq-axiom-2")
    trees.append(
        (
            "cut-trans-symm",
            ProofTree(
                Sequent([Eq("c", "d"), Eq("d", "e")], [Eq("e", "c")]),
                "cut",
                [eq2, eq3],
                data={"formula": Eq("c", "e")},
            ),
        )
    )

    refl = ProofTree(Sequent([], [Eq("c", "c")]), "eq-axiom-1")
    trees.append(
        (
            "weaken-both-sides",
            ProofTree(Sequent([P_c], [Eq("c", "c"), Eq("d", "d")]), "weakening", [refl]),
        )
    )

    conj = And((P_c, Eq("c", "d")))
    trees.append(
        (
            "left-and",
            ProofTree(
                Sequent([conj], [P_c]),
                "left-and",
                [axiom([P_c, Eq("c", "d")], [P_c])],
                data={"formula": conj},
            ),
        )
    )

    pair = And((Eq("c", "c"), Eq("d", "d")))
    refl_d = ProofTree(Sequent([], [Eq("d", "d")]), "eq-axiom-1")
    trees.append(
        (
            "right-and",
            ProofTree(
                Sequent([], [pair]),
                "right-and",
                [refl, refl_d],
                data={"formula": pair},
            ),
        )
    )

    # De Morgan flavor: a negated conjunct entails the disjunction of negations
    negs = Or((Not(P_c), Not(P_d)))
    trees.append(
        (
            "collect-negations",
            ProofTree(
                Sequent([Not(P_c)], [negs]),
                "left-or",
                [
                    ProofTree(
                        Sequent([Not(P_c)], [Not(P_c), Not(P_d)]),
                        "weakening",
                        [axiom([Not(P_c)], [Not(P_c)])],
                    )
                ],
                data={"formula": negs},
            ),
        )
    )
    trees.append(
        (
            "conjoin-negations",
            ProofTree(
                Sequent([And((Not(P_c), Not(P_d)))], [Not(P_d)]),
                "left-and",
                [axiom([Not(P_c), Not(P_d)], [Not(P_d)])],
                data={"formula": And((Not(P_c), Not(P_d)))},
            ),
        )
    )

    disj = Or((P_c, P_d))
    swapped = Or((P_d, P_c))

    def into_disj(start):
        return ProofTree(
            Sequent([start], [swapped]),
            "left-or",
            [
                ProofTree(
                    Sequent([start], [P_d, P_c]),
                    "weakening",
                    [axiom([start], [start])],
                )
            ],
            data={"formula": swapped},
        )

    trees.append(
        (
            "case-split",
            ProofTree(
                Sequent([disj], [swapped]),
                "right-or",
                [into_disj(P_c), into_disj(P_d)],
                data={"formula": disj},
            ),
        )
    )

    fa_x = Forall(("?x",), Atom("P", ("?x",)))
    trees.append(
        (
            "forall-instance",
            ProofTree(
                Sequent([fa_x], [P_c]),
                "left-forall",
                [axiom([P_c], [P_c])],
                data={"formula": fa_x, "terms": ("c",)},
            ),
        )
    )

    fa_y = Forall(("?y",), Atom("P", ("?y",)))
    inst = ProofTree(
        Sequent([fa_x], [Atom("P", ("?y",))]),
        "left-forall",
        [axiom([Atom("P", ("?y",))], [Atom("P", ("?y",))])],
        data={"formula": fa_x, "terms": ("?y",)},
    )
    trees.append(
        (
            "forall-rename",
            ProofTree(Sequent([fa_x], [fa_y]), "right-forall", [inst], data={"formula": fa_y}),
        )
    )

    ex_x = Exists(("?x",), Atom("P", ("?x",)))
    ex_y = Exists(("?y",), Atom("P", ("?y",)))
    intro = ProofTree(
        Sequent([Atom("P", ("?x",))], [ex_y]),
        "right-exists",
        [axiom([Atom("P", ("?x",))], [Atom("P", ("?x",))])],
        data={"formula": ex_y, "terms": ("?x",)},
    )
    trees.append(
        (
            "exists-rename",
            ProofTree(Sequent([ex_x], [ex_y]), "left-exists", [intro], data={"formula": ex_x}),
        )
    )

    trees.append(
        (
            "exists-intro-constant",
            ProofTree(
                Sequent([P_c], [ex_x]),
                "right-exists",
                [axiom([P_c], [P_c])],
                data={"formula": ex_x, "terms": ("c",)},
            ),
        )
    )

    rxy = Atom("R", ("?x", "?y"))
    trees.append(
        (
            "substitution-rule",
            ProofTree(
                Sequent([Atom("R", ("c", "?z"))], [Atom("R", ("c", "?z"))]),
                "substitution",
                [axiom([rxy], [rxy])],
                data={"mapping": {"?x": "c", "?y": "?z"}},
            ),
        )
    )

    mixed_inner = ProofTree(
        Sequent([P_e, Eq("c", "d")], [P_e]),
        "axiom",
    )
    mixed_mid = ProofTree(
        Sequent([fa_x, Eq("c", "d")], [P_e]),
        "left-forall",
        [mixed_inner],
        data={"formula": fa_x, "terms": ("e",)},
    )
    big = And((fa_x, Eq("c", "d")))
    trees.append(
        (
            "conjoined-universal",
            ProofTree(Sequent([big], [P_e]), "left-and", [mixed_mid], data={"formula": big}),
        )
    )

    fa_block = Forall(("?x", "?y"), rxy)
    trees.append(
        (
            "block-instance",
            ProofTree(
                Sequent([fa_block], [Atom("R", ("c", "d"))]),
                "left-forall",
                [axiom([Atom("R", ("c", "d"))], [Atom("R", ("c", "d"))])],
                data={"formula": fa_block, "terms": ("c", "d")},
            ),
        )
    )

    return trees


def mutations(tree: ProofTree):
    """Single-node corruptions guaranteed to change the rule instance."""
    out = []
    if tree.premises:
        out.append(ProofTree(tree.conclusion, "eq-axiom-1", tree.premises, tree.data))
        out.append(ProofTree(tree.conclusion, tree.rule, tree.premises[1:], tree.data))
    else:
        swap = "axiom" if tree.rule != "axiom" else "eq-axiom-1"
        out.append(ProofTree(tree.conclusion, swap, (), tree.data))
        out.append(ProofTree(tree.conclusion, "cut", (), tree.data))
    return out


class TestCorpus:
    @pytest.mark.parametrize("name,tree", proof_corpus())
    def test_checks(self, name, tree):
        verdict = check_proof(tree)
        assert verdict.ok, (name, verdict.reason)

    @pytest.mark.parametrize("name,tree", proof_corpus())
    def test_sound_on_sampled_models(self, name, tree):
        report = soundness_probe(tree, trials=40, seed=17)
        assert report.ok

    def test_corpus_size(self):
        assert len(proof_corpus()) >= 15


class TestMutations:
    def test_all_rejected(self):
        rejected = 0
        for name, tree in proof_corpus():
            for bad in mutations(tree):
                verdict = check_proof(bad)
                assert not verdict.ok, name
                rejected += 1
        assert rejected >= 30

    def test_probe_refuses_invalid_proof(self):
        bad = ProofTree(Sequent([], [Eq("c", "d")]), "eq-axiom-1")
        with pytest.raises(BoolkitError):
            soundness_probe(bad, trials=5, seed=0)


class TestEigenvariable:
    def test_violation_detected(self):
        fa = Forall(("?x",), Atom("P", ("?x",)))
        bad = ProofTree(
            Sequent([Atom("P", ("?x",))], [fa]),
            "right-forall",
            [axiom([Atom("P", ("?x",))], [Atom("P", ("?x",))])],
            data={"formula": fa},
        )
        verdict = check_proof(bad)
        assert not verdict.ok
        assert "eigenvariable" in verdict.reason

    def test_left_exists_violation(self):
        ex = Exists(("?x",), Atom("P", ("?x",)))
        bad = ProofTree(
            Sequent([ex], [Atom("P", ("?x",))]),
            "left-exists",
            [axiom([Atom("P", ("?x",))], [Atom("P", ("?x",))])],
            data={"formula": ex},
        )
        assert not check_proof(bad).ok


class TestPremiseOrder:
    def test_right_and_accepts_any_premise_order(self):
        pair = And((Eq("c", "c"), Eq("d", "d")))
        refl_c = ProofTree(Sequent([], [Eq("c", "c")]), "eq-axiom-1")
        refl_d = ProofTree(Sequent([], [Eq("d", "d")]), "eq-axiom-1")
        for premises in ((refl_c, refl_d), (refl_d, refl_c)):
            tree = ProofTree(
                Sequent([], [pair]), "right-and", premises, data={"formula": pair}
            )
            assert check_proof(tree).ok


# Every reason a logical rule can give, by rule.
LOGICAL_REASONS = {
    "left-and": (
        "left-and takes one premise",
        "left-and needs its conjunction",
        "principal conjunction missing from conclusion",
        "left-and keeps the right side",
        "left-and premise left side mismatch",
    ),
    "right-and": (
        "right-and needs its conjunction",
        "principal conjunction missing from conclusion",
        "right-and takes one premise per conjunct",
        "right-and premise mismatch",
    ),
    "left-or": (
        "left-or takes one premise",
        "left-or needs its disjunction",
        "principal disjunction missing from conclusion",
        "left-or keeps the left side",
        "left-or premise right side mismatch",
    ),
    "right-or": (
        "right-or needs its disjunction",
        "principal disjunction missing from conclusion",
        "right-or takes one premise per disjunct",
        "right-or premise mismatch",
    ),
    "left-forall": (
        "left-forall takes one premise",
        "left-forall needs its quantified formula",
        "left-forall needs one instantiating term per variable",
        "substitution captures variable ?y",
        "principal formula missing from conclusion",
        "left-forall premise mismatch",
    ),
    "right-exists": (
        "right-exists takes one premise",
        "right-exists needs its quantified formula",
        "right-exists needs one instantiating term per variable",
        "substitution captures variable ?y",
        "principal formula missing from conclusion",
        "right-exists premise mismatch",
    ),
    "right-forall": (
        "right-forall takes one premise",
        "right-forall needs its quantified formula",
        "principal formula missing from conclusion",
        "right-forall premise mismatch",
        "eigenvariable condition violated for ['?y']",
    ),
    "left-exists": (
        "left-exists takes one premise",
        "left-exists needs its quantified formula",
        "principal formula missing from conclusion",
        "left-exists premise mismatch",
        "eigenvariable condition violated for ['?x']",
    ),
}

# sha256 of the (rule, ok, reason) lines of every single-node variant,
# ordered by the variant's JSON rendering
NODE_REASONS = "5a53f8ae5764ebc795fdcb84b3e1b089d8d61d4af749df9d43ab803a1fe9f420"

EXTRA = Atom("R", ("e", "e"))


def _render(node):
    return json.dumps(proof_to_json(node), sort_keys=True)


def _nodes():
    """Every node of the corpus and of its mutations, plus two nodes whose
    instance would capture a variable."""
    capture_fa = Forall(("?x",), Exists(("?y",), Atom("R", ("?x", "?y"))))
    capture_ex = Exists(("?x",), Forall(("?y",), Atom("R", ("?x", "?y"))))
    body = axiom([Atom("R", ("?y", "?y"))], [Atom("R", ("?y", "?y"))])
    stack = [
        ProofTree(Sequent([capture_fa], []), "left-forall", [body],
                  data={"formula": capture_fa, "terms": ("?y",)}),
        ProofTree(Sequent([], [capture_ex]), "right-exists", [body],
                  data={"formula": capture_ex, "terms": ("?y",)}),
    ]
    for _name, tree in proof_corpus():
        stack += [tree, *mutations(tree)]
    nodes = {}
    while stack:
        node = stack.pop()
        nodes[_render(node)] = node
        stack.extend(node.premises)
    return nodes.values()


def _with_side(seq, side, formulas):
    return Sequent(formulas, seq.right) if side == "left" else Sequent(seq.left, formulas)


def _variants(node):
    """Single-node corruptions of one node: its conclusion, premise count,
    rule label, data and premise conclusions, one change at a time."""
    seq, rule, prem, data = node.conclusion, node.rule, node.premises, node.data
    out = [ProofTree(Sequent(seq.right, seq.left), rule, prem, data)]
    if prem:
        out += [ProofTree(seq, rule, prem[:-1], data), ProofTree(seq, rule, prem[:1] + prem, data)]
    out += [ProofTree(seq, other, prem, data) for other in LOGICAL_REASONS]
    out += [ProofTree(seq, rule, prem, dict(data, formula=f)) for f in seq.left | seq.right]
    out.append(ProofTree(seq, rule, prem, {k: v for k, v in data.items() if k != "formula"}))
    terms = tuple(data.get("terms", ()))
    out += [ProofTree(seq, rule, prem, dict(data, terms=t)) for t in (terms + ("c",), ())]
    for i, p in enumerate(prem):
        pseq = p.conclusion
        changed = [Sequent(pseq.right, pseq.left)]
        for side in ("left", "right"):
            formulas = getattr(pseq, side)
            changed.append(_with_side(pseq, side, formulas | {EXTRA}))
            changed += [_with_side(pseq, side, formulas - {f}) for f in formulas]
        for new in changed:
            premise = ProofTree(new, p.rule, p.premises, p.data)
            out.append(ProofTree(seq, rule, prem[:i] + (premise,) + prem[i + 1:], data))
    phi = data.get("formula")
    if prem and isinstance(phi, (Forall, Exists)):
        # a context formula in which the eigenvariable is free, on both the
        # conclusion and the premise
        free = Atom("P", (phi.vars[0],))
        p = prem[0]
        for side in ("left", "right"):
            grown = _with_side(p.conclusion, side, getattr(p.conclusion, side) | {free})
            premise = ProofTree(grown, p.rule, p.premises, p.data)
            out.append(ProofTree(
                _with_side(seq, side, getattr(seq, side) | {free}), rule,
                (premise,) + prem[1:], data,
            ))
    return out


def _variant_reasons():
    variants = {}
    for node in _nodes():
        for variant in _variants(node):
            variants[_render(variant)] = variant
    out = []
    for key in sorted(variants):
        variant = variants[key]
        bad = proofs._check_node(variant, ())
        out.append((variant.rule, bad is None, "" if bad is None else bad.reason))
    return out


class TestNodeReasons:
    def test_reasons_are_pinned(self):
        reasons = _variant_reasons()
        text = "\n".join(json.dumps(line) for line in reasons)
        assert hashlib.sha256(text.encode()).hexdigest() == NODE_REASONS, len(reasons)

    def test_every_logical_reason_occurs(self):
        given = {(rule, reason) for rule, ok, reason in _variant_reasons() if not ok}
        missing = [
            (rule, reason)
            for rule, reasons in LOGICAL_REASONS.items()
            for reason in reasons
            if (rule, reason) not in given
        ]
        assert not missing
        # and the list is whole: the one other reason is the leaf check
        logical = {
            (rule, reason)
            for rule, reason in given
            if rule in LOGICAL_REASONS and not reason.startswith("leaf labelled")
        }
        assert logical <= {(r, x) for r, xs in LOGICAL_REASONS.items() for x in xs}


class TestInterchange:
    def test_json_roundtrip_all_corpus(self):
        for name, tree in proof_corpus():
            doc = json.loads(json.dumps(proof_to_json(tree)))
            restored = proof_from_json(doc, SIG)
            assert check_proof(restored).ok, name
            assert restored.conclusion == tree.conclusion
