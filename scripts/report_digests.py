"""Print one JSON line per CLI report: the command, its input, the exit code
and the sha256 of the report bytes, all under the default budget.

The reports are ``conservative``, ``fincons`` and ``compact`` on the
criterion-8 families, ``focompact`` on the criterion-10 theories,
``forcing build``, ``generic`` and ``model`` on the criterion-12 instances,
``consprop-model`` on the saturated property of each criterion-7
theory, then with ``--mixing``, followed by ``eval`` of each theory
sentence and each member's conjunction on the model it builds without
``--mixing``, and ``oracle``, with and without
``--require-qe``, on the criterion-10 theories, the pigeonhole PHP(3..6),
the faicom families for n = 2..6, whole and less each sentence, and the
quantified sentences over ``Q_SIG``, one by one and together, and
``proof-check``, with and without ``--probe-trials``, on the proof corpus
and its mutations, and ``consprop-verify`` on each one-member removal of
the criterion-7 saturated properties and of the properties materialized
from the criterion-8 families, and ``validate-model`` on seeded random
B-valued models and on three single-entry mutants of each (an equality
entry or a relation entry given a random value, a relation entry deleted),
whose reports name up to five violations.  Then come ``quotient`` lines,
one per ultrafilter, and ``mixing`` lines, with and without
``--complete``, on seeded random models over a signature with a nullary,
a unary and a binary relation.  Last come ``materialize`` lines,
which run no CLI call: for each criterion-8 family and each family that the
criterion-10 demonstration materializes, the member count and the sha256
of the materialized property's JSON.  After them come ``parse`` and ``qe``
lines, 200 each, on seeded texts, well-formed and malformed; these lines
also carry the JSON error line the call printed, so an error message or
position that changes shows.
The instances come from ``tests/test_acceptance.py``,
``tests/test_compact.py``, ``tests/test_proofs.py`` and
``tests/test_syntax.py`` next to this script;
``--src`` picks the checkout whose ``boolkit`` is imported, so that two
checkouts compare with ``diff``:

    python scripts/report_digests.py --src ../other-checkout > other.jsonl
    python scripts/report_digests.py > this.jsonl
    diff other.jsonl this.jsonl
"""
import argparse
import contextlib
import copy
import hashlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT), help="checkout whose src/boolkit is imported")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve() / "src"), str(ROOT / "tests")]
    with tempfile.TemporaryDirectory() as tmp:
        digests(Path(tmp))


def digests(work: Path):
    from boolkit import bvmodel, cli, compact, consprop, forcing, proofs, syntax
    from boolkit.syntax import And
    from test_acceptance import (
        _compactness_families,
        _genericity_dense_sets,
        _genericity_instances,
        _ground_theories,
        _model_existence_instances,
        _star_families,
    )
    from test_compact import Q_SIG, QUANTIFIED, pigeonhole
    from test_proofs import SIG as PROOF_SIG
    from test_proofs import mutations, proof_corpus
    from test_syntax import PARSE_SIG, fuzz_text, quantified_formula

    out = work / "report.json"

    def write(name, doc):
        path = work / name
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def report(command, given, argv, stderr=False):
        """Run one CLI call, print its line, and return the report bytes;
        with ``stderr`` the line also carries what the call printed there."""
        out.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err if stderr else sys.stderr):
            code = cli.main([*argv, "--out", str(out)])
        text = out.read_bytes() if out.exists() else b""
        line = {"command": command, "input": given, "exit": code,
                "sha256": hashlib.sha256(text).hexdigest()}
        if stderr:
            line["stderr"] = err.getvalue()
        print(json.dumps(line, sort_keys=True), flush=True)
        return text

    def theory(sig, sentences):
        return {"signature": sig.to_json(), "sentences": [syntax.render(f) for f in sentences]}

    for sig, gens in _compactness_families():
        sig_path = write("sig.json", sig.to_json())
        conj = syntax.render(And(tuple(gens)))
        for f in gens:
            for psi1, psi0 in ((conj, syntax.render(f)), (syntax.render(f), conj)):
                report("conservative", {"signature": sig.to_json(), "psi1": psi1, "psi0": psi0},
                       ["conservative", "--sig", sig_path, "--psi1", psi1, "--psi0", psi0])
        for family in (gens, compact.conjunction_closure(gens)):
            doc = theory(sig, family)
            report("fincons", doc, ["fincons", "--family", write("family.json", doc)])
        doc = theory(sig, compact.conjunction_closure(gens))
        report("compact", doc, ["compact", "--family", write("family.json", doc)])

    for sig, sentences in _ground_theories():
        doc = theory(sig, sentences)
        report("focompact", doc, ["focompact", "--theory", write("theory.json", doc)])

    for sig, phi, bound in _genericity_instances():
        given = {"signature": sig.to_json(), "formula": syntax.render(phi), "size_bound": bound}
        text = report("forcing build", given, [
            "forcing", "build", "--sig", write("sig.json", sig.to_json()),
            "--formula", syntax.render(phi), "--size-bound", str(bound),
        ])
        poset = json.loads(text)["poset"]
        conditions = frozenset(
            frozenset(syntax.canon(syntax.parse(f, sig)) for f in s) for s in poset["conditions"]
        )
        p = forcing.SPhiPoset(syntax.canon(phi), sig, conditions)
        dense = {"dense_sets": [
            sorted(sorted(syntax.render(f) for f in s) for s in d) for d in _genericity_dense_sets(p)
        ]}
        paths = ["--poset", write("poset.json", poset), "--dense", write("dense.json", dense)]
        for sub in ("generic", "model"):
            report(f"forcing {sub}", dict(given, dense=dense["dense_sets"]), ["forcing", sub, *paths])

    for sig, sentences in _model_existence_instances():
        doc = consprop.saturate_theory(sentences, sig).to_json()
        path = write("consprop.json", doc)
        text = report("consprop-model", doc, ["consprop-model", "--consprop", path])
        report("consprop-model", dict(doc, mixing=True),
               ["consprop-model", "--consprop", path, "--mixing"])
        model = write("model.json", json.loads(text)["model"])
        paths = ["--model", model, "--sig", write("sig.json", sig.to_json())]
        conjunctions = [And(tuple(syntax.parse(t, sig) for t in s)) for s in doc["members"]]
        for f in [*sentences, *conjunctions]:
            formula = syntax.render(f)
            given = dict(theory(sig, sentences), formula=formula)
            report("eval", given, ["eval", *paths, "--formula", formula])

    theories = [(sig, list(sentences)) for sig, sentences in _ground_theories()]
    theories += [(sig, sentences) for sentences, sig in map(pigeonhole, range(3, 7))]
    for n in range(2, 7):
        family = list(compact.faicom_family(n))
        sig = compact.faicom_signature(n)
        theories += [(sig, family)] + [(sig, family[:i] + family[i + 1:]) for i in range(n + 1)]
    theories += [(Q_SIG, [f]) for f in QUANTIFIED] + [(Q_SIG, QUANTIFIED)]
    for sig, sentences in theories:
        doc = theory(sig, sentences)
        path = write("theory.json", doc)
        for flags in ([], ["--require-qe"]):
            report("oracle", dict(doc, require_qe=bool(flags)), ["oracle", "--theory", path, *flags])

    sig_path = write("sig.json", PROOF_SIG.to_json())
    for _name, tree in proof_corpus():
        for candidate in [tree, *mutations(tree)]:
            doc = proofs.proof_to_json(candidate)
            path = write("proof.json", doc)
            for flags in ([], ["--probe-trials", "20"]):
                report("proof-check", {"proof": doc, "flags": flags},
                       ["proof-check", "--sig", sig_path, "--proof", path, *flags])

    sources = [("saturate", sig, sentences, consprop.saturate_theory(sentences, sig))
               for sig, sentences in _model_existence_instances()]
    sources += [("materialize", sig, gens, compact.materialize_compactness_property(
        compact.conjunction_closure(gens), sig)) for sig, gens in _compactness_families()]
    for source, sig, sentences, prop in sources:
        doc = prop.to_json()
        for i, removed in enumerate(doc["members"]):
            smaller = dict(doc, members=doc["members"][:i] + doc["members"][i + 1:])
            path = write("consprop.json", smaller)
            given = {"source": source, "theory": theory(sig, sentences), "removed": removed}
            report("consprop-verify", given, ["consprop-verify", "--consprop", path])

    rng = random.Random(2024)
    model_sig = syntax.Signature(relations={"R": 1, "S": 2, "T": 3}, base_constants={"c0", "c1"})

    def bits(k):
        return "".join(rng.choice("01") for _ in range(k))

    for _ in range(40):
        doc = bvmodel.model_to_json(bvmodel.random_model(model_sig, rng, max_domain=rng.choice([2, 3, 4])))
        k, n = len(doc["algebra"]["atoms"]), len(doc["domain"])
        eq_mutant, rel_mutant, missing = (copy.deepcopy(doc) for _ in range(3))
        eq_mutant["eq"][rng.randrange(n)][rng.randrange(n)] = bits(k)
        name = rng.choice(sorted(doc["rel"]))
        rel_mutant["rel"][name][rng.choice(sorted(doc["rel"][name]))] = bits(k)
        del missing["rel"][name][rng.choice(sorted(doc["rel"][name]))]
        for model in (doc, eq_mutant, rel_mutant, missing):
            report("validate-model", model, ["validate-model", "--model", write("model.json", model)])

    rng = random.Random(31)
    mixing_sig = syntax.Signature(relations={"P": 0, "R": 1, "S": 2}, base_constants={"c0", "c1"})
    for _ in range(50):
        doc = bvmodel.model_to_json(bvmodel.random_model(mixing_sig, rng))
        path = write("model.json", doc)
        for i in range(len(doc["algebra"]["atoms"])):
            report("quotient", dict(doc, ultrafilter=i),
                   ["quotient", "--model", path, "--ultrafilter", str(i)])
        for flags in ([], ["--complete"]):
            report("mixing", dict(doc, complete=bool(flags)), ["mixing", "--model", path, *flags])

    families = [(sig, compact.conjunction_closure(gens)) for sig, gens in _compactness_families()]
    for sig, family in families + _star_families():
        doc = compact.materialize_compactness_property(family, sig).to_json()
        text = json.dumps(doc, sort_keys=True).encode()
        line = {"command": "materialize", "input": theory(sig, family),
                "members": len(doc["members"]), "sha256": hashlib.sha256(text).hexdigest()}
        print(json.dumps(line, sort_keys=True), flush=True)

    rng = random.Random(22)
    sig_path = write("sig.json", PARSE_SIG.to_json())
    for _ in range(200):
        formula = fuzz_text(rng)
        report("parse", {"signature": PARSE_SIG.to_json(), "formula": formula},
               ["parse", "--sig", sig_path, "--formula", formula], stderr=True)
    for i in range(200):
        sig = syntax.Signature(relations={"R": 2}, base_constants={"c0"},
                               fresh_constants=[f"e{j}" for j in range(i % 4)])
        formula = syntax.render(quantified_formula(rng, sig, rng.randint(0, 3)))
        if i % 5 == 4:  # malformed: cut short
            formula = formula[: rng.randrange(1, len(formula))]
        report("qe", {"signature": sig.to_json(), "formula": formula},
               ["qe", "--sig", write("sig.json", sig.to_json()), "--formula", formula], stderr=True)


if __name__ == "__main__":
    main()
