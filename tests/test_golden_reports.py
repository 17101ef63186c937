"""Golden hashes of CLI reports.

Each hash is the sha256 of the exit code and the exact bytes ``cli.main``
writes with ``--out``: ``oracle`` on the criterion-10 theories and the
equality pigeonhole PHP(3..5) (witnesses and certificates), ``forcing
build``/``model`` on the criterion-12 instances and ``forcing build`` under
a 4-node oracle cap, ``proof-check`` on the
proof corpus and its mutations (rejection reasons), ``compact
--dump-algebra`` on the criterion-8 families, and ``star``, ``fincons`` and
``conservative`` on the small criterion-7 and criterion-8 inputs.  They pin
the reports byte for byte, so a refactoring below the CLI must leave them
unchanged.  ``GENERICITY`` pins the rendered genericity sentence of each
criterion-12 instance the same way.
"""
import hashlib
import json

from boolkit import bvmodel, cli, compact, forcing, proofs, syntax
from boolkit.syntax import And, Eq, Or, Signature

from test_acceptance import (
    _compactness_families,
    _genericity_dense_sets,
    _genericity_instances,
    _ground_theories,
    _model_existence_instances,
)
from test_compact import pigeonhole
from test_proofs import SIG as PROOF_SIG
from test_proofs import mutations, proof_corpus

ORACLE = [
    "702fd5278e7bbb0a3239428a54cbc5ae0b13e1db02580b42bfbbd8eab5427ba3",
    "63effa6c64ec834a18560936f1eb9236e995031ce3fac26d8399817651daa1ed",
    "75f11bc365508c9ac36aa7f1366547e255bd6616e24aec5fa43ced2f1b1faab3",
    "1358b2df8f7026a0f0b58552d697556de126099c44dc74da027607bc9b2c2730",
    "87244e849379cfcbd6d8c7c0ce3884dd0123ee7506554756722bdb2ec822aae3",
    "c09246949856fc7930bc81b0f7497ae05d85be755a421613987f994c6c60de5d",
    "0364b09f07956310cffb245cf61ad3f4ab9dd7d64b242a719c39b1f76ab3cc7c",
    "c804d9c5cefb67c00ecf7cbc56561824ce4cbf33305b051d25e7e97becfd9252",
    "f24460a3a7cf46f8595013c6ad5e62b6a17776d219403531d4ad6acbbbf70e57",
    "0364b09f07956310cffb245cf61ad3f4ab9dd7d64b242a719c39b1f76ab3cc7c",
    "746735d137594fbccd08381241d7400862ca033cc3f9516d244a13eaaded9f68",
    "00b247ceef22516bf3cc949d1a615841bdf43ecf2eefd66bb33d3b1dfda05dae",
    "21c18e40b064ddfa62e7eb18c4b2f35c708cdf5ce6827cd5aa36c0980e6604f0",
]

FORCING = [
    "09d3c951646d2e45bcc4d6c63492bb302301f82b9187e81897cde4e76c70e588",
    "9aab9bc672dfb6c5bc205e8a9042a6d75f5345e1d5eb8dc36028a6b5f31cd8a8",
    "9feeb6f3905ab028f2ca049def56adb187979cec7b99682c128d551ec8275081",
    "92b52d02fdb917a40990505f786e54629a03cfc769ca1b9b12d19723fc999348",
    "081880d726f80ef3d5e9df0fca9580c1db76bd66124d8a1023b629ad60e89bc0",
    "ab5f47c8556342a57fc081703b5ddbb767e6e42d3a8f21d28aa42ae53f78e9ba",
    "1232ca32f11009e282d4275470770cbb8a4cb8c7f883fb13c6d193899ab00e70",
    "ebdd3d3eedcb69ebd790ded6f4cd3896a92d35f00f2577f2380b79a25eea694c",
    "bd44db1029ef46ce34b3f19adf0ff994ccad579c51f1098432762da41a7f318a",
    "7259839195f227fb832bd53ae0197fc64a21bd72ec57481996d1d09698f61596",
]

# ``forcing build`` on the 4-constant disjunction under a 4-node oracle cap:
# most conditions are decided by the session's witnesses and refuted subsets,
# and the rest are excluded as unknown
FORCING_CAPPED = "103943c67ca55bb1261fedf4fe52d9e50f1b64b058d1becb6dbcdbc6c5e32bce"
FORCING_CAPPED_EXCLUDED = "373a20af7f1f49721a32f3dcf046b9ad5110abdd17f29830a0988eef4aee988f"

PROOF_CHECK = "d8c13c8064e6aaf06119e8b02bcbdbc501d131e0c9e1e949cf181a874b5b1714"

COMPACT = [
    "d9ff44e8162821fbabde94542af5539e0325b2af2a423491fe0386dac78e53aa",
    "74eded3eaf02e49ed7586876f1f86e2431ef4ba71227181bfed29845c8615d51",
    "fd8ee45a6873b9e783afddf974320bb03bfcc2da6bd73b3b4435260cd3d9676c",
    "9e935b1309b52bd70eb00d89e13c7ab8abbb263afe35e67bca3b2810ebe3171f",
    "96fefc1c899fb632cee76675eec5268810d007f9d7e3b68c1aaa30e2a7e036c0",
    "88b093f548d48c89aa0b777db5dc025df22f2f4154a151779ab8f508b0a7adb4",
    "f603563564c6012b7958fd7de0139e8a49a592e185137e94639ce726dc49b05e",
    "e78de551736b51826d704a0f674c9981482a0c4071326479f5e16e81dc33256c",
    "5ebd140ed8a5ba6c39076e3131ffc5df3a62f288d346d7ad7f372c5b03d1563f",
    "0ac4fb1a079b4c62a34a046e01b9b2a14eadf98508518a3292e271c96129ae83",
]

GENERICITY = [
    "b37c1e3bad3d8a9af19b04d3421095f55902ecd902739ad2ab325093906d6278",
    "d918fe3628d0a071de64ad7a9ef4ad824c522e81cf631660d775a79258bf7bff",
    "3cc99dab5be3d8d55cf01e0b3a5fde9794df015babfcac42ac9f3a52ccdbe80c",
    "50bdedc58dfa8105152eddcb85b710000090a76f950281889c28504238f505b5",
    "abe75dab8f8fe08c6a234219c7c3324d27372027507c0f1f69f48566cbfb841b",
]

# one digest over every case's report digest, cases in ``_small_families`` order
STAR = "b2bd2ca44117391364146746f283ea408f6d8e2358af7501f3cd4c89d22af342"
FINCONS = "bf46954e860cc7ff4b6d815f061f06f6ca6ad06e01c64f82fa6b5d3a28105ba8"
CONSERVATIVE = "2fad35c1c70692a89bea7fc558edbd457c2c8b5a9bd803450df10bb37ad4e92c"


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return path


def _report(tmp_path, args):
    """(exit code, report bytes) of one in-process CLI call."""
    out = tmp_path / "report.json"
    code = cli.main([*map(str, args), "--out", str(out)])
    return code, out.read_bytes()


def _digest(code, text) -> str:
    return hashlib.sha256(b"%d\n" % code + text).hexdigest()


def _oracle_cases():
    cases = [(sig, list(theory.sentences)) for sig, theory in _ground_theories()]
    for n in (3, 4, 5):
        sentences, sig = pigeonhole(n)
        cases.append((sig, sentences))
    return cases


def test_oracle_reports_are_pinned(tmp_path):
    digests = []
    for sig, sentences in _oracle_cases():
        theory = _write(
            tmp_path / "theory.json",
            {"signature": sig.to_json(), "sentences": [syntax.render(f) for f in sentences]},
        )
        digests.append(_digest(*_report(tmp_path, ["oracle", "--theory", theory])))
    assert digests == ORACLE


def test_forcing_reports_are_pinned(tmp_path):
    digests = []
    for sig, phi, bound in _genericity_instances():
        sig_path = _write(tmp_path / "sig.json", sig.to_json())
        code, text = _report(
            tmp_path,
            ["forcing", "build", "--sig", sig_path, "--formula", syntax.render(phi),
             "--size-bound", bound],
        )
        digests.append(_digest(code, text))
        poset = json.loads(text)["poset"]
        poset_path = _write(tmp_path / "poset.json", poset)
        conditions = frozenset(
            frozenset(syntax.parse(f, sig) for f in s) for s in poset["conditions"]
        )
        p = forcing.SPhiPoset(syntax.canon(phi), sig, conditions)
        dense = [
            sorted(sorted(syntax.render(f) for f in s) for s in d) for d in _genericity_dense_sets(p)
        ]
        dense_path = _write(tmp_path / "dense.json", {"dense_sets": dense})
        digests.append(
            _digest(*_report(tmp_path, ["forcing", "model", "--poset", poset_path, "--dense", dense_path]))
        )
    assert digests == FORCING


def test_a_capped_forcing_build_report_is_pinned(tmp_path):
    sig = Signature(relations={}, base_constants={"cw", "c0", "c1", "c2"})
    phi = Or(tuple(Eq("cw", c) for c in ("c0", "c1", "c2")))
    sig_path = _write(tmp_path / "sig.json", sig.to_json())
    code, text = _report(
        tmp_path,
        ["forcing", "build", "--sig", sig_path, "--formula", syntax.render(phi),
         "--size-bound", len(forcing.condition_universe(phi, sig)), "--budget-oracle-nodes", 4],
    )
    assert json.loads(text)["excluded_unknown"] > 0
    assert _digest(code, text) == FORCING_CAPPED


def test_a_capped_forcing_build_excludes_the_pinned_sets():
    # the report above counts the sets left Unknown; this pins which, in the
    # order the walk asked about them, each as its sorted renderings
    sig = Signature(relations={}, base_constants={"cw", "c0", "c1", "c2"})
    phi = Or(tuple(Eq("cw", c) for c in ("c0", "c1", "c2")))
    size_bound = len(forcing.condition_universe(phi, sig))
    poset = forcing.build_sphi(phi, sig, size_bound, compact.Budget(oracle_nodes=4))
    excluded = [sorted(syntax.render(f) for f in s) for s in poset.excluded_unknown]
    assert len(excluded) == 1020
    assert excluded[0] == ["(not (= c0 cw))", "(not (= c1 cw))", "(not (= c2 cw))"]
    assert hashlib.sha256(json.dumps(excluded).encode()).hexdigest() == FORCING_CAPPED_EXCLUDED


def test_proof_check_reports_are_pinned(tmp_path):
    sig_path = _write(tmp_path / "sig.json", PROOF_SIG.to_json())
    digest = hashlib.sha256()
    for _name, tree in proof_corpus():
        for candidate in [tree, *mutations(tree)]:
            proof = _write(tmp_path / "proof.json", proofs.proof_to_json(candidate))
            code, text = _report(tmp_path, ["proof-check", "--proof", proof, "--sig", sig_path])
            digest.update(_digest(code, text).encode())
    assert digest.hexdigest() == PROOF_CHECK


def _theory_doc(sig, sentences):
    return {"signature": sig.to_json(), "sentences": [syntax.render(f) for f in sentences]}


def _small_families():
    """The nonempty criterion-7 theories and the criterion-8 generators."""
    out = [(sig, list(theory)) for sig, theory in _model_existence_instances() if len(theory)]
    return out + [(sig, list(gens)) for sig, gens in _compactness_families()]


def test_compact_reports_with_the_algebra_are_pinned(tmp_path):
    digests = []
    for sig, gens in _compactness_families():
        family = _write(
            tmp_path / "family.json", _theory_doc(sig, compact.conjunction_closure(gens))
        )
        digests.append(_digest(*_report(tmp_path, ["compact", "--family", family, "--dump-algebra"])))
    assert digests == COMPACT


def test_star_fincons_and_conservative_reports_are_pinned(tmp_path):
    star, fincons, conservative = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for sig, sentences in _small_families():
        theory = _write(tmp_path / "theory.json", _theory_doc(sig, sentences))
        witness = compact.consistency_oracle(sentences, sig).witness
        model = _write(tmp_path / "model.json", bvmodel.model_to_json(witness))
        star.update(_digest(*_report(tmp_path, ["star", "--theory", theory, "--model", model])).encode())
        for family in (sentences, compact.conjunction_closure(sentences)):
            path = _write(tmp_path / "family.json", _theory_doc(sig, family))
            fincons.update(_digest(*_report(tmp_path, ["fincons", "--family", path])).encode())
        sig_path = _write(tmp_path / "sig.json", sig.to_json())
        conj = syntax.render(And(tuple(sentences)))
        for f in sentences[:2]:
            for psi1, psi0 in ((conj, syntax.render(f)), (syntax.render(f), conj)):
                args = ["conservative", "--sig", sig_path, "--psi1", psi1, "--psi0", psi0]
                conservative.update(_digest(*_report(tmp_path, args)).encode())
    assert star.hexdigest() == STAR
    assert fincons.hexdigest() == FINCONS
    assert conservative.hexdigest() == CONSERVATIVE


def test_genericity_sentences_are_pinned():
    digests = []
    for sig, phi, bound in _genericity_instances():
        p = forcing.build_sphi(phi, sig, bound)
        sentence = forcing.genericity_sentence(phi, _genericity_dense_sets(p), p)
        digests.append(hashlib.sha256(syntax.render(sentence).encode()).hexdigest())
    assert digests == GENERICITY
