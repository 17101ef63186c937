import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from boolkit import bvmodel, cli, compact, consprop, syntax
from boolkit.syntax import Signature, Theory


@pytest.fixture
def workdir(tmp_path):
    sig = {
        "relations": {"R": 1},
        "base_constants": ["a", "b"],
        "fresh_constants": ["e0"],
    }
    (tmp_path / "sig.json").write_text(json.dumps(sig))
    return tmp_path


def run(args, capsys=None):
    code = cli.main([str(a) for a in args])
    return code


def run_json(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main([str(a) for a in args] + ["--out", str(out)])
    doc = json.loads(out.read_text()) if out.exists() else None
    return code, doc


class TestBasicCommands:
    def test_parse(self, workdir):
        code, doc = run_json(
            ["parse", "--sig", workdir / "sig.json", "--formula", "(and (R a) (= a b))"],
            workdir,
        )
        assert code == 0
        assert doc["formula"] == "(and (R a) (= a b))"

    def test_parse_error_is_usage(self, workdir):
        code = run(["parse", "--sig", workdir / "sig.json", "--formula", "(zz a)"])
        assert code == cli.EXIT_USAGE

    def test_nnf(self, workdir):
        code, doc = run_json(
            ["nnf", "--sig", workdir / "sig.json", "--formula", "(not (and (R a) (R b)))"],
            workdir,
        )
        assert code == 0
        assert doc["formula"] == "(or (not (R a)) (not (R b)))"

    def test_qe_axiom(self, workdir):
        code, doc = run_json(["qe", "--sig", workdir / "sig.json", "--axiom"], workdir)
        assert code == 0
        assert doc["formula"] == "(forall (?x) (or (= ?x e0)))"

    def test_qe_formula(self, workdir):
        code, doc = run_json(
            ["qe", "--sig", workdir / "sig.json", "--formula", "(exists (?x) (R ?x))"], workdir
        )
        assert code == 0
        assert doc["formula"] == "(or (R e0))"


class TestOraclePipelines:
    def test_faicom_oracle_exit_one(self, workdir):
        code, doc = run_json(["faicom", "--n", 3], workdir, "fam.json")
        assert code == 0
        theory = doc["theory"]
        (workdir / "t.json").write_text(json.dumps(theory))
        code, doc = run_json(["oracle", "--theory", workdir / "t.json"], workdir)
        assert code == 1
        assert doc["status"] == "Inconsistent"
        assert "certificate" in doc

    def test_consistent_theory_exit_zero(self, workdir):
        theory = {
            "signature": json.loads((workdir / "sig.json").read_text()),
            "sentences": ["(R a)", "(not (= a b))"],
        }
        (workdir / "t.json").write_text(json.dumps(theory))
        code, doc = run_json(["oracle", "--theory", workdir / "t.json"], workdir)
        assert code == 0
        assert doc["status"] == "Consistent"
        assert "witness" in doc

    def test_conservative(self, workdir):
        code, doc = run_json(
            [
                "conservative",
                "--sig", workdir / "sig.json",
                "--psi1", "(and (R a) (R b))",
                "--psi0", "(R a)",
            ],
            workdir,
        )
        assert code in (0, 1)
        assert "conservative" in doc

    def test_fincons_and_compact(self, workdir):
        family = {
            "signature": json.loads((workdir / "sig.json").read_text()),
            "sentences": ["(R a)", "(R b)", "(and (R a) (R b))"],
        }
        (workdir / "fam.json").write_text(json.dumps(family))
        code, doc = run_json(["fincons", "--family", workdir / "fam.json"], workdir)
        assert code == 0 and doc["ok"]
        code, doc = run_json(["compact", "--family", workdir / "fam.json"], workdir)
        assert code == 0
        assert "model" in doc
        assert all(v["conservative"] for v in doc["reports"].values())

    @pytest.mark.parametrize("command", ["conservative", "fincons"])
    def test_refutation_names_the_violating_subset(self, workdir, monkeypatch, command):
        # psi1 is psi0 and (not (R b)), so {(R b)} is consistent with psi0 and
        # not with psi1; the ordered scan first meets (R a), which refutes
        # psi0 and so, as psi1 entails psi0, psi1 without a query
        psi0 = "(and (not (R a)) (or (R b) (R e0)))"
        psi1 = "(and (not (R a)) (not (R b)) (or (R b) (R e0)))"
        queries = []
        status = compact.OracleSession.status

        def recorded(session, sentences, sig, **kwargs):
            queries.append([syntax.render(f) for f in sentences])
            return status(session, sentences, sig, **kwargs)

        monkeypatch.setattr(compact.OracleSession, "status", recorded)
        if command == "conservative":
            args = ["conservative", "--sig", workdir / "sig.json", "--psi1", psi1, "--psi0", psi0]
            body = {"conservative": False, "entailment_ok": True, "checked_subsets": 3,
                    "bounded": False}
        else:  # the family {psi0, psi1} is closed, and fails on psi1 over psi0
            family = {
                "signature": json.loads((workdir / "sig.json").read_text()),
                "sentences": [psi0, psi1],
            }
            (workdir / "fam.json").write_text(json.dumps(family))
            args = ["fincons", "--family", workdir / "fam.json"]
            body = {"ok": False, "reason": "conjunction is not conservative over a conjunct",
                    "bounded": False, "member": psi1, "base": psi0}
        code, doc = run_json(args, workdir)
        assert code == cli.EXIT_REFUTED
        assert {k: v for k, v in doc.items() if k not in ("command", "config", "version")} == dict(
            body, violating_subset=["(R b)"]
        )
        assert [psi0, "(R a)"] in queries and [psi1, "(R a)"] not in queries
        assert [psi1, "(R b)"] in queries

    def test_star_family_through_compact(self, workdir):
        # produce a witness model, star a theory against it, feed the star
        # family to the compactness pipeline
        theory = {
            "signature": json.loads((workdir / "sig.json").read_text()),
            "sentences": ["(R a)", "(not (= a b))"],
        }
        (workdir / "t.json").write_text(json.dumps(theory))
        code, doc = run_json(["oracle", "--theory", workdir / "t.json"], workdir)
        assert code == 0
        (workdir / "witness.json").write_text(json.dumps(doc["witness"]))
        gens = {
            "signature": theory["signature"],
            "sentences": ["(R a)", "(or (R a) (R b))"],
        }
        (workdir / "gens.json").write_text(json.dumps(gens))
        code, doc = run_json(
            ["star", "--theory", workdir / "gens.json", "--model", workdir / "witness.json"],
            workdir,
        )
        assert code == 0
        (workdir / "starfam.json").write_text(json.dumps(doc["family"]))
        code, doc = run_json(["compact", "--family", workdir / "starfam.json"], workdir)
        assert code == 0
        assert "model" in doc

    def test_focompact(self, workdir):
        theory = {
            "signature": json.loads((workdir / "sig.json").read_text()),
            "sentences": ["(not (= a b))", "(R a)"],
        }
        (workdir / "t.json").write_text(json.dumps(theory))
        code, doc = run_json(["focompact", "--theory", workdir / "t.json"], workdir)
        assert code == 0
        m = bvmodel.model_from_json(doc["model"])
        assert m.algebra.atom_count == 1


class TestBudgetExhaustion:
    # a run that exhausts its budget exits 2 with one JSON error line and
    # no report, never as a refutation or a traceback
    THEORY = {
        "signature": {"relations": {}, "base_constants": ["c0", "c1", "c2"],
                      "fresh_constants": ["w"]},
        "sentences": ["(or (= c0 c1) (= c0 c2))", "(not (= c1 c2))"],
    }
    FAMILY = {
        "signature": {"relations": {"R": 1}, "base_constants": ["a", "b"],
                      "fresh_constants": ["e0"]},
        "sentences": ["(R a)", "(R b)", "(and (R a) (R b))"],
    }

    @pytest.mark.parametrize("command, budget, error", [
        ("focompact", ["--budget-oracle-nodes", 1], "oracle unknown while checking the theory"),
        ("focompact", ["--budget-oracle-nodes", 2], "oracle unknown while checking the theory"),
        ("focompact", ["--budget-oracle-nodes", 3], "oracle unknown while completing"),
        ("focompact", ["--budget-max-members", 5],
         "compactness universe exceeds the bound of 5 sentences"),
        ("compact", ["--budget-max-members", 3], "member budget exceeded during materialization"),
        ("compact", ["--budget-oracle-nodes", 1],
         "oracle unknown while checking finite conservativity"),
    ], ids=["focompact-nodes-1", "focompact-nodes-2", "focompact-nodes-3", "focompact-members-5",
            "compact-members-3", "compact-nodes-1"])
    def test_exits_unknown(self, tmp_path, capsys, command, budget, error):
        focompact = command == "focompact"
        doc, flag = (self.THEORY, "--theory") if focompact else (self.FAMILY, "--family")
        (tmp_path / "input.json").write_text(json.dumps(doc))
        code, report = run_json([command, flag, tmp_path / "input.json", *budget], tmp_path)
        captured = capsys.readouterr()
        assert (code, report, captured.out) == (cli.EXIT_UNKNOWN, None, "")
        assert captured.err.splitlines() == [json.dumps({"error": error}, sort_keys=True)]

    def test_the_theory_is_unknown_to_the_oracle_under_the_same_cap(self, tmp_path):
        (tmp_path / "input.json").write_text(json.dumps(self.THEORY))
        code, report = run_json(
            ["oracle", "--theory", tmp_path / "input.json", "--budget-oracle-nodes", 1], tmp_path
        )
        assert (code, report["status"]) == (cli.EXIT_UNKNOWN, "Unknown")

    @pytest.mark.parametrize("command", ["dense", "generic", "model"])
    def test_forcing_replay_out_of_budget_exits_unknown(self, tmp_path, capsys, command):
        # the loaded empty condition is Unknown to a one-node oracle: budget
        # exhaustion, not malformed input
        sig = {"relations": {}, "base_constants": ["cw", "c0", "c1"], "fresh_constants": []}
        (tmp_path / "sig.json").write_text(json.dumps(sig))
        code, doc = run_json(
            ["forcing", "build", "--sig", tmp_path / "sig.json", "--formula", "(or (= cw c0) (= cw c1))",
             "--size-bound", 2],
            tmp_path,
        )
        assert code == 0 and len(doc["poset"]["conditions"]) == 29
        (tmp_path / "poset.json").write_text(json.dumps(doc["poset"]))
        capsys.readouterr()
        args = ["forcing", command, "--poset", tmp_path / "poset.json"]
        code, report = run_json(args + ["--budget-oracle-nodes", 1], tmp_path, "capped.json")
        captured = capsys.readouterr()
        assert (code, report, captured.out) == (cli.EXIT_UNKNOWN, None, "")
        error = {"error": "oracle unknown while replaying the loaded conditions"}
        assert captured.err.splitlines() == [json.dumps(error, sort_keys=True)]
        code, report = run_json(args, tmp_path)  # the default budget decides every condition
        assert report is not None and code in (cli.EXIT_OK, cli.EXIT_REFUTED)


class TestModelCommands:
    @pytest.fixture
    def model_file(self, workdir):
        sig = Signature(relations={}, base_constants=set(), fresh_constants={"c", "d"})
        prop = consprop.saturate_theory(Theory([]), sig)
        model, _ = consprop.model_from_consprop(prop)
        path = workdir / "model.json"
        path.write_text(json.dumps(bvmodel.model_to_json(model)))
        (workdir / "prop.json").write_text(json.dumps(prop.to_json()))
        return path

    def test_validate(self, workdir, model_file):
        code, doc = run_json(["validate-model", "--model", model_file], workdir)
        assert code == 0 and doc["ok"]

    def test_validate_reports_violations(self, workdir):
        model = {
            "algebra": {"atoms": ["a0"]},
            "domain": ["a"],
            "eq": [["1"]],
            "rel": {"R": {"z": "1"}},
            "consts": {"a": "a"},
        }
        (workdir / "bad.json").write_text(json.dumps(model))
        code, doc = run_json(["validate-model", "--model", workdir / "bad.json"], workdir)
        assert code == cli.EXIT_REFUTED
        assert doc["ok"] is False
        assert doc["violations"] == [["rel-table", "R", "('a',)"]]

    def test_validate_reports_at_most_five_violations(self, workdir):
        # an all-zero equality table fails reflexivity at each of 7 elements
        domain = [f"x{i}" for i in range(7)]
        model = {"algebra": {"atoms": ["a0"]}, "domain": domain, "eq": [["0"] * 7] * 7}
        (workdir / "bad.json").write_text(json.dumps(model))
        code, doc = run_json(["validate-model", "--model", workdir / "bad.json"], workdir)
        assert code == cli.EXIT_REFUTED
        assert doc["violations"] == [["reflexivity", x] for x in domain[:5]]

    # R holds of x on one atom and of y on the other: no element mixes x and
    # y, and none witnesses (exists (?x) (R ?x)), whose value is 1
    UNMIXED = {
        "algebra": {"atoms": ["a0", "a1"]},
        "domain": ["x", "y"],
        "eq": [["11", "00"], ["00", "11"]],
        "rel": {"R": {"x": "10", "y": "01"}},
        "consts": {"a": "x", "b": "y"},
    }

    @pytest.mark.parametrize(
        "args, code, body",
        [
            (["mixing", "--complete"], cli.EXIT_OK, {"model": bvmodel.model_to_json(
                bvmodel.mixing_completion(bvmodel.model_from_json(UNMIXED)))}),
            (["mixing"], cli.EXIT_REFUTED,
             {"ok": False, "lam": 2, "antichain": ["10", "01"], "family": ["x", "y"]}),
            (["fullness"], cli.EXIT_REFUTED,
             {"ok": False, "catalog_size": 7, "formula": "(exists (?x) (R ?x))",
              "parameters": []}),
        ],
        ids=["mixing --complete", "mixing", "fullness"],
    )
    def test_a_model_without_mixtures(self, workdir, args, code, body):
        (workdir / "m.json").write_text(json.dumps(self.UNMIXED))
        got, doc = run_json([*args, "--model", workdir / "m.json"], workdir)
        assert got == code
        assert {k: v for k, v in doc.items() if k not in ("command", "config", "version")} == body

    def test_eval(self, workdir, model_file):
        code, doc = run_json(
            ["eval", "--model", model_file, "--formula", "(and)"], workdir
        )
        assert code == 0
        assert doc["is_one"]

    def test_quotient_and_mixing(self, workdir, model_file):
        code, doc = run_json(
            ["quotient", "--model", model_file, "--ultrafilter", 0, "--dump-algebra"],
            workdir,
        )
        assert code == 0
        assert len(doc["model"]["algebra"]["atoms"]) == 1
        code, doc = run_json(["mixing", "--model", model_file], workdir)
        assert code in (0, 1)

    def test_consprop_commands(self, workdir, model_file):
        code, doc = run_json(["consprop-verify", "--consprop", workdir / "prop.json"], workdir)
        assert code == 0 and doc["ok"]
        code, doc = run_json(["consprop-model", "--consprop", workdir / "prop.json"], workdir)
        assert code == 0
        assert "model" in doc
        code, doc = run_json(
            ["consprop-model", "--consprop", workdir / "prop.json", "--mixing"], workdir
        )
        assert code == 0
        assert set(doc["diagnostics"]) == {"members", "atoms", "checked", "mixing_domain"}

    def test_consprop_model_refutations(self, workdir, capsys, monkeypatch):
        # a failed cone check and an empty family each exit 1 with one JSON
        # error line and no report
        sig = Signature(relations={"P": 1}, base_constants=set(), fresh_constants={"c0", "c1"})
        theory = Theory([syntax.parse("(P c0)", sig), syntax.parse("(not (= c0 c1))", sig)])
        prop = consprop.saturate_theory(theory, sig)
        (workdir / "prop.json").write_text(json.dumps(prop.to_json()))
        (workdir / "empty.json").write_text(json.dumps({"signature": sig.to_json(), "members": []}))
        chosen, real = syntax.parse("(P c1)", sig), bvmodel.eval_formula

        def eval_formula(model, phi, **kwargs):
            return 0 if phi == chosen else real(model, phi, **kwargs)

        monkeypatch.setattr(bvmodel, "eval_formula", eval_formula)
        failure = {
            "error": "cone is not below the value of a member sentence",
            "counterexample": repr(
                {"member": ["(P c1)"], "sentence": "(P c1)", "cone": 1, "value": 0}
            ),
        }
        empty = {"error": "empty consistency property has no model"}
        for name, error in (("prop.json", failure), ("empty.json", empty)):
            code, report = run_json(["consprop-model", "--consprop", workdir / name], workdir)
            captured = capsys.readouterr()
            assert (code, report, captured.out) == (cli.EXIT_REFUTED, None, "")
            assert captured.err.splitlines() == [json.dumps(error, sort_keys=True)]


class TestForcingCommands:
    def test_build_generic_model(self, workdir):
        sig = {"relations": {}, "base_constants": ["cw", "c0", "c1"], "fresh_constants": []}
        (workdir / "fsig.json").write_text(json.dumps(sig))
        code, doc = run_json(
            [
                "forcing", "build",
                "--sig", workdir / "fsig.json",
                "--formula", "(or (= cw c0) (= cw c1))",
                "--size-bound", 4,
            ],
            workdir,
        )
        assert code == 0
        (workdir / "poset.json").write_text(json.dumps(doc["poset"]))
        code, doc = run_json(
            ["forcing", "dense", "--poset", workdir / "poset.json"], workdir
        )
        assert code == 0 and doc["dense"]
        code, doc = run_json(
            ["forcing", "generic", "--poset", workdir / "poset.json"], workdir
        )
        assert code == 0 and doc["maximal"]
        code, doc = run_json(
            ["forcing", "model", "--poset", workdir / "poset.json"], workdir
        )
        assert code == 0
        assert "model" in doc

    def test_a_loaded_condition_passes_back_as_a_dense_set(self, workdir):
        # the condition is written in non-canonical order; loading makes it
        # canonical, so the same text given back names the same condition
        written = "(or (not (= b c)) (P a))"
        poset = {
            "signature": {"relations": {"P": 1}, "base_constants": ["a", "b", "c"]},
            "phi": "(or (P a) (not (= b c)))",
            "conditions": [[], [written]],
        }
        (workdir / "poset.json").write_text(json.dumps(poset))
        (workdir / "dense.json").write_text(json.dumps({"dense_sets": [[[written]]]}))
        code, doc = run_json(
            [
                "forcing", "generic",
                "--poset", workdir / "poset.json",
                "--dense", workdir / "dense.json",
            ],
            workdir,
        )
        assert code == 0
        assert doc["members"] == [[], ["(or (P a) (not (= b c)))"]]
        assert doc["maximal"]


class TestReplay:
    def test_identical_reports(self, workdir):
        family = {
            "signature": json.loads((workdir / "sig.json").read_text()),
            "sentences": ["(R a)", "(R b)", "(and (R a) (R b))"],
        }
        (workdir / "fam.json").write_text(json.dumps(family))
        args = ["compact", "--family", str(workdir / "fam.json"), "--seed", "7"]
        out1 = workdir / "r1.json"
        out2 = workdir / "r2.json"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_report_embeds_config_and_version(self, workdir):
        code, doc = run_json(["faicom", "--n", 2, "--seed", 3], workdir)
        assert doc["config"]["seed"] == 3
        assert doc["version"]


class TestUsageBoundary:
    def _usage_error(self, capsys, args):
        code = cli.main([str(a) for a in args])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert "error" in json.loads(captured.err)

    def test_illegal_constant_in_signature(self, workdir, capsys):
        sig = {"relations": {}, "base_constants": ["?a"], "fresh_constants": []}
        (workdir / "bad_sig.json").write_text(json.dumps(sig))
        (workdir / "t.json").write_text(json.dumps({"sentences": []}))
        self._usage_error(
            capsys, ["oracle", "--sig", workdir / "bad_sig.json", "--theory", workdir / "t.json"]
        )

    @pytest.mark.parametrize("payload", [{}, {"sentences": "(R a)"}, ["(R a)"], 3])
    def test_theory_without_a_sentence_list(self, workdir, capsys, payload):
        (workdir / "t.json").write_text(json.dumps(payload))
        self._usage_error(
            capsys, ["oracle", "--sig", workdir / "sig.json", "--theory", workdir / "t.json"]
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("relations", [1]),
            ("relations", {"R": True}),
            ("base_constants", [1, 2]),
            ("base_constants", "abc"),
            ("fresh_constants", 5),
            # names that are not one token of the grammar
            ("base_constants", ["a", "b c"]),
            ("base_constants", ["a", "(x"]),
            ("base_constants", ["a", ""]),
            ("relations", {"R": 1, "R a": 0}),
        ],
    )
    def test_malformed_signature(self, workdir, capsys, key, value):
        sig = {"relations": {"R": 1}, "base_constants": ["a", "b"], key: value}
        (workdir / "bad_sig.json").write_text(json.dumps(sig))
        (workdir / "t.json").write_text(json.dumps({"signature": sig, "sentences": ["(R a)"]}))
        self._usage_error(capsys, ["oracle", "--theory", workdir / "t.json"])
        self._usage_error(capsys, ["parse", "--sig", workdir / "bad_sig.json", "--formula", "(R a)"])

    @pytest.mark.parametrize("command", ["parse", "eval"])
    def test_formula_nested_too_deeply(self, workdir, capsys, command):
        # parse does not recurse, but validation and evaluation do
        model = {"algebra": {"atoms": ["a0"]}, "domain": ["a"], "eq": [["1"]],
                 "consts": {"a": "a", "b": "a"}, "rel": {"R": {"a": "1"}}}
        (workdir / "m.json").write_text(json.dumps(model))
        formula = "(not " * 3000 + "(R a)" + ")" * 3000
        args = [command, "--sig", workdir / "sig.json", "--formula", formula]
        if command == "eval":
            args += ["--model", workdir / "m.json"]
        self._usage_error(capsys, args)

    @pytest.mark.parametrize(
        "args",
        [
            ["faicom", "--n", 2, "--budget-oracle-nodes", 0],
            ["faicom", "--n", 0],
            ["quotient", "--ultrafilter", 99],
            ["quotient", "--ultrafilter", -1],
            ["quotient", "--filter-generator", 2],
            ["quotient", "--filter-generator", 0],
            ["eval", "--formula", "(= ?x a)", "--assignment", "[1]"],
            ["eval", "--formula", "(= ?x a)", "--assignment", '{"?x": "zz"}'],
            ["eval", "--formula", "(= ?x a)"],
            ["eval", "--formula", "(= a b)", "--sig", "sig.json"],
            ["mixing", "--lam", 0],
            ["forcing", "build", "--sig", "sig.json", "--formula", "(R a)", "--size-bound", -1],
            ["faicom", "--n", 2, "--fresh", -1],
            ["proof-check", "--sig", "sig.json", "--proof", "refl.json", "--probe-trials", -3],
            ["faicom", "--n", 2, "--out", "a-directory"],
            ["eval", "--formula", "(= a a)", "--model", "invalid.json"],
            ["quotient", "--model", "invalid.json"],
            ["mixing", "--model", "invalid.json"],
            ["fullness", "--model", "invalid.json"],
            # models without a table of the right arity for R, or without b
            ["eval", "--formula", "(R a)", "--sig", "sig.json"],
            ["eval", "--formula", "(R a)", "--sig", "sig.json", "--model", "binary.json"],
            ["fullness", "--sig", "sig.json"],
            ["fullness", "--sig", "sig.json", "--model", "binary.json"],
            ["star", "--theory", "rb.json", "--sig", "sig.json"],
            ["star", "--theory", "rb.json", "--sig", "sig.json", "--model", "binary.json"],
            ["star", "--theory", "rb.json", "--sig", "sig.json", "--model", "unary.json"],
            # a model that is not two-valued, and one in which (R b) is false
            ["star", "--theory", "rb.json", "--sig", "sig.json", "--model", "two-atoms.json"],
            ["star", "--theory", "rb.json", "--sig", "sig.json", "--model", "rb-false.json"],
            ["qe", "--sig", "sig.json"],
            # a target that is not a disjunction needs an atom to decide
            ["forcing", "dense", "--poset", "poset.json"],
        ],
        ids=lambda args: " ".join(map(str, args)),
    )
    def test_malformed_arguments(self, workdir, capsys, args):
        model = {"algebra": {"atoms": ["a0"]}, "domain": ["a"], "eq": [["1"]], "consts": {"a": "a"}}
        (workdir / "m.json").write_text(json.dumps(model))
        # well shaped, but the R table misses the tuple (a)
        (workdir / "invalid.json").write_text(json.dumps(dict(model, rel={"R": {"z": "1"}})))
        (workdir / "binary.json").write_text(json.dumps(dict(model, rel={"R": {"a a": "1"}})))
        (workdir / "unary.json").write_text(json.dumps(dict(model, rel={"R": {"a": "1"}})))
        (workdir / "rb.json").write_text(json.dumps({"sentences": ["(R b)"]}))
        consts = {"a": "a", "b": "a"}
        (workdir / "rb-false.json").write_text(
            json.dumps(dict(model, consts=consts, rel={"R": {"a": "0"}}))
        )
        two = {"algebra": {"atoms": ["a0", "a1"]}, "domain": ["a"], "eq": [["11"]]}
        (workdir / "two-atoms.json").write_text(
            json.dumps(dict(two, consts=consts, rel={"R": {"a": "11"}}))
        )
        refl = {"rule": "eq-axiom-1", "conclusion": {"left": [], "right": ["(= a a)"]}}
        (workdir / "refl.json").write_text(json.dumps(refl))
        poset = {"signature": {"base_constants": ["a"]}, "phi": "(= a a)", "conditions": [[]]}
        (workdir / "poset.json").write_text(json.dumps(poset))
        (workdir / "a-directory").mkdir()
        files = {"sig.json", "invalid.json", "binary.json", "unary.json", "rb.json", "a-directory",
                 "rb-false.json", "two-atoms.json", "refl.json", "poset.json"}
        args = [workdir / a if a in files else a for a in args]
        if args[0] not in ("faicom", "forcing", "proof-check", "qe") and "--model" not in args:
            args = args + ["--model", workdir / "m.json"]
        self._usage_error(capsys, args)

    @pytest.mark.parametrize(
        "command",
        ["oracle", "oracle --require-qe", "conservative", "fincons", "compact", "focompact",
         "forcing build"],
    )
    def test_quantified_input_without_fresh_constants(self, workdir, capsys, command):
        sig = {"relations": {"P": 1}, "base_constants": ["a"]}
        phi = "(exists (?x) (P ?x))"
        (workdir / "qsig.json").write_text(json.dumps(sig))
        (workdir / "q.json").write_text(json.dumps({"signature": sig, "sentences": [phi]}))
        sig_path, theory = workdir / "qsig.json", workdir / "q.json"
        args = {
            "oracle": ["oracle", "--theory", theory],
            "oracle --require-qe": ["oracle", "--theory", theory, "--require-qe"],
            "conservative": ["conservative", "--sig", sig_path, "--psi1", f"(and (P a) {phi})",
                             "--psi0", phi],
            "fincons": ["fincons", "--family", theory],
            "compact": ["compact", "--family", theory],
            "focompact": ["focompact", "--theory", theory],
            "forcing build": ["forcing", "build", "--sig", sig_path, "--formula", phi],
        }[command]
        self._usage_error(capsys, args)

    @pytest.mark.parametrize("signature", [3, ["a"]])
    def test_signature_that_is_not_an_object(self, workdir, capsys, signature):
        (workdir / "t.json").write_text(json.dumps({"signature": signature, "sentences": []}))
        self._usage_error(capsys, ["oracle", "--theory", workdir / "t.json"])
        (workdir / "prop.json").write_text(json.dumps({"signature": signature, "members": []}))
        self._usage_error(capsys, ["consprop-verify", "--consprop", workdir / "prop.json"])

    @pytest.mark.parametrize("command", ["consprop-verify", "consprop-model"])
    @pytest.mark.parametrize(
        "members", [None, "x", [3], [["(P c)"], "y"]], ids=["missing", "string", "int", "mixed"]
    )
    def test_consprop_without_a_member_list(self, workdir, capsys, command, members):
        payload = {"signature": {"relations": {"P": 1}, "fresh_constants": ["c", "d"]}}
        if members is not None:
            payload["members"] = members
        (workdir / "prop.json").write_text(json.dumps(payload))
        self._usage_error(capsys, [command, "--consprop", workdir / "prop.json"])

    @pytest.mark.parametrize(
        "model",
        [
            {},
            [],
            {"algebra": {}, "domain": ["a"], "eq": [["1"]]},
            {"algebra": {"atoms": ["a0"]}, "eq": [["1"]]},
            {"algebra": {"atoms": ["a0"]}, "domain": "a", "eq": [["1"]]},
            {"algebra": {"atoms": ["a0"]}, "domain": ["a"]},
            {"algebra": {"atoms": ["a0"]}, "domain": ["a", "b"], "eq": [["1", "0"]]},
            {"algebra": {"atoms": ["a0"]}, "domain": ["a"], "eq": [["1"]], "rel": {"R": 3}},
            {"algebra": {"atoms": ["a0"]}, "domain": ["a"], "eq": [["1"]], "consts": {"c": 0}},
            {"algebra": {"atoms": ["a0"]}, "domain": [], "eq": []},
            {"algebra": {"atoms": ["a0"]}, "domain": ["a"], "eq": [["2"]]},
        ],
    )
    def test_malformed_model(self, workdir, capsys, model):
        (workdir / "m.json").write_text(json.dumps(model))
        self._usage_error(capsys, ["validate-model", "--model", workdir / "m.json"])

    @pytest.mark.parametrize("command", ["dense", "generic", "model"])
    @pytest.mark.parametrize(
        "poset",
        [
            {},
            {"signature": {"base_constants": ["a"]}, "conditions": []},
            {"signature": {"base_constants": ["a"]}, "phi": "(= a a)"},
            {"signature": {"base_constants": ["a"]}, "phi": "(= a a)", "conditions": [3]},
            {"signature": {"relations": {"R": 1}, "base_constants": ["a"]}, "phi": "(R a)",
             "conditions": [[], ["(not (R a))"]]},
        ],
        ids=["empty", "no-phi", "no-conditions", "bad-condition", "inconsistent-condition"],
    )
    def test_malformed_poset(self, workdir, capsys, command, poset):
        (workdir / "poset.json").write_text(json.dumps(poset))
        self._usage_error(capsys, ["forcing", command, "--poset", workdir / "poset.json"])

    @pytest.mark.parametrize(
        "dense",
        [{}, {"dense_sets": [["(= a a)"]]}, {"dense_sets": [[["(= a a)"]]]}, {"dense_sets": [[]]}],
    )
    def test_malformed_dense_sets(self, workdir, capsys, dense):
        poset = {"signature": {"base_constants": ["a"]}, "phi": "(= a a)", "conditions": [[]]}
        (workdir / "poset.json").write_text(json.dumps(poset))
        (workdir / "dense.json").write_text(json.dumps(dense))
        self._usage_error(
            capsys,
            ["forcing", "generic", "--poset", workdir / "poset.json", "--dense", workdir / "dense.json"],
        )

    @pytest.mark.parametrize(
        "proof",
        [
            {},
            {"rule": 3},
            {"rule": "axiom", "conclusion": {"left": "(R a)"}},
            {"rule": "cut", "data": {"formula": 3}},
            {"rule": "cut", "data": {"pairs": [["a", 1]]}},
            {"rule": "cut", "premises": {}},
            {"rule": "cut", "premises": [{"rule": "axiom"}, {}]},
        ],
    )
    def test_malformed_proof(self, workdir, capsys, proof):
        (workdir / "proof.json").write_text(json.dumps(proof))
        self._usage_error(
            capsys, ["proof-check", "--proof", workdir / "proof.json", "--sig", workdir / "sig.json"]
        )


class TestProofCheck:
    def test_capturing_substitution_is_rejected(self, tmp_path):
        (tmp_path / "sig.json").write_text(json.dumps({"relations": {"R": 2}, "base_constants": ["a"]}))
        forall = "(forall (?x) (exists (?y) (R ?x ?y)))"
        captured = "(exists (?y) (R ?y ?y))"
        proof = {
            "rule": "left-forall",
            "conclusion": {"left": [forall], "right": [captured]},
            "data": {"formula": forall, "terms": ["?y"]},
            "premises": [
                {"rule": "axiom", "conclusion": {"left": [captured], "right": [captured]}}
            ],
        }
        (tmp_path / "proof.json").write_text(json.dumps(proof))
        code, doc = run_json(
            ["proof-check", "--proof", tmp_path / "proof.json", "--sig", tmp_path / "sig.json"],
            tmp_path,
        )
        assert code == cli.EXIT_REFUTED
        assert (doc["ok"], doc["path"], doc["reason"]) == (
            False, [], "substitution captures variable ?y"
        )

    def test_a_checked_proof_is_probed(self, workdir):
        refl = {"rule": "eq-axiom-1", "conclusion": {"left": [], "right": ["(= a a)"]}}
        (workdir / "refl.json").write_text(json.dumps(refl))
        code, doc = run_json(
            ["proof-check", "--sig", workdir / "sig.json", "--proof", workdir / "refl.json",
             "--probe-trials", 3],
            workdir,
        )
        assert code == 0
        assert (doc["ok"], doc["path"], doc["reason"]) == (True, [], "")
        assert doc["probe"] == {"ok": True, "trials": 3}


def _hash_seed_env(seed):
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)


def _under_hash_seeds(args, seeds=("0", "2", "5")):
    """Run the CLI once per PYTHONHASHSEED; return the completed processes."""
    return [
        subprocess.run(
            [sys.executable, "-m", "boolkit.cli", *map(str, args)],
            capture_output=True, text=True, env=_hash_seed_env(seed), timeout=120,
        )
        for seed in seeds
    ]


class TestDeterminism:
    def test_relation_clash_detail_does_not_depend_on_the_hash_seed(self, tmp_path):
        # merging a and b clashes on all four relations; the least is named
        payload = {
            "signature": {"relations": dict.fromkeys("RPQS", 1), "base_constants": ["a", "b"]},
            "sentences": [f"({r} a)" for r in "RPQS"]
            + [f"(not ({r} b))" for r in "RPQS"]
            + ["(= a b)"],
        }
        (tmp_path / "theory.json").write_text(json.dumps(payload))
        runs = _under_hash_seeds(["oracle", "--theory", tmp_path / "theory.json"], "012345")
        for done in runs:
            assert done.returncode == cli.EXIT_REFUTED, done.stderr
        assert len({done.stdout for done in runs}) == 1

        def clashes(node):
            if "conflict" in node:
                conflict = node["conflict"]
                return [conflict["detail"]] if conflict["kind"] == "rel-congruence" else []
            return clashes(node["true"]) + clashes(node["false"])

        assert clashes(json.loads(runs[0].stdout)["certificate"]) == ["('P', ('a',))"]

    def test_first_violation_does_not_depend_on_the_hash_seed(self, tmp_path):
        payload = {
            "signature": {"relations": {"P": 1}, "fresh_constants": ["c", "d"]},
            "members": [
                [],
                ["(and (P c) (P d))"],
                ["(or (P c) (P d))"],
                ["(= c d)"],
                ["(not (not (P c)))"],
            ],
        }
        (tmp_path / "prop.json").write_text(json.dumps(payload))
        runs = _under_hash_seeds(["consprop-verify", "--consprop", tmp_path / "prop.json"])
        for done in runs:
            assert done.returncode == cli.EXIT_REFUTED, done.stderr
        outputs = [done.stdout for done in runs]
        assert outputs[0] == outputs[1] == outputs[2]
        assert json.loads(outputs[0])["clause"] == "Str.1"

    def test_golden_reports_do_not_depend_on_the_hash_seed(self):
        golden = Path(__file__).with_name("test_golden_reports.py")
        runs = [
            subprocess.Popen(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(golden)],
                cwd=golden.parents[1], env=_hash_seed_env(seed),
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            for seed in ("0", "7")
        ]
        for run in runs:
            output, _ = run.communicate(timeout=120)
            assert run.returncode == 0, output
