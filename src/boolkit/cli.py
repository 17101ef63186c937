"""Command-line front end: every subcommand reads JSON payloads, runs one
pipeline, and writes a deterministic JSON report (no timestamps; identical
arguments and seed give identical bytes).

Exit codes: 0 the property holds / the run succeeded, 1 refuted with
certificate, 2 unknown or budget exhausted, 64 usage error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__, balg, bvmodel, compact, consprop, forcing, proofs, syntax
from .errors import BoolkitError, ConstructionFailure, ParseError, ResourceBudgetError, SignatureError
from .syntax import Signature, Theory

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


@dataclass(frozen=True)
class RunConfig:
    seed: int
    budget: compact.Budget
    out: str = ""

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "budget": {
                "oracle_nodes": self.budget.oracle_nodes,
                "max_subset": self.budget.max_subset,
                "max_members": self.budget.max_members,
                "eval_steps": self.budget.eval_steps,
            },
        }


class UsageError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _signature(args, payload: dict = None) -> Signature:
    if getattr(args, "sig", None):
        return Signature.from_json(_load_json(args.sig))
    if payload and "signature" in payload:
        return Signature.from_json(payload["signature"])
    raise UsageError("a signature is required (--sig or embedded in the payload)")


def _theory_payload(args, key: str = "theory"):
    path = getattr(args, key, None)
    if not path:
        raise UsageError(f"--{key} is required")
    payload = _load_json(path)
    sentences = payload.get("sentences") if isinstance(payload, dict) else None
    if not isinstance(sentences, list):
        raise UsageError(f"{path}: a \"sentences\" list is required")
    sig = _signature(args, payload)
    return Theory([syntax.parse(text, sig) for text in sentences]), sig


def _require(ok: bool, path: str, what: str) -> None:
    """Reject a malformed payload at load time."""
    if not ok:
        raise UsageError(f"{path}: {what}")


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(text, str) for text in value)


def _string_lists(value) -> bool:
    return isinstance(value, list) and all(_strings(item) for item in value)


def _consprop_payload(args) -> consprop.ConsistencyProperty:
    payload = _load_json(args.consprop)
    members = payload.get("members") if isinstance(payload, dict) else None
    _require(
        _string_lists(members), args.consprop, '"members" must be a list of lists of sentences'
    )
    _require("signature" in payload, args.consprop, 'a "signature" is required')
    return consprop.ConsistencyProperty.from_json(payload)


def _model(args, check: bool = True) -> bvmodel.BValuedModel:
    if not getattr(args, "model", None):
        raise UsageError("--model is required")
    doc = _load_json(args.model)
    _require(isinstance(doc, dict), args.model, "a model is a JSON object")
    algebra = doc.get("algebra")
    _require(
        isinstance(algebra, dict) and isinstance(algebra.get("atoms"), list),
        args.model,
        '"algebra" must be an object with an "atoms" list',
    )
    domain = doc.get("domain")
    _require(_strings(domain), args.model, '"domain" must be a list of element names')
    eq = doc.get("eq")
    _require(
        _string_lists(eq) and len(eq) == len(domain) and all(len(row) == len(domain) for row in eq),
        args.model,
        '"eq" must be a square matrix of bit strings over the domain',
    )
    rel = doc.get("rel", {})
    _require(
        isinstance(rel, dict)
        and all(
            isinstance(table, dict) and all(isinstance(bits, str) for bits in table.values())
            for table in rel.values()
        ),
        args.model,
        '"rel" must map relation names to tables of bit strings',
    )
    consts = doc.get("consts", {})
    _require(
        isinstance(consts, dict) and all(isinstance(elem, str) for elem in consts.values()),
        args.model,
        '"consts" must map constant names to elements',
    )
    return bvmodel.model_from_json(doc, check)


def _check_proof_payload(doc, path: str) -> None:
    _require(
        isinstance(doc, dict) and isinstance(doc.get("rule"), str),
        path,
        'every proof node is an object with a "rule" name',
    )
    conclusion = doc.get("conclusion", {})
    _require(
        isinstance(conclusion, dict)
        and _strings(conclusion.get("left", []))
        and _strings(conclusion.get("right", [])),
        path,
        '"conclusion" must hold "left" and "right" lists of sentences',
    )
    data = doc.get("data", {})
    _require(
        isinstance(data, dict)
        and isinstance(data.get("formula", ""), str)
        and _string_lists(data.get("pairs", []))
        and isinstance(data.get("mapping", {}), dict)
        and _strings(data.get("terms", [])),
        path,
        '"data" must be an object: "formula" a sentence, "pairs" a list of lists of '
        'terms, "mapping" an object, "terms" a list of terms',
    )
    premises = doc.get("premises", [])
    _require(isinstance(premises, list), path, '"premises" must be a list of proof nodes')
    for premise in premises:
        _check_proof_payload(premise, path)


def _report(args, config: RunConfig, body: dict, code: int) -> int:
    doc = {"command": args.command, "version": __version__, "config": config.to_json()}
    doc.update(body)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return code


def _oracle_body(verdict: compact.OracleVerdict, include_witness: bool = True) -> dict:
    body = {"status": verdict.status, "budget_used": verdict.budget_used}
    if verdict.witness is not None and include_witness:
        body["witness"] = bvmodel.model_to_json(verdict.witness)
    if verdict.certificate is not None:
        body["certificate"] = verdict.certificate
    return body


def _status_code(status: str) -> int:
    if status == compact.CONSISTENT:
        return EXIT_OK
    if status == compact.INCONSISTENT:
        return EXIT_REFUTED
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args, config):
    sig = _signature(args)
    f = syntax.parse(args.formula, sig)
    syntax.validate(f, sig)
    return _report(args, config, {"formula": syntax.render(f)}, EXIT_OK)


def _cmd_eval(args, config):
    m = _model(args)
    sig = _signature(args) if args.sig else _model_signature(m)
    f = syntax.parse(args.formula, sig)
    assignment = json.loads(args.assignment) if args.assignment else None
    value = bvmodel.eval_formula(m, f, assignment, max_steps=config.budget.eval_steps)
    body = {
        "value": bvmodel.bits_to_string(value, m.algebra.atom_count),
        "is_one": value == m.algebra.one,
    }
    return _report(args, config, body, EXIT_OK)


def _model_signature(m: bvmodel.BValuedModel) -> Signature:
    relations = {}
    for name, table in m.rel.items():
        relations[name] = len(next(iter(table))) if table else 0
    return Signature(relations=relations, base_constants=set(m.consts))


def _cmd_validate_model(args, config):
    m = _model(args, check=False)
    report = bvmodel.validate_model(m, max_violations=5)
    body = {"ok": report.ok, "violations": [list(map(str, v)) for v in report.violations]}
    return _report(args, config, body, EXIT_OK if report.ok else EXIT_REFUTED)


def _cmd_quotient(args, config):
    m = _model(args)
    if args.filter_generator:
        gen = bvmodel.bits_from_string(args.filter_generator)
        filt = balg.Filter(m.algebra, gen)
    else:
        filt = balg.ultrafilters(m.algebra)[args.ultrafilter]
    q = bvmodel.quotient_model(m, filt)
    body = {"model": bvmodel.model_to_json(q)}
    if args.dump_algebra:
        body["algebra"] = _algebra_dump(q.algebra)
    return _report(args, config, body, EXIT_OK)


def _algebra_dump(b: balg.FiniteBooleanAlgebra) -> dict:
    dump = {"atoms": [f"a{i}" for i in range(b.atom_count)]}
    if b.atom_count <= 6:
        dump["elements"] = [bvmodel.bits_to_string(x, b.atom_count) for x in b.elements()]
    return dump


def _cmd_mixing(args, config):
    m = _model(args)
    if args.complete:
        completed = bvmodel.mixing_completion(m)
        body = {"model": bvmodel.model_to_json(completed)}
        return _report(args, config, body, EXIT_OK)
    lam = args.lam if args.lam else m.algebra.atom_count
    verdict = bvmodel.check_mixing(m, lam)
    body = {"ok": verdict.ok, "lam": lam}
    if not verdict.ok:
        body["antichain"] = [
            bvmodel.bits_to_string(a, m.algebra.atom_count) for a in verdict.antichain
        ]
        body["family"] = [str(x) for x in verdict.family]
    return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)


def _cmd_fullness(args, config):
    m = _model(args)
    sig = _signature(args) if args.sig else _model_signature(m)
    catalog = bvmodel.existential_catalog(sig)
    catalog += bvmodel.mixing_witness_catalog(min(m.algebra.atom_count, 3))
    verdict = bvmodel.check_fullness(m, catalog)
    body = {"ok": verdict.ok, "catalog_size": len(catalog)}
    if not verdict.ok:
        body["formula"] = syntax.render(verdict.formula)
        body["parameters"] = [str(x) for x in verdict.parameters]
    return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)


def _cmd_nnf(args, config):
    sig = _signature(args)
    f = syntax.parse(args.formula, sig)
    out = syntax.nnf_step(f) if args.step else syntax.nnf(f)
    return _report(args, config, {"formula": syntax.render(out)}, EXIT_OK)


def _cmd_qe(args, config):
    sig = _signature(args)
    if args.axiom:
        out = syntax.qe_axiom(sig)
    else:
        if not args.formula:
            raise UsageError("--formula or --axiom is required")
        out = syntax.qe_transform(syntax.parse(args.formula, sig), sig)
    return _report(args, config, {"formula": syntax.render(out)}, EXIT_OK)


def _cmd_proof_check(args, config):
    sig = _signature(args)
    doc = _load_json(args.proof)
    _check_proof_payload(doc, args.proof)
    tree = proofs.proof_from_json(doc, sig)
    verdict = proofs.check_proof(tree)
    body = {"ok": verdict.ok, "path": list(verdict.path), "reason": verdict.reason}
    if verdict.ok and args.probe_trials:
        report = proofs.soundness_probe(
            tree, trials=args.probe_trials, seed=config.seed, sig=sig
        )
        body["probe"] = {"ok": report.ok, "trials": report.trials}
        if not report.ok:
            return _report(args, config, body, EXIT_REFUTED)
    return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)


def _cmd_consprop_verify(args, config):
    prop = _consprop_payload(args)
    verdict = consprop.verify_consistency_property(prop)
    body = {"ok": verdict.ok}
    if not verdict.ok:
        body["clause"] = verdict.clause
        body["member"] = sorted(syntax.render(f) for f in verdict.member)
        body["detail"] = verdict.detail
    return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)


def _cmd_consprop_model(args, config):
    prop = _consprop_payload(args)
    if args.mixing:
        model, diagnostics = consprop.mixing_model_from_consprop(prop, config.budget)
    else:
        model, diagnostics = consprop.model_from_consprop(prop, config.budget)
    body = {"model": bvmodel.model_to_json(model), "diagnostics": diagnostics}
    if args.dump_algebra:
        body["algebra"] = _algebra_dump(model.algebra)
    return _report(args, config, body, EXIT_OK)


def _cmd_oracle(args, config):
    theory, sig = _theory_payload(args)
    verdict = compact.consistency_oracle(theory, sig, config.budget, require_qe=args.require_qe)
    return _report(args, config, _oracle_body(verdict), _status_code(verdict.status))


def _cmd_conservative(args, config):
    sig = _signature(args)
    psi1 = syntax.parse(args.psi1, sig)
    psi0 = syntax.parse(args.psi0, sig)
    report = compact.is_conservative_strengthening(psi1, psi0, sig, config.budget)
    body = {
        "conservative": report.conservative,
        "entailment_ok": report.entailment_ok,
        "checked_subsets": report.checked_subsets,
        "bounded": report.bounded,
    }
    if report.violating_subset is not None:
        body["violating_subset"] = sorted(syntax.render(f) for f in report.violating_subset)
    if report.unknown:
        return _report(args, config, body, EXIT_UNKNOWN)
    return _report(args, config, body, EXIT_OK if report.conservative else EXIT_REFUTED)


def _cmd_fincons(args, config):
    family, sig = _theory_payload(args, key="family")
    verdict = compact.is_finitely_conservative(list(family), sig, config.budget)
    body = {"ok": verdict.ok, "reason": verdict.reason, "bounded": verdict.bounded}
    if verdict.member is not None:
        body["member"] = syntax.render(verdict.member)
    if verdict.base is not None:
        body["base"] = syntax.render(verdict.base)
    if verdict.report is not None and verdict.report.violating_subset is not None:
        body["violating_subset"] = sorted(
            syntax.render(f) for f in verdict.report.violating_subset
        )
    if verdict.unknown:
        return _report(args, config, body, EXIT_UNKNOWN)
    return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)


def _cmd_compact(args, config):
    family, sig = _theory_payload(args, key="family")
    result = compact.compactness_run(list(family), sig, config.budget)
    body = {
        "model": bvmodel.model_to_json(result.model),
        "conjunction": syntax.render(result.conjunction),
        "members": len(result.consistency_property),
        "diagnostics": result.diagnostics,
        "reports": {
            key: {
                "conservative": rep.conservative,
                "checked_subsets": rep.checked_subsets,
            }
            for key, rep in sorted(result.reports.items())
        },
    }
    if args.dump_algebra:
        body["algebra"] = _algebra_dump(result.model.algebra)
    return _report(args, config, body, EXIT_OK)


def _cmd_star(args, config):
    theory, sig = _theory_payload(args)
    m = _model(args)
    stars = compact.star_theory(m, list(theory), sig)
    family = compact.conjunction_closure(stars)
    body = {
        "stars": [syntax.render(f) for f in stars],
        "family": {
            "signature": sig.to_json(),
            "sentences": [syntax.render(f) for f in family],
        },
    }
    return _report(args, config, body, EXIT_OK)


def _cmd_focompact(args, config):
    theory, sig = _theory_payload(args)
    model = compact.first_order_compactness_demo(theory, sig, config.budget)
    body = {"model": bvmodel.model_to_json(model)}
    return _report(args, config, body, EXIT_OK)


def _cmd_faicom(args, config):
    theory = compact.faicom_family(args.n)
    sig = compact.faicom_signature(args.n, fresh=args.fresh)
    body = {
        "theory": {
            "signature": sig.to_json(),
            "sentences": [syntax.render(f) for f in theory],
        }
    }
    return _report(args, config, body, EXIT_OK)


def _poset(args, config) -> forcing.SPhiPoset:
    doc = _load_json(args.poset)
    _require(
        isinstance(doc, dict) and "signature" in doc, args.poset, 'a "signature" is required'
    )
    _require(isinstance(doc.get("phi"), str), args.poset, '"phi" must be a sentence')
    _require(
        _string_lists(doc.get("conditions")),
        args.poset,
        '"conditions" must be a list of lists of sentences',
    )
    sig = Signature.from_json(doc["signature"])
    phi = syntax.canon(syntax.parse(doc["phi"], sig))
    conditions = [
        frozenset(syntax.parse(text, sig) for text in member)
        for member in doc["conditions"]
    ]
    # replay the consistency filter on load
    for s in conditions:
        verdict = compact.consistency_oracle(list(s) + [phi], sig, config.budget)
        if verdict.status != compact.CONSISTENT:
            raise UsageError(
                "loaded condition is not consistent with the target sentence: "
                + ", ".join(sorted(syntax.render(f) for f in s))
            )
    return forcing.SPhiPoset(phi, sig, frozenset(conditions))


def _dense_sets(args, p: forcing.SPhiPoset) -> list:
    if not args.dense:
        return []
    doc = _load_json(args.dense)
    dense_sets = doc.get("dense_sets") if isinstance(doc, dict) else None
    _require(
        isinstance(dense_sets, list) and all(_string_lists(entry) for entry in dense_sets),
        args.dense,
        '"dense_sets" must be a list of lists of conditions (lists of sentences)',
    )
    out = []
    for entry in dense_sets:
        out.append(
            [frozenset(syntax.parse(text, p.sig) for text in member) for member in entry]
        )
    return out


def _cmd_forcing(args, config):
    if args.forcing_command == "build":
        sig = _signature(args)
        phi = syntax.parse(args.formula, sig)
        p = forcing.build_sphi(phi, sig, args.size_bound, config.budget)
        body = {"poset": p.to_json(), "excluded_unknown": len(p.excluded_unknown)}
        return _report(args, config, body, EXIT_OK)
    p = _poset(args, config)
    if args.forcing_command == "dense":
        if args.atom:
            d = forcing.dense_decision_set(p, syntax.parse(args.atom, p.sig))
        else:
            phi = p.phi
            if not isinstance(phi, syntax.Or):
                raise UsageError("--atom is required unless the target is a disjunction")
            d = forcing.dense_commitment_set(p, phi)
        verdict = forcing.is_dense(d, p, strict=args.strict)
        body = {
            "dense": verdict.ok,
            "set": sorted(sorted(syntax.render(f) for f in s) for s in d),
        }
        return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)
    dense = _dense_sets(args, p)
    g = forcing.generic_filter(p, dense)
    if args.forcing_command == "generic":
        body = {
            "members": sorted(sorted(syntax.render(f) for f in s) for s in g.members),
            "maximal": g.maximal,
        }
        return _report(args, config, body, EXIT_OK)
    if args.forcing_command == "model":
        m = forcing.term_model(g)
        body = {
            "model": bvmodel.model_to_json(m),
            "sigma": sorted(syntax.render(f) for f in g.sigma()),
        }
        return _report(args, config, body, EXIT_OK)
    raise UsageError(f"unknown forcing subcommand {args.forcing_command!r}")


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolkit",
        description="Boolean-valued semantics workbench for finitely-indexed infinitary logic",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget-oracle-nodes", type=int, default=200_000)
    common.add_argument("--budget-max-subset", type=int, default=None)
    common.add_argument("--budget-max-members", type=int, default=20_000)
    common.add_argument("--budget-eval-steps", type=int, default=10**6)
    common.add_argument("--out", default="")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        return p

    p = add("parse")
    p.add_argument("--sig", required=True)
    p.add_argument("--formula", required=True)

    p = add("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--sig")
    p.add_argument("--assignment")

    p = add("validate-model")
    p.add_argument("--model", required=True)

    p = add("quotient")
    p.add_argument("--model", required=True)
    p.add_argument("--filter-generator")
    p.add_argument("--ultrafilter", type=int, default=0)
    p.add_argument("--dump-algebra", action="store_true")

    p = add("mixing")
    p.add_argument("--model", required=True)
    p.add_argument("--lam", type=int)
    p.add_argument("--complete", action="store_true")

    p = add("fullness")
    p.add_argument("--model", required=True)
    p.add_argument("--sig")

    p = add("nnf")
    p.add_argument("--sig", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--step", action="store_true")

    p = add("qe")
    p.add_argument("--sig", required=True)
    p.add_argument("--formula")
    p.add_argument("--axiom", action="store_true")

    p = add("proof-check")
    p.add_argument("--sig", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--probe-trials", type=int, default=0)

    p = add("consprop-verify")
    p.add_argument("--consprop", required=True)

    p = add("consprop-model")
    p.add_argument("--consprop", required=True)
    p.add_argument("--mixing", action="store_true")
    p.add_argument("--dump-algebra", action="store_true")

    p = add("oracle")
    p.add_argument("--theory", required=True)
    p.add_argument("--sig")
    p.add_argument("--require-qe", action="store_true")

    p = add("conservative")
    p.add_argument("--sig", required=True)
    p.add_argument("--psi1", required=True)
    p.add_argument("--psi0", required=True)

    p = add("fincons")
    p.add_argument("--family", required=True)
    p.add_argument("--sig")

    p = add("compact")
    p.add_argument("--family", required=True)
    p.add_argument("--sig")
    p.add_argument("--dump-algebra", action="store_true")

    p = add("star")
    p.add_argument("--theory", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--sig")

    p = add("focompact")
    p.add_argument("--theory", required=True)
    p.add_argument("--sig")

    p = add("faicom")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fresh", type=int, default=2, help="size of the fresh-constant pool")

    p = sub.add_parser("forcing")
    fsub = p.add_subparsers(dest="forcing_command", required=True)
    fb = fsub.add_parser("build", parents=[common])
    fb.add_argument("--sig", required=True)
    fb.add_argument("--formula", required=True)
    fb.add_argument("--size-bound", type=int, default=3)
    fd = fsub.add_parser("dense", parents=[common])
    fd.add_argument("--poset", required=True)
    fd.add_argument("--atom")
    fd.add_argument("--strict", action="store_true")
    fg = fsub.add_parser("generic", parents=[common])
    fg.add_argument("--poset", required=True)
    fg.add_argument("--dense")
    fm = fsub.add_parser("model", parents=[common])
    fm.add_argument("--poset", required=True)
    fm.add_argument("--dense")
    return parser


_HANDLERS = {
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "validate-model": _cmd_validate_model,
    "quotient": _cmd_quotient,
    "mixing": _cmd_mixing,
    "fullness": _cmd_fullness,
    "nnf": _cmd_nnf,
    "qe": _cmd_qe,
    "proof-check": _cmd_proof_check,
    "consprop-verify": _cmd_consprop_verify,
    "consprop-model": _cmd_consprop_model,
    "oracle": _cmd_oracle,
    "conservative": _cmd_conservative,
    "fincons": _cmd_fincons,
    "compact": _cmd_compact,
    "star": _cmd_star,
    "focompact": _cmd_focompact,
    "faicom": _cmd_faicom,
    "forcing": _cmd_forcing,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    budget = compact.Budget(
        oracle_nodes=args.budget_oracle_nodes,
        max_subset=args.budget_max_subset,
        max_members=args.budget_max_members,
        eval_steps=args.budget_eval_steps,
    )
    config = RunConfig(seed=args.seed, budget=budget, out=args.out)
    handler = _HANDLERS[args.command]
    try:
        return handler(args, config)
    except (UsageError, ParseError, SignatureError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_USAGE
    except ResourceBudgetError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_UNKNOWN
    except ConstructionFailure as exc:
        print(
            json.dumps(
                {"error": str(exc), "counterexample": repr(exc.counterexample)},
                sort_keys=True,
            ),
            file=sys.stderr,
        )
        return EXIT_REFUTED
    except BoolkitError as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True), file=sys.stderr)
        return EXIT_REFUTED


if __name__ == "__main__":
    sys.exit(main())
