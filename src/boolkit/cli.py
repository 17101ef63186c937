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
from dataclasses import asdict, dataclass, fields

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
        return {"seed": self.seed, "budget": asdict(self.budget)}


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# payload shapes

# One shape per payload kind.  A shape is a JSON leaf type (``str``, ``int``);
# a one-element list, for a JSON list of that shape; a dict of named keys, for
# an object (a key ending in "?" is optional); ``{str: shape}``, for an object
# whose every value has that shape; or the name of another kind.
_SHAPES = {
    "signature": {"relations?": {str: int}, "base_constants?": [str], "fresh_constants?": [str]},
    "theory": {"signature?": "signature", "sentences": [str]},
    "consprop": {"signature": "signature", "members": [[str]]},
    "model": {
        "algebra": {"atoms": [str]},
        "domain": [str],
        "eq": [[str]],
        "rel?": {str: {str: str}},
        "consts?": {str: str},
    },
    "proof": {
        "rule": str,
        "conclusion?": {"left?": [str], "right?": [str]},
        "data?": {"formula?": str, "pairs?": [[str]], "mapping?": {str: str}, "terms?": [str]},
        "premises?": ["proof"],
    },
    "poset": {"signature": "signature", "phi": str, "conditions": [[str]]},
    "dense": {"dense_sets": [[[str]]]},
}
_JSON_TYPES = {str: "a string", int: "an integer", list: "a list", dict: "an object"}


def _check(doc, shape, where: str) -> None:
    """Raise UsageError naming the JSON path of the first place where ``doc``
    departs from ``shape``."""
    if isinstance(shape, str):
        shape = _SHAPES[shape]
    kind = type(shape) if isinstance(shape, (list, dict)) else shape
    if type(doc) is not kind:  # exact: JSON true is a bool, not an integer
        raise UsageError(f"{where} must be {_JSON_TYPES[kind]}")
    if kind is list:
        for i, item in enumerate(doc):
            _check(item, shape[0], f"{where}[{i}]")
    elif kind is dict and str in shape:
        for key, item in doc.items():
            _check(item, shape[str], f"{where}.{key}")
    elif kind is dict:
        for key, sub in shape.items():
            name = key.rstrip("?")
            if name in doc:
                _check(doc[name], sub, f"{where}.{name}")
            elif name == key:
                raise UsageError(f"{where}.{name} is required")


def _load(path: str, kind: str):
    """Read a JSON payload of one of the ``_SHAPES`` kinds."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    _check(doc, kind, f"{path}: $")
    return doc


def _signature(args, payload: dict = None) -> Signature:
    if getattr(args, "sig", None):
        return Signature.from_json(_load(args.sig, "signature"))
    if payload and "signature" in payload:
        return Signature.from_json(payload["signature"])
    raise UsageError("a signature is required (--sig or embedded in the payload)")


def _theory(path: str, args):
    payload = _load(path, "theory")
    sig = _signature(args, payload)
    return Theory([syntax.parse(text, sig) for text in payload["sentences"]]), sig


def _model(args, check: bool = True) -> bvmodel.BValuedModel:
    doc = _load(args.model, "model")
    n = len(doc["domain"])
    if not n or len(doc["eq"]) != n or any(len(row) != n for row in doc["eq"]):
        raise UsageError(f'{args.model}: "eq" must be a square matrix over a nonempty domain')
    try:
        return bvmodel.model_from_json(doc, check)
    except BoolkitError as exc:
        raise UsageError(f"{args.model}: {exc}") from exc


def _check_model(m: bvmodel.BValuedModel, formulas) -> None:
    """Raise UsageError unless the model interprets every constant, and every
    relation at its arity, of the formulas about to be evaluated on it."""
    try:
        own = _model_signature(m)
        for f in formulas:
            syntax.validate(f, own)
    except SignatureError as exc:
        raise UsageError(f"the model does not interpret the formulas: {exc}") from exc


def _report(args, config: RunConfig, body: dict, code: int) -> int:
    doc = {"command": args.command, "version": __version__, "config": config.to_json()}
    doc.update(body)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if config.out:
        try:
            with open(config.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise UsageError(f"cannot write {config.out}: {exc}") from exc
    else:
        print(text)
    return code


def _oracle_body(verdict: compact.OracleVerdict) -> dict:
    body = {"status": verdict.status, "budget_used": verdict.budget_used}
    if verdict.witness is not None:
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
    assignment = json.loads(args.assignment) if args.assignment else {}
    _check(assignment, {str: str}, "--assignment")
    if not set(assignment.values()) <= set(m.domain):
        raise UsageError("--assignment must map variables to domain elements")
    unbound = syntax.free_vars(f) - set(assignment)
    if unbound:
        raise UsageError(f"--assignment must bind the free variables {' '.join(sorted(unbound))}")
    _check_model(m, [f])
    value = bvmodel.eval_formula(m, f, assignment, max_steps=config.budget.eval_steps)
    body = {
        "value": bvmodel.bits_to_string(value, m.algebra.atom_count),
        "is_one": value == m.algebra.one,
    }
    return _report(args, config, body, EXIT_OK)


def _model_signature(m: bvmodel.BValuedModel) -> Signature:
    return Signature(relations=m.relations, base_constants=set(m.consts))


def _cmd_validate_model(args, config):
    m = _model(args, check=False)
    report = bvmodel.validate_model(m, max_violations=5)
    body = {"ok": report.ok, "violations": [list(map(str, v)) for v in report.violations]}
    return _report(args, config, body, EXIT_OK if report.ok else EXIT_REFUTED)


def _cmd_quotient(args, config):
    m = _model(args)
    if args.filter_generator:
        try:
            filt = balg.Filter(m.algebra, bvmodel.bits_from_string(args.filter_generator))
        except BoolkitError as exc:
            raise UsageError(f"--filter-generator: {exc}") from exc
    else:
        ultrafilters = balg.ultrafilters(m.algebra)
        if not 0 <= args.ultrafilter < len(ultrafilters):
            raise UsageError(f"--ultrafilter must lie in 0..{len(ultrafilters) - 1}")
        filt = ultrafilters[args.ultrafilter]
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
    if args.lam is not None and args.lam < 1:
        raise UsageError("--lam must be at least 1")
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
    _check_model(m, catalog)
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
    if args.probe_trials < 0:
        raise UsageError("--probe-trials must be at least 0")
    sig = _signature(args)
    tree = proofs.proof_from_json(_load(args.proof, "proof"), sig)
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
    prop = consprop.ConsistencyProperty.from_json(_load(args.consprop, "consprop"))
    verdict = consprop.verify_consistency_property(prop)
    body = {"ok": verdict.ok}
    if not verdict.ok:
        body["clause"] = verdict.clause
        body["member"] = sorted(syntax.render(f) for f in verdict.member)
        body["detail"] = verdict.detail
    return _report(args, config, body, EXIT_OK if verdict.ok else EXIT_REFUTED)


def _cmd_consprop_model(args, config):
    prop = consprop.ConsistencyProperty.from_json(_load(args.consprop, "consprop"))
    if args.mixing:
        model, diagnostics = consprop.mixing_model_from_consprop(prop, config.budget)
    else:
        model, diagnostics = consprop.model_from_consprop(prop, config.budget)
    body = {"model": bvmodel.model_to_json(model), "diagnostics": diagnostics}
    if args.dump_algebra:
        body["algebra"] = _algebra_dump(model.algebra)
    return _report(args, config, body, EXIT_OK)


def _cmd_oracle(args, config):
    theory, sig = _theory(args.theory, args)
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
    family, sig = _theory(args.family, args)
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
    family, sig = _theory(args.family, args)
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
    theory, sig = _theory(args.theory, args)
    m = _model(args)
    _check_model(m, [g for f in theory for g in syntax.subsentences(f, sig)])
    try:
        stars = compact.star_theory(m, list(theory), sig)
    except ResourceBudgetError:
        raise
    except BoolkitError as exc:  # a model that is not two-valued, or a false sentence
        raise UsageError(str(exc)) from exc
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
    theory, sig = _theory(args.theory, args)
    model = compact.first_order_compactness_demo(theory, sig, config.budget)
    body = {"model": bvmodel.model_to_json(model)}
    return _report(args, config, body, EXIT_OK)


def _cmd_faicom(args, config):
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.fresh < 0:
        raise UsageError("--fresh must be at least 0")
    theory = compact.faicom_family(args.n)
    sig = compact.faicom_signature(args.n, fresh=args.fresh)
    body = {
        "theory": {
            "signature": sig.to_json(),
            "sentences": [syntax.render(f) for f in theory],
        }
    }
    return _report(args, config, body, EXIT_OK)


def _condition(member, sig: Signature) -> frozenset:
    """A payload's condition set, canonical, as the forcing poset keeps it."""
    return frozenset(syntax.canon(syntax.parse(text, sig)) for text in member)


def _poset(args, config) -> forcing.SPhiPoset:
    doc = _load(args.poset, "poset")
    sig = Signature.from_json(doc["signature"])
    phi = syntax.canon(syntax.parse(doc["phi"], sig))
    conditions = [_condition(member, sig) for member in doc["conditions"]]
    # replay the consistency filter on load
    session = compact.OracleSession(config.budget)
    for s in conditions:
        status = compact._decided(session.status(list(s) + [phi], sig), "replaying the loaded conditions")
        if status != compact.CONSISTENT:
            raise UsageError(
                "loaded condition is not consistent with the target sentence: "
                + ", ".join(sorted(syntax.render(f) for f in s))
            )
    return forcing.SPhiPoset(phi, sig, frozenset(conditions))


def _generic(args, config) -> forcing.GenericFilter:
    """The generic filter over the loaded poset meeting the loaded dense sets."""
    p = _poset(args, config)
    dense = []
    if args.dense:
        dense = [
            [_condition(member, p.sig) for member in entry]
            for entry in _load(args.dense, "dense")["dense_sets"]
        ]
    # a stray entry or a set that is not dense is malformed input; once every
    # set is dense, the chain through them cannot break
    try:
        return forcing.generic_filter(p, dense)
    except BoolkitError as exc:
        raise UsageError(str(exc)) from exc


def _cmd_forcing_build(args, config):
    if args.size_bound < 0:
        raise UsageError("--size-bound must be at least 0")
    sig = _signature(args)
    phi = syntax.parse(args.formula, sig)
    p = forcing.build_sphi(phi, sig, args.size_bound, config.budget)
    body = {"poset": p.to_json(), "excluded_unknown": len(p.excluded_unknown)}
    return _report(args, config, body, EXIT_OK)


def _cmd_forcing_dense(args, config):
    p = _poset(args, config)
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


def _cmd_forcing_generic(args, config):
    g = _generic(args, config)
    body = {
        "members": sorted(sorted(syntax.render(f) for f in s) for s in g.members),
        "maximal": g.maximal,
    }
    return _report(args, config, body, EXIT_OK)


def _cmd_forcing_model(args, config):
    g = _generic(args, config)
    body = {
        "model": bvmodel.model_to_json(forcing.term_model(g)),
        "sigma": sorted(syntax.render(f) for f in g.sigma()),
    }
    return _report(args, config, body, EXIT_OK)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolkit",
        description="Boolean-valued semantics workbench for finitely-indexed infinitary logic",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    for field in fields(compact.Budget):
        flag = "--budget-" + field.name.replace("_", "-")
        common.add_argument(flag, type=int, default=field.default)
    common.add_argument("--out", default="")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(subparsers, name, handler):
        p = subparsers.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    p = add(sub, "parse", _cmd_parse)
    p.add_argument("--sig", required=True)
    p.add_argument("--formula", required=True)

    p = add(sub, "eval", _cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--sig")
    p.add_argument("--assignment")

    p = add(sub, "validate-model", _cmd_validate_model)
    p.add_argument("--model", required=True)

    p = add(sub, "quotient", _cmd_quotient)
    p.add_argument("--model", required=True)
    p.add_argument("--filter-generator")
    p.add_argument("--ultrafilter", type=int, default=0)
    p.add_argument("--dump-algebra", action="store_true")

    p = add(sub, "mixing", _cmd_mixing)
    p.add_argument("--model", required=True)
    p.add_argument("--lam", type=int)
    p.add_argument("--complete", action="store_true")

    p = add(sub, "fullness", _cmd_fullness)
    p.add_argument("--model", required=True)
    p.add_argument("--sig")

    p = add(sub, "nnf", _cmd_nnf)
    p.add_argument("--sig", required=True)
    p.add_argument("--formula", required=True)
    p.add_argument("--step", action="store_true")

    p = add(sub, "qe", _cmd_qe)
    p.add_argument("--sig", required=True)
    p.add_argument("--formula")
    p.add_argument("--axiom", action="store_true")

    p = add(sub, "proof-check", _cmd_proof_check)
    p.add_argument("--sig", required=True)
    p.add_argument("--proof", required=True)
    p.add_argument("--probe-trials", type=int, default=0)

    p = add(sub, "consprop-verify", _cmd_consprop_verify)
    p.add_argument("--consprop", required=True)

    p = add(sub, "consprop-model", _cmd_consprop_model)
    p.add_argument("--consprop", required=True)
    p.add_argument("--mixing", action="store_true")
    p.add_argument("--dump-algebra", action="store_true")

    p = add(sub, "oracle", _cmd_oracle)
    p.add_argument("--theory", required=True)
    p.add_argument("--sig")
    p.add_argument("--require-qe", action="store_true")

    p = add(sub, "conservative", _cmd_conservative)
    p.add_argument("--sig", required=True)
    p.add_argument("--psi1", required=True)
    p.add_argument("--psi0", required=True)

    p = add(sub, "fincons", _cmd_fincons)
    p.add_argument("--family", required=True)
    p.add_argument("--sig")

    p = add(sub, "compact", _cmd_compact)
    p.add_argument("--family", required=True)
    p.add_argument("--sig")
    p.add_argument("--dump-algebra", action="store_true")

    p = add(sub, "star", _cmd_star)
    p.add_argument("--theory", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--sig")

    p = add(sub, "focompact", _cmd_focompact)
    p.add_argument("--theory", required=True)
    p.add_argument("--sig")

    p = add(sub, "faicom", _cmd_faicom)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--fresh", type=int, default=2, help="size of the fresh-constant pool")

    p = sub.add_parser("forcing")
    fsub = p.add_subparsers(dest="forcing_command", required=True)
    fb = add(fsub, "build", _cmd_forcing_build)
    fb.add_argument("--sig", required=True)
    fb.add_argument("--formula", required=True)
    fb.add_argument("--size-bound", type=int, default=3)
    fd = add(fsub, "dense", _cmd_forcing_dense)
    fd.add_argument("--poset", required=True)
    fd.add_argument("--atom")
    fd.add_argument("--strict", action="store_true")
    fg = add(fsub, "generic", _cmd_forcing_generic)
    fg.add_argument("--poset", required=True)
    fg.add_argument("--dense")
    fm = add(fsub, "model", _cmd_forcing_model)
    fm.add_argument("--poset", required=True)
    fm.add_argument("--dense")
    return parser


def _budget(args) -> compact.Budget:
    values = {f.name: getattr(args, "budget_" + f.name) for f in fields(compact.Budget)}
    try:
        return compact.Budget(**values)
    except BoolkitError as exc:
        raise UsageError(str(exc)) from exc


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config = RunConfig(seed=args.seed, budget=_budget(args), out=args.out)
        return args.handler(args, config)
    except (UsageError, ParseError, SignatureError, ValueError, RecursionError) as exc:
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
