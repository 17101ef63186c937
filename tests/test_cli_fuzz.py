"""Malformed CLI payloads derived from valid ones.

Each payload kind has one small valid document and its own list of mutation
sites (paths into the document).  A mutant drops a required key, replaces a
value by one of another JSON type, or adds or removes one level of list
nesting.  Every payload-reading subcommand must answer every mutant with exit
64, nothing on stdout and one JSON error on stderr: never a traceback, and
never exit 1 ("refuted").
"""
import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolkit import cli, consprop
from boolkit.syntax import Atom, Signature, Theory

SIG = {"relations": {"R": 1}, "base_constants": ["a", "b"], "fresh_constants": ["e0"]}
SIG_A = Signature(relations={"R": 1}, base_constants={"a"}, fresh_constants={"e0"})
AXIOM = {"rule": "axiom", "conclusion": {"left": ["(R a)"], "right": ["(R a)"]}}

PAYLOADS = {
    "sig": SIG,
    "theory": {"signature": SIG, "sentences": ["(R a)", "(R b)", "(and (R a) (R b))"]},
    "model": {
        "algebra": {"atoms": ["a0"]},
        "domain": ["a", "b"],
        "eq": [["1", "0"], ["0", "1"]],
        "rel": {"R": {"a": "1", "b": "1"}},
        "consts": {"a": "a", "b": "b", "e0": "b"},
    },
    # the saturated consistency property of (R a) over R, a and e0: 16 members
    "consprop": consprop.saturate_theory(Theory([Atom("R", ("a",))]), SIG_A).to_json(),
    "proof": {
        "rule": "cut",
        "conclusion": {"left": ["(R a)"], "right": ["(R a)"]},
        "data": {"formula": "(R a)", "pairs": [["a", "b"]], "mapping": {"?x": "a"}, "terms": ["a"]},
        "premises": [AXIOM, AXIOM],
    },
    "poset": {"signature": SIG, "phi": "(R a)", "conditions": [["(= a b)"], []]},
    "dense": {"dense_sets": [[["(= a b)"], []]]},
}


def _signature_sites(*prefix):
    return [
        (*prefix, "relations"),
        (*prefix, "relations", "R"),
        (*prefix, "base_constants"),
        (*prefix, "base_constants", 0),
        (*prefix, "fresh_constants"),
        (*prefix, "fresh_constants", 0),
    ]


# every site a mutation may touch, and the sites whose key is required
SITES = {
    "sig": _signature_sites(),
    "theory": [("signature",), ("sentences",), ("sentences", 1)] + _signature_sites("signature"),
    "model": [
        ("algebra",), ("algebra", "atoms"), ("algebra", "atoms", 0), ("domain",), ("domain", 1),
        ("eq",), ("eq", 0), ("eq", 1, 0), ("rel",), ("rel", "R"), ("rel", "R", "b"),
        ("consts",), ("consts", "e0"),
    ],
    "consprop": [("signature",), ("members",), ("members", 1), ("members", 1, 0)]
    + _signature_sites("signature"),
    "proof": [
        ("rule",), ("conclusion",), ("conclusion", "left"), ("conclusion", "right", 0),
        ("data",), ("data", "formula"), ("data", "pairs"), ("data", "pairs", 0),
        ("data", "pairs", 0, 1), ("data", "mapping"), ("data", "mapping", "?x"),
        ("data", "terms"), ("data", "terms", 0), ("premises",), ("premises", 1),
        ("premises", 1, "rule"), ("premises", 0, "conclusion", "left"),
    ],
    "poset": [("signature",), ("phi",), ("conditions",), ("conditions", 0), ("conditions", 0, 0)]
    + _signature_sites("signature"),
    "dense": [("dense_sets",), ("dense_sets", 0), ("dense_sets", 0, 0), ("dense_sets", 0, 0, 0)],
}
REQUIRED = {
    "sig": [],
    "theory": [("signature",), ("sentences",)],
    "model": [("algebra",), ("algebra", "atoms"), ("domain",), ("eq",)],
    "consprop": [("signature",), ("members",)],
    "proof": [("rule",), ("premises", 0, "rule")],
    "poset": [("signature",), ("phi",), ("conditions",)],
    "dense": [("dense_sets",)],
}

# (subcommand words, {flag: payload kind}, other arguments, exit code when valid)
COMMANDS = [
    (["parse"], {"--sig": "sig"}, ["--formula", "(R a)"], 0),
    (["nnf"], {"--sig": "sig"}, ["--formula", "(not (R a))"], 0),
    (["qe"], {"--sig": "sig"}, ["--axiom"], 0),
    (["conservative"], {"--sig": "sig"}, ["--psi1", "(R a)", "--psi0", "(R a)"], 0),
    (["oracle"], {"--theory": "theory"}, [], 0),
    (["focompact"], {"--theory": "theory"}, [], 0),
    (["fincons"], {"--family": "theory"}, [], 0),
    (["compact"], {"--family": "theory"}, [], 0),
    (["star"], {"--theory": "theory", "--model": "model"}, [], 0),
    (["eval"], {"--model": "model", "--sig": "sig"}, ["--formula", "(R a)"], 0),
    (["validate-model"], {"--model": "model"}, [], 0),
    (["quotient"], {"--model": "model"}, [], 0),
    (["mixing"], {"--model": "model"}, [], 0),
    (["fullness"], {"--model": "model", "--sig": "sig"}, [], 0),
    (["proof-check"], {"--proof": "proof", "--sig": "sig"}, [], 0),
    (["consprop-verify"], {"--consprop": "consprop"}, [], 0),
    (["consprop-model"], {"--consprop": "consprop"}, [], 0),
    (["forcing", "build"], {"--sig": "sig"}, ["--formula", "(R a)", "--size-bound", "1"], 0),
    (["forcing", "dense"], {"--poset": "poset"}, ["--atom", "(= a b)"], 0),
    (["forcing", "generic"], {"--poset": "poset", "--dense": "dense"}, [], 0),
    (["forcing", "model"], {"--poset": "poset", "--dense": "dense"}, [], 0),
]

OTHER_TYPES = [None, True, 3, 2.5, "x", [], {}]


def _flatten(value):
    """One level of list nesting removed: a list of strings becomes their
    concatenation, a list of lists the concatenated list."""
    if all(isinstance(item, str) for item in value):
        return "".join(value)
    return [x for item in value for x in item]


@st.composite
def mutants(draw):
    words, files, args, _ = draw(st.sampled_from(COMMANDS))
    flag = draw(st.sampled_from(sorted(files)))
    kind = files[flag]
    doc = copy.deepcopy(PAYLOADS[kind])
    mutation = draw(st.sampled_from(["retype", "wrap", "flatten"] + ["drop"] * bool(REQUIRED[kind])))
    sites = REQUIRED[kind] if mutation == "drop" else SITES[kind]
    if mutation == "flatten":
        sites = [site for site in sites if _flattenable(_at(doc, site))]
    site = draw(st.sampled_from(sites))
    parent = _at(doc, site[:-1])
    old = parent[site[-1]]
    if mutation == "drop":
        del parent[site[-1]]
    elif mutation == "retype":
        others = [v for v in OTHER_TYPES if type(v) is not type(old)]
        parent[site[-1]] = copy.deepcopy(draw(st.sampled_from(others)))
    elif mutation == "wrap":
        parent[site[-1]] = [old]
    else:
        parent[site[-1]] = _flatten(old)
    return words, files, args, flag, doc


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _flattenable(value):
    return isinstance(value, list) and (
        all(isinstance(item, str) for item in value)
        or (all(isinstance(item, list) for item in value) and any(value))
    )


def _run(workdir, words, files, args, docs):
    argv = list(words) + list(args)
    for flag, kind in files.items():
        path = workdir / f"{flag[2:]}.json"
        path.write_text(json.dumps(docs.get(flag, PAYLOADS[kind])))
        argv += [flag, str(path)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize(
    "words, files, args, expected", COMMANDS, ids=[" ".join(c[0]) for c in COMMANDS]
)
def test_valid_payloads_keep_their_exit_codes(workdir, words, files, args, expected):
    code, out, err = _run(workdir, words, files, args, {})
    assert (code, err) == (expected, "")
    assert json.loads(out)["command"] == words[0]


@settings(max_examples=200, deadline=None)
@given(mutants())
def test_malformed_payloads_exit_64(workdir, case):
    words, files, args, flag, doc = case
    code, out, err = _run(workdir, words, files, args, {flag: doc})
    assert code == cli.EXIT_USAGE, (words, flag, doc, err)
    assert out == ""
    assert err.count("\n") == 1 and "error" in json.loads(err)
