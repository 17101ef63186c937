"""The independent checker of the oracle's refutation certificates: it
imports only ``syntax`` and ``errors``, so it shares no code with the
solver in ``compact``."""
from __future__ import annotations

from . import syntax
from .errors import SignatureError
from .syntax import And, Atom, Eq, Not, Or, Signature


def prepare_ground(theory, sig: Signature, require_qe: bool = False) -> tuple:
    """Reduce a theory to ground sentences.

    Returns (sentences, qe_applied).  Quantified sentences are replaced by
    their fresh-constant transforms; whenever any transform happens (or the
    caller demands it) the naming constraints "every base constant equals
    some fresh constant" are appended, which makes the reduction exact for
    witnesses generated by the constants.
    """
    sentences = [syntax.canon(f) for f in theory]
    quantified = not all(map(syntax.is_quantifier_free, sentences))
    if not quantified and not require_qe:
        return sentences, False
    if quantified and not sig.fresh_constants:
        raise SignatureError("quantified input needs a nonempty fresh-constant pool")
    ground = [syntax.canon(syntax.qe_transform(f, sig)) for f in sentences]
    return ground + syntax.naming_constraints(sig), True


def replay_certificate(certificate, theory, sig: Signature, require_qe: bool = False) -> bool:
    """Check a refutation trace on its own; True when every leaf closes.

    A node ``{"atom": key, "true": node, "false": node}`` splits on an atom
    not yet on the path.  A leaf ``{"conflict": {"kind": ...}}`` closes when
    the path clashes under congruence (``eq-closure``: a disequality inside
    one class; ``rel-congruence``: a relation atom both true and false on
    one tuple of classes), or, for kind ``sentence``, when the ground
    sentence at ``index`` is strong-Kleene false on the path, hence in every
    completion.  The checker has its own union-find, evaluator and atom
    parse, and returns False for anything malformed.
    """
    sentences, _ = prepare_ground(theory, sig, require_qe=require_qe)
    constants = sig.constants

    def declared(names):
        return all(isinstance(c, str) and c in constants for c in names)

    def parse(atom):
        """The path key of a certificate atom, or None when malformed."""
        if not isinstance(atom, (list, tuple)) or len(atom) != 3:
            return None
        kind, x, y = atom
        if kind == "eq" and declared((x, y)):
            return ("eq", *sorted((x, y)))
        if kind == "rel" and isinstance(y, (list, tuple)) and declared(y):
            if isinstance(x, str) and sig.relations.get(x) == len(y):
                return ("rel", x, tuple(y))
        return None

    def closes(conflict, path):
        if not isinstance(conflict, dict):
            return False
        parent = {}

        def find(c):
            while c in parent:
                c = parent[c]
            return c

        for key, truth in path.items():
            if key[0] == "eq" and truth and find(key[1]) != find(key[2]):
                parent[find(key[2])] = find(key[1])
        diseq, rel_true, rel_false, clashes = set(), set(), set(), []
        for key, truth in path.items():
            if key[0] == "rel":
                (rel_true if truth else rel_false).add((key[1], tuple(map(find, key[2]))))
            elif not truth:
                pair = frozenset((find(key[1]), find(key[2])))
                if len(pair) == 1:
                    clashes.append("eq-closure")
                diseq.add(pair)
        if rel_true & rel_false:
            clashes.append("rel-congruence")

        def kleene(f):
            """Strong Kleene value on the path: True, False or None."""
            if isinstance(f, Eq):
                pair = frozenset((find(f.left), find(f.right)))
                return True if len(pair) == 1 else (False if pair in diseq else None)
            if isinstance(f, Atom):
                canon = (f.rel, tuple(map(find, f.args)))
                return True if canon in rel_true else (False if canon in rel_false else None)
            if isinstance(f, Not):
                v = kleene(f.body)
                return None if v is None else not v
            if isinstance(f, (And, Or)):
                values = [kleene(child) for child in f.children]
                decisive = isinstance(f, Or)
                if decisive in values:
                    return decisive
                return None if None in values else not decisive
            return None

        if conflict.get("kind") == "sentence":
            index = conflict.get("index")
            in_range = type(index) is int and 0 <= index < len(sentences)
            return in_range and kleene(sentences[index]) is False
        return conflict.get("kind") in clashes

    # depth first; each entry carries the path length above it, and every
    # split puts a new atom on the path, so the walk ends
    path = {}
    stack = [(certificate, 0, None, None)]
    while stack:
        node, depth, key, truth = stack.pop()
        while len(path) > depth:
            path.popitem()
        if key is not None:
            path[key] = truth
        if not isinstance(node, dict):
            return False
        if "conflict" in node:
            if not closes(node["conflict"], path):
                return False
            continue
        key = parse(node.get("atom"))
        if key is None or key in path:
            return False
        stack.append((node.get("false"), len(path), key, False))
        stack.append((node.get("true"), len(path), key, True))
    return True
