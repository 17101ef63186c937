"""Build the forcing poset of a disjunctive sentence, pick canonical dense
sets, construct a generic filter and its term model, and certify the
genericity sentence."""
import argparse
import itertools

from boolkit import syntax
from boolkit.compact import consistency_oracle, is_conservative_strengthening
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
from boolkit.syntax import Eq, Or, Signature


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size-bound", type=int, default=9)
    args = parser.parse_args()

    sig = Signature(relations={}, base_constants={"cw", "c0", "c1"}, fresh_constants=set())
    phi = Or((Eq("cw", "c0"), Eq("cw", "c1")))
    poset = build_sphi(phi, sig, size_bound=args.size_bound)
    print(f"target: {syntax.render(phi)}")
    print(f"conditions: {len(poset.conditions)}")

    dense = [dense_commitment_set(poset, phi)]
    for c, d in itertools.combinations(sorted(sig.constants), 2):
        candidate = dense_decision_set(poset, Eq(c, d))
        if is_dense(candidate, poset).ok:
            dense.append(candidate)
    print(f"dense sets: {len(dense)} (sizes {[len(d) for d in dense]})")

    g = generic_filter(poset, dense)
    met = sum(any(s in g.members for s in d) for d in dense)
    print(f"generic filter: {len(g.members)} members, maximal={g.maximal},"
          f" meets {met} of {len(dense)} dense sets")
    model = term_model(g)
    print(f"term model domain: {model.domain}")
    print("dense-set equivalence:", all(meets_equivalence(g, d) for d in dense))

    sentence = genericity_sentence(phi, dense, poset)
    verdict = consistency_oracle([sentence], sig)
    report = is_conservative_strengthening(sentence, syntax.canon(phi), sig)
    print(f"genericity sentence: {len(syntax.render(sentence))} characters,"
          f" {verdict.status}, conservative over target: {report.conservative}")


if __name__ == "__main__":
    main()
