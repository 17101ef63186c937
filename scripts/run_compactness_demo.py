"""Drive a finitely conservative family through the compactness pipeline and
inspect the constructed model."""
import argparse

from boolkit import bvmodel, syntax
from boolkit.compact import compactness_run, conjunction_closure
from boolkit.syntax import Atom, Eq, Not, Or, Signature


def main():
    argparse.ArgumentParser(description=__doc__).parse_args()

    sig = Signature(
        relations={"R": 1}, base_constants={"a", "b"}, fresh_constants={"e0", "e1"}
    )
    generators = [
        Atom("R", ("a",)),
        Not(Eq("a", "b")),
        Or((Atom("R", ("a",)), Atom("R", ("b",)))),
    ]
    family = conjunction_closure(generators)
    print("family:")
    for member in family:
        print("  ", syntax.render(member))

    result = compactness_run(family, sig)
    model = result.model
    k = model.algebra.atom_count
    print(f"\nconsistency property members: {len(result.consistency_property)}")
    print(f"algebra atoms: {k}; domain: {model.domain}")
    print("conjunction value:", bvmodel.bits_to_string(
        bvmodel.eval_formula(model, result.conjunction), k))
    for key, report in result.reports.items():
        print(f"  conservative over {key}: {report.conservative}"
              f" ({report.checked_subsets} subsets)")
    print("\natomic values:")
    for name, table in model.rel.items():
        for combo, value in sorted(table.items()):
            print(f"  {name}{combo} = {bvmodel.bits_to_string(value, k)}")


if __name__ == "__main__":
    main()
