"""Run the ground oracle on the equality pigeonhole ladder.

PHP(n) says that n+1 pairwise distinct pigeons each equal one of n holes,
which is inconsistent for every n.  For each n this prints one JSON line:
the status, ``budget_used``, the certificate's node count (null when there
is no certificate), whether ``replay_certificate`` accepts it, and the
wall-clock ``seconds`` of the ``consistency_oracle`` call alone (the replay
is not timed) with the ``nodes_per_s`` (``budget_used`` / ``seconds``) they
give.  The two timings vary from run to run; the other fields do not.

    PYTHONPATH=src python3 scripts/run_php_ladder.py [--min-n 3] [--max-n 8]
"""
import argparse
import itertools
import json
import time

from boolkit.compact import DEFAULT_BUDGET, consistency_oracle, replay_certificate
from boolkit.syntax import Eq, Not, Or, Signature


def pigeonhole(n):
    pigeons = [f"p{i}" for i in range(n + 1)]
    holes = [f"h{j}" for j in range(n)]
    sig = Signature(relations={}, base_constants=set(pigeons + holes))
    sentences = [Or(tuple(Eq(p, h) for h in holes)) for p in pigeons]
    sentences += [Not(Eq(a, b)) for a, b in itertools.combinations(pigeons, 2)]
    return sentences, sig


def certificate_nodes(certificate) -> int:
    count, stack = 0, [certificate]
    while stack:
        node = stack.pop()
        count += 1
        if "atom" in node:
            stack += [node["true"], node["false"]]
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--min-n", type=int, default=3)
    parser.add_argument("--max-n", type=int, default=8)
    args = parser.parse_args()

    for n in range(args.min_n, args.max_n + 1):
        sentences, sig = pigeonhole(n)
        start = time.perf_counter()
        verdict = consistency_oracle(sentences, sig)
        seconds = time.perf_counter() - start
        certificate = verdict.certificate
        print(json.dumps({
            "n": n,
            "status": verdict.status,
            "budget_used": verdict.budget_used,
            "node_cap": DEFAULT_BUDGET.oracle_nodes,
            "certificate_nodes": None if certificate is None else certificate_nodes(certificate),
            "replayed": None if certificate is None else replay_certificate(certificate, sentences, sig),
            "seconds": round(seconds, 4),
            "nodes_per_s": round(verdict.budget_used / seconds),
        }), flush=True)


if __name__ == "__main__":
    main()
