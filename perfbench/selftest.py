"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

They check that the benchmark counts what it claims to count: a wrong
verdict or an exception is a failed operation, a budget Unknown lowers
decided_share without failing, the reference checker tells satisfiable from
unsatisfiable input, renaming keeps per-verdict work identical across seeds,
and the tracer leaves the program as it found it.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402

BK, _ = run.load_boolkit()


def _oracle_items():
    sentences, spec = wl.faicom(2)
    return [(sentences, spec, None), (sentences[1:], spec, None)]


def test_flipped_verdict_is_a_failed_operation():
    c = BK.compact

    def flipped(bk, a):
        v = wl.oracle_verdict(bk, a)
        status = c.INCONSISTENT if v.status == c.CONSISTENT else c.CONSISTENT
        return c.OracleVerdict(status, budget_used=v.budget_used)

    _, prepare, _, check = wl.WORKLOADS["oracle"]
    honest = run.run_pass(BK, wl.WORKLOADS["oracle"], _oracle_items(), 1, 0, {})
    lying = run.run_pass(BK, (None, prepare, flipped, check), _oracle_items(), 1, 1, {})
    assert honest.failures == [] and honest.decided == 2
    assert [i for i, _ in lying.failures] == [0, 1]


def test_exception_is_a_failed_operation():
    def raises(bk, a):
        raise BK.errors.BoolkitError("boom")

    _, prepare, _, check = wl.WORKLOADS["oracle"]
    result = run.run_pass(BK, (None, prepare, raises, check), _oracle_items(), 1, 0, {})
    assert len(result.failures) == 2 and "boom" in result.failures[0][1]


def test_budget_unknown_counts_against_decided_share_not_as_failure():
    sentences, spec = wl.php(4)
    items = [(sentences, spec, 50), (sentences, spec, None)]
    result = run.run_pass(BK, wl.WORKLOADS["oracle"], items, 1, 0, {})
    assert result.failures == []
    assert result.decided == 1
    metrics = run.end_to_end([result], setup_s=1.0)
    assert metrics["decided_share"] == 0.5


def test_times_are_scaled_by_the_calibration_loop():
    real = run.calibrate
    run.calibrate = lambda: 2 * run.CALIBRATION_REF_S  # a machine at half the reference speed
    try:
        result = run.run_pass(BK, wl.WORKLOADS["oracle"], _oracle_items(), 1, 0, {})
    finally:
        run.calibrate = real
    assert result.loops and all(t == 2 * run.CALIBRATION_REF_S for t in result.loops)
    assert all(abs(r - t / 2) < 1e-12 for r, t in zip(result.ref_times, result.times))


def test_reference_checker():
    sentences, spec = wl.php(3)
    assert not ref.satisfiable(sentences, wl.all_constants(spec))
    sentences, spec = wl.faicom(3)
    consts = wl.all_constants(spec)
    assert not ref.satisfiable(sentences, consts)
    assert all(ref.satisfiable(sentences[:i] + sentences[i + 1:], consts) for i in range(len(sentences)))
    assert ref.satisfiable([wl.rel("R", "a"), wl.neg(wl.rel("R", "b"))], {"a", "b"})
    assert not ref.satisfiable([wl.rel("R", "a"), wl.neg(wl.rel("R", "b")), wl.eq("a", "b")], {"a", "b"})
    # the forcing reference agrees with the program on a small poset
    phi, spec = wl.FORCING_TARGETS[3]
    conditions = wl.forcing_conditions(phi, spec)
    args = wl.forcing_prepare(BK, (phi, spec), "")
    assert len(BK.forcing.build_sphi(args.phi, args.sig, args.size_bound).conditions) == len(conditions)


def test_reference_rejects_a_broken_model():
    algebra = BK.balg.FiniteBooleanAlgebra(1)
    good = BK.bvmodel.BValuedModel(
        algebra, ("x", "y"), {("x", "x"): 1, ("y", "y"): 1, ("x", "y"): 0, ("y", "x"): 0},
        {"R": {("x",): 1, ("y",): 0}}, {"a": "x", "b": "y"},
    )
    assert ref.model_problem(good) is None
    assert ref.model_satisfies(good, [wl.rel("R", "a"), wl.neg(wl.eq("a", "b"))])
    good.eq[("x", "y")] = good.eq[("y", "x")] = 1  # x = y, yet R x and not R y
    assert "respect" in ref.model_problem(good)


def test_countermodels_for_mutated_proofs_only():
    corpus = wl.proof_corpus()
    assert all(wl.sequent_countermodel(doc, wl.PROOF_SPEC) is None for doc in corpus)
    assert len(wl.proof_mutants(corpus)) > len(corpus)
    items = [("proof", doc, 7) for doc in corpus] + [("mutant", doc, None) for doc in wl.proof_mutants(corpus)]
    result = run.run_pass(BK, wl.WORKLOADS["semantics"], items, 1, 0, {})
    assert result.failures == []


def test_prefix_keeps_sort_order():
    names = ["c0", "c1", "c10", "cw", "e0", "w", "a", "b"]
    pre = run.prefix(123, 4, 56)
    assert sorted(pre + n for n in names) == [pre + n for n in sorted(names)]
    fs = [wl.eq("c0", "c1"), wl.rel("B", "c0", "w"), ("forall", ("?x",), wl.eq("?x", "a")), wl.eq("c0", "c10")]
    order = sorted(range(len(fs)), key=lambda i: ref.render(fs[i]))
    assert order == sorted(range(len(fs)), key=lambda i: ref.render(ref.rename(fs[i], pre)))


def _counts(items, workload, seed):
    """Per-verdict layer counts (calls and counters) of one traced pass per item."""
    out = []
    for item in items:
        tracer = Tracer(BK)
        result = run.run_pass(BK, wl.WORKLOADS[workload], [item], seed, 0, {}, tracer)
        assert result.failures == []
        out.append({name: (s.calls, dict(s.counts)) for name, s in tracer.layers.items() if s.calls})
    return out


def test_per_verdict_counts_do_not_depend_on_the_seed():
    oracle = [(s, spec, None) for s, spec in (wl.php(3), wl.php(4), wl.faicom(3))]
    items = wl.compactness_inputs(None)
    runs = [i for i in items if i[0] == "run"]
    saturates = [i for i in items if i[0] == "saturate"]
    compactness = [items[0], runs[0], runs[1], saturates[1], saturates[7], saturates[10]]
    forcing = wl.FORCING_TARGETS[3:]
    for workload, chosen in (("oracle", oracle), ("compactness", compactness), ("forcing", forcing)):
        first, second = _counts(chosen, workload, 1), _counts(chosen, workload, 2)
        assert first == second, workload
        assert all(counts for counts in first)
    layers = {name for counts in _counts(compactness, "compactness", 3) for name in counts}
    assert {"compact.materialize", "balg.poset", "balg.ro_completion", "consprop.saturate"} <= layers


def test_tracer_restores_the_program():
    originals = (BK.consprop.Poset, BK.balg.Poset, BK.compact.consistency_oracle, BK.syntax.nnf)
    tracer = Tracer(BK)
    tracer.install()
    try:
        assert BK.consprop.Poset is not originals[0] and BK.consprop.Poset is BK.balg.Poset
        assert BK.consprop.ro_completion is BK.balg.ro_completion
        f = BK.syntax.parse("(not (and (= a b) (not (= b a))))", BK.syntax.Signature(base_constants={"a", "b"}))
        BK.syntax.nnf(f)
    finally:
        tracer.uninstall()
    assert (BK.consprop.Poset, BK.balg.Poset, BK.compact.consistency_oracle, BK.syntax.nnf) == originals
    assert tracer.layers["syntax.nnf"].calls == 1
    assert tracer.layers["syntax.parse"].calls == 1


def test_command_prints_the_metrics_benchmark_json_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "semantics", "--seed", "5",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170,
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert {m["name"]: m["unit"] for m in spec[key]} == {
            name: m["unit"] for name, m in result["metrics"].items()
        }


def test_fails_without_the_program():
    bare = run.ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "oracle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
