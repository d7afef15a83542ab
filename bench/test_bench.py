"""Tests of the benchmark itself: run with `python -m pytest bench` from the
root of the repository."""
import dataclasses
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import pytest  # noqa: E402

import calibrate  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _snapshot(tmp: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(tmp.iterdir())}


def _cycle(workload: str, seed: int, out: Path) -> list[workloads.Prepared]:
    return workloads.prepare(gen.generate(workload, seed, out, ROOT))


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generators_are_deterministic(workload, tmp_path):
    a = gen.generate(workload, 7, tmp_path / "a", ROOT)
    b = gen.generate(workload, 7, tmp_path / "b", ROOT)
    c = gen.generate(workload, 8, tmp_path / "c", ROOT)
    assert _snapshot(tmp_path / "a") == _snapshot(tmp_path / "b")
    strip = lambda cases: [dataclasses.replace(
        k, args=tuple(Path(x).name if "/" in x else x for x in k.args)) for k in cases]
    assert strip(a) == strip(b)
    # the seed changes the inputs or their order, never the mix
    assert strip(a) != strip(c) or _snapshot(tmp_path / "a") != _snapshot(tmp_path / "c")
    assert sorted(k.name for k in a) == sorted(k.name for k in c)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_seed_code_meets_every_known_answer(workload, tmp_path):
    for p in _cycle(workload, 3, tmp_path):
        v = workloads.run_one(p)
        assert workloads.judge_all([v]) == [True], (p.case.name, v.exit_code, v.error, v.stdout)


def _wrong(case: gen.Case) -> gen.Case:
    if case.kind == "search":
        count = 1 if case.expect_models in (None, 0) else 0
        return dataclasses.replace(case, expect_models=count)
    if case.expect_value is not None:
        return dataclasses.replace(case, expect_value="F" if case.expect_value == "T" else "T")
    return dataclasses.replace(case, expect_exit=1 - case.expect_exit)


@pytest.mark.parametrize("workload", ["corpus", "search-unsat"])
def test_wrong_known_answer_counts_as_failure(workload, tmp_path):
    prepared = _cycle(workload, 4, tmp_path)
    for p in prepared:
        p.case = _wrong(p.case)
    verdicts = [workloads.run_one(p) for p in prepared]
    assert not any(workloads.judge_all(verdicts))


def test_raising_verdict_is_a_failure(tmp_path):
    p = _cycle("search-unsat", 5, tmp_path)[0]
    p.signature = None  # find_models cannot run on this
    v = workloads.run_one(p)
    assert v.error is not None and workloads.judge_all([v]) == [False]


def test_mutated_proofs_fail_with_the_named_theorem(tmp_path):
    prelude = (ROOT / gen.CORPUS_DIR / "prelude_k.al").read_text(encoding="utf-8")
    for seed in range(12):
        text, broken = gen.mutate(prelude, random.Random(seed))
        path = tmp_path / f"m{seed}.al"
        path.write_text(text, encoding="utf-8")
        case = gen.Case("cli", "mutant", ("check", str(path)), 1, (f"{broken}: failed",))
        assert workloads.judge_all([workloads.run_one(workloads.Prepared(case))]) == [True]


def _functions() -> dict[tuple[str, str], object]:
    return {(m.__name__, attr): value for m in tracing._program_modules()
            for attr, value in vars(m).items() if callable(value)}


def test_trace_restores_every_wrapped_name(tmp_path):
    before = _functions()
    prepared = _cycle("corpus", 1, tmp_path / "corpus") + _cycle("search-unsat", 1, tmp_path / "s")
    tracer = tracing.Tracer()
    with tracer:
        wrapped = tracing.wrapped_attributes()
        for i, p in enumerate(prepared):
            tracer.start_request(i)
            assert workloads.judge_all([workloads.run_one(p)]) == [True]
    # alpha_eq is rebound in every module that imported it by name
    for module in ("abslog", "abslog.term", "abslog.kernel", "abslog.driver",
                   "abslog.logics"):
        assert f"{module}.alpha_eq" in wrapped
    assert tracing.wrapped_attributes() == []
    after = _functions()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    m = tracer.metrics()
    assert m["cli.main.calls"] > 0 and m["algebra.find_models.calls"] > 0
    assert all(tracer.self_ns[n] <= tracer.total_ns[n] for n in tracer.calls)


def test_untraced_run_installs_no_wrapper(tmp_path):
    prepared = _cycle("search-unsat", 1, tmp_path)
    verdicts, _ = workloads.run_for(prepared, 0.05)
    assert verdicts and tracing.wrapped_attributes() == []


def test_every_verdict_is_calibrated(tmp_path):
    prepared = _cycle("search-unsat", 1, tmp_path)
    started = []
    verdicts, _ = workloads.run_for(prepared, float("inf"), cycles=1,
                                    start=started.append)
    assert [v.prepared for v in verdicts] == prepared
    assert started == list(range(len(prepared)))
    assert all(v.reference_seconds > 0 for v in verdicts)
    # a machine half as fast takes twice as long and reads the same
    ref = calibrate.REFERENCE_S
    assert calibrate.at_reference(0.2, 2 * ref) == pytest.approx(
        calibrate.at_reference(0.1, ref)) == pytest.approx(0.1)


def test_recursion_counts_outermost_entry_only():
    from abslog import logics
    with tracing.Tracer() as tracer:
        logics.builtin_logic("P")  # builds K through a recursive call
    assert tracer.calls["logics.builtin_logic"] == 1


def test_chain_rederives_shared_premises(tmp_path):
    prepared = [p for p in _cycle("chain", 1, tmp_path) if p.case.name == "check chain 6"]
    with tracing.Tracer() as tracer:
        assert workloads.judge_all([workloads.run_one(prepared[0])]) == [True]
    m = tracer.metrics()
    # 3 steps per level plus 2; a shared-premise tree doubles per level
    assert m["kernel.check_proof.calls"] == 3 * 6 + 2
    assert m["kernel.useful_ratio"] < 0.1
