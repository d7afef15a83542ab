"""Run cases against the program in-process and judge each verdict against
its known answer.

Only public entry points are called: `abslog.cli.main`, `parse_theory` /
`check_theory` and `find_models`.  They are looked up on their modules at
call time, so the tracing wrappers take effect when installed.
"""
from __future__ import annotations

import contextlib
import io
import time
from dataclasses import dataclass

from abslog import algebra, cli, driver, syntax
from abslog.kernel import TheoremDB

import calibrate
from gen import Case


@dataclass
class Prepared:
    """A case plus what set-up derived from it (the search problem)."""
    case: Case
    signature: object = None
    axioms: tuple = ()


@dataclass
class Verdict:
    prepared: Prepared
    seconds: float
    probe_s: float = 0.0  # mean of the calibration probes either side of it
    reference_seconds: float = 0.0  # `seconds` at reference speed
    exit_code: int | None = None
    stdout: str = ""
    models: list | None = None
    error: str | None = None


def prepare(cases: list[Case]) -> list[Prepared]:
    """Set-up: parse each search problem into a signature and axiom list.
    CLI and library cases read their files inside the verdict."""
    out = []
    for case in cases:
        if case.kind != "search":
            out.append(Prepared(case))
            continue
        with open(case.args[0], encoding="utf-8") as fh:
            tf = syntax.parse_theory(fh.read())
        axioms = (tuple(t for _, t in tf.axioms) if case.own_axioms
                  else tf.logic().axiom_terms)
        out.append(Prepared(case, tf.signature, axioms))
    return out


def _run_cli(p: Prepared, v: Verdict) -> None:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            v.exit_code = cli.main(list(p.case.args))
        except SystemExit as e:  # argparse usage errors
            v.exit_code = e.code if isinstance(e.code, int) else 2
    v.stdout = buf.getvalue()


def _run_library(p: Prepared, v: Verdict) -> None:
    db = TheoremDB()
    lines, passed = [], True
    for path in p.case.args:
        with open(path, encoding="utf-8") as fh:
            tf = syntax.parse_theory(fh.read())
        report = driver.check_theory(tf, db)
        lines += [f"{r.name}: {r.verdict}" for r in report.results]
        passed = passed and report.passed
    v.exit_code = 0 if passed else 1
    v.stdout = "\n".join(lines)


def _run_search(p: Prepared, v: Verdict) -> None:
    v.models = algebra.find_models(p.signature, p.axioms, p.case.size,
                                   limit=p.case.limit)


_RUNNERS = {"cli": _run_cli, "library": _run_library, "search": _run_search}


def run_one(p: Prepared) -> Verdict:
    v = Verdict(p, 0.0)
    t0 = time.perf_counter()
    try:
        _RUNNERS[p.case.kind](p, v)
    except Exception as e:  # a verdict that raises is a failed verdict
        v.error = f"{type(e).__name__}: {e}"
    v.seconds = time.perf_counter() - t0
    return v


def run_for(prepared: list[Prepared], seconds: float, cycles: int | None = None,
            start=None) -> tuple[list[Verdict], float]:
    """Closed loop, one client: cycle through the prepared cases, starting
    each verdict only after the previous one completed, until `seconds`
    have passed or `cycles` whole cycles are done.  A calibration probe
    runs between verdicts, and each verdict's time is also given at
    reference speed from the probes on either side of it.  `start`, if
    given, is called with the verdict's index before it runs.  Returns the
    verdicts and the wall time they took, probes included."""
    verdicts: list[Verdict] = []
    t0 = time.perf_counter()
    before = calibrate.probe()
    while time.perf_counter() - t0 < seconds:
        for p in prepared:
            if start is not None:
                start(len(verdicts))
            v = run_one(p)
            after = calibrate.probe()
            v.probe_s = (before + after) / 2
            v.reference_seconds = calibrate.at_reference(v.seconds, v.probe_s)
            before = after
            verdicts.append(v)
            if time.perf_counter() - t0 >= seconds:
                break
        if cycles is not None and len(verdicts) >= cycles * len(prepared):
            break
    return verdicts, time.perf_counter() - t0


def _model_key(alg) -> tuple:
    return tuple((name, tuple(sorted(impl.rule.items())))
                 for name, impl in sorted(alg.interp.items()))


def judge_all(verdicts: list[Verdict]) -> list[bool]:
    """For each verdict, whether it matches its case's known answer.  Every
    distinct model a search returned for a case is re-verified with
    check_model; a repeat of the same model is not checked again."""
    verified: dict[tuple, bool] = {}

    def holds(v: Verdict, alg) -> bool:
        key = (id(v.prepared), _model_key(alg))
        if key not in verified:
            verified[key] = algebra.check_model(alg, v.prepared.axioms).passed
        return verified[key]

    def judge(v: Verdict) -> bool:
        case = v.prepared.case
        if v.error is not None:
            return False
        if case.kind == "search":
            if case.expect_models is None:
                ok = len(v.models) >= 1
            else:
                ok = len(v.models) == case.expect_models
            return ok and all(holds(v, m) for m in v.models)
        if v.exit_code != case.expect_exit:
            return False
        lines = v.stdout.splitlines()
        if not set(case.expect_lines) <= set(lines):
            return False
        if case.expect_value is not None:
            return bool(lines) and lines[0].rsplit(" = ", 1)[-1] == case.expect_value
        return True

    return [judge(v) for v in verdicts]
