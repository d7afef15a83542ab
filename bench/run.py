"""abslog benchmark: one closed-loop workload per run, one client.

    python3 bench/run.py --workload corpus|chain|search-sat|search-unsat \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the program from ./src.
The seed fixes the generated inputs.  With --trace 0 the run measures the
end-to-end metrics; with --trace 1 it runs the workload untraced for half
the time, then one traced cycle, and reports the per-layer metrics.  Times
are given at reference speed, calibrated against a fixed probe that runs
between verdicts (see calibrate.py), so machine drift cancels.  Every
verdict is judged against its known answer.  Human-readable lines come
first; the last line of stdout is the JSON result.  Inputs, the result
record and the trace's spans are written under .bench_out/.  See
bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen  # standard library only; bench/ is on sys.path as the script's directory

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = Path(".bench_out")
SETUP_PROBES = 8  # before and again after the timed window


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import abslog from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "abslog" / "__init__.py").is_file():
        _die(f"no program at {src / 'abslog'}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import abslog
    if Path(abslog.__file__).resolve().parent != (src / "abslog").resolve():
        _die(f"imported abslog from {abslog.__file__}, not from {src}")
    import tracing
    import workloads
    return workloads, tracing


def _machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "abslog").rglob("*")):
        if path.suffix in (".py", ".al"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "commit": commit,
            "source_sha256": digest.hexdigest()}


def _setup_seconds(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh interpreters, one after another, at reference
    speed."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _percentiles(ms: list[float]) -> tuple[float, float]:
    if len(ms) < 2:
        return ms[0], ms[0]
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return deciles[4], deciles[8]


def _whole_cycles(verdicts, cycle: int):
    """The verdicts of whole cycles only, so every run weighs the same mix."""
    return verdicts[:len(verdicts) - len(verdicts) % cycle] or verdicts


def _cycle_rate(verdicts, cycle: int) -> float:
    """Verdicts per second of busy time at reference speed, over whole
    cycles only, so a traced and an untraced pass compare the same mix."""
    whole = _whole_cycles(verdicts, cycle)
    return len(whole) / sum(v.reference_seconds for v in whole)


def _timed(workloads, cases, args):
    """End-to-end metrics of an untraced run, at reference speed."""
    setup = _setup_seconds(args.workload, args.seed)
    prepared = workloads.prepare(cases)
    verdicts, wall = workloads.run_for(prepared, args.seconds)
    setup += _setup_seconds(args.workload, args.seed)
    whole = _whole_cycles(verdicts, len(cases))
    ms = [v.reference_seconds * 1000 for v in whole]
    p50, p90 = _percentiles(ms)
    beyond = sum(1 for t in ms if t > p90)
    wall_p50, wall_p90 = _percentiles([v.seconds * 1000 for v in whole])
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    n = f"n={len(ms)} in {len(ms) // len(cases)} whole cycles"
    metrics = {
        "verdicts_per_s": (_cycle_rate(whole, len(cases)), "1/s",
                           f"{len(verdicts)} verdicts in {wall:.2f} s of wall time"),
        "verdict_p50_ms": (p50, "ms", f"{n}; {wall_p50:.1f} ms wall"),
        "verdict_p90_ms": (p90, "ms", f"{n}, {beyond} beyond; {wall_p90:.1f} ms wall"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh-process set-ups"),
        "peak_rss_mb": (rss, "MB", "workload process"),
    }
    return verdicts, metrics, {"setup_samples_s": setup, "verdict_samples": len(ms),
                               "beyond_p90": beyond, "window_s": wall,
                               "wall_p50_ms": wall_p50, "wall_p90_ms": wall_p90,
                               "probe_median_ms": 1000 * statistics.median(
                                   v.probe_s for v in verdicts)}


def _traced(workloads, tracing, cases, args, work: Path):
    """Per-layer metrics: half the time untraced, then one traced cycle."""
    prepared = workloads.prepare(cases)
    untraced, _ = workloads.run_for(prepared, args.seconds / 2)
    tracer = tracing.Tracer()
    with tracer:
        traced, _ = workloads.run_for(prepared, float("inf"), cycles=1,
                                      start=tracer.start_request)
    leftover = tracing.wrapped_attributes()
    if leftover:
        _die(f"tracing wrappers left installed: {leftover}")
    values = tracer.metrics()
    values["trace.overhead_share"] = (_cycle_rate(traced, len(cases))
                                      / _cycle_rate(untraced, len(cases)))
    spans = work / "spans.jsonl"
    tracer.write_spans(spans)
    metrics = {k: (v, tracing.unit(k), "") for k, v in values.items()}
    return untraced + traced, metrics, {
        "traced_verdicts": len(traced), "spans": str(spans),
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workloads, tracing = _load_program()
    work = OUT / f"{args.workload}-s{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cases = gen.generate(args.workload, args.seed, work)
    except OSError as e:
        _die(f"cannot generate inputs: {e}")

    machine = _machine()
    print(f"# abslog benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} cycle={len(cases)} verdicts")
    print("# machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    if args.trace:
        verdicts, metrics, extra = _traced(workloads, tracing, cases, args, work)
    else:
        verdicts, metrics, extra = _timed(workloads, cases, args)

    ok = workloads.judge_all(verdicts)
    failed = ok.count(False)
    for name, (value, unit, note) in metrics.items():
        print(f"{name:34s} = {value:.6g} {unit}" + (f" ({note})" if note else ""))
    print(f"{'fail_share':34s} = {failed / len(verdicts):.6g} ({failed} of {len(verdicts)})")
    for v, good in zip(verdicts, ok):
        if not good:
            print(f"# FAILED {v.prepared.case.name} {v.prepared.case.args}: "
                  f"exit={v.exit_code} error={v.error}")

    by_case: dict[str, list[float]] = {}
    for v in verdicts:
        by_case.setdefault(v.prepared.case.name, []).append(v.reference_seconds * 1000)
    result = {"correct": failed == 0, "attempted": len(verdicts), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, **result, **extra,
              "fail_share": failed / len(verdicts),
              "median_reference_ms_by_case": {k: statistics.median(t)
                                              for k, t in sorted(by_case.items())}}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
