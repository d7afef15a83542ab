"""Command line front end.

    abslog check FILE [--json] [--stats]
    abslog model-check FILE --model boolean|degenerate|PATH [--arity-cap N] [--json]
    abslog eval FILE --term TERM --model SPEC [--assign x=v,...] [--unicode]

Exit codes: 0 everything passed, 1 a check failed, 2 usage, parse, I/O or
decoding error, or a malformed model.
"""
from __future__ import annotations

import argparse
import sys
import time
from functools import cache

from .algebra import Valuation, check_model, constant_table, eval_term
from .driver import check_theory, model_for
from .errors import AbslogError
from .syntax import parse_term, parse_theory, print_term
from .term import free_vars


def _read_text(path: str) -> str:
    # as written: parse_theory counts lines and columns itself, so a file
    # that the CLI checks is placed as parse_theory places its text
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _read_theory(path: str):
    return parse_theory(_read_text(path))


def _phase(stats: dict | None, name: str, fn, arg):
    """fn(arg), its wall time added to stats[name] unless stats is None."""
    if stats is None:
        return fn(arg)
    start = time.perf_counter()
    result = fn(arg)
    stats[name] = time.perf_counter() - start
    return result


def _print_json(doc) -> None:
    import json  # only --json needs it: not loaded at start-up

    print(json.dumps(doc, ensure_ascii=False, indent=2))


def _cmd_check(args) -> int:
    stats = {} if args.stats else None
    text = _phase(stats, "read_s", _read_text, args.file)
    tf = _phase(stats, "parse_s", parse_theory, text)
    report = _phase(stats, "check_s", check_theory, tf)
    if stats is not None:
        stats["tokens"] = len(tf.tokens)
        stats["theorems"] = len(tf.theorems)
        stats["steps"] = sum(len(block.steps) for block in tf.theorems)
        print(f"stats: read {stats['read_s'] * 1000:.3f} ms, "
              f"parse {stats['parse_s'] * 1000:.3f} ms, "
              f"check {stats['check_s'] * 1000:.3f} ms, "
              f"{stats['tokens']} tokens, "
              f"{stats['theorems']} theorems, {stats['steps']} proof steps",
              file=sys.stderr)
    if args.json:
        doc = {"file": args.file,
               "blocks": [r.to_json() for r in report.results]}
        if stats is not None:
            doc["stats"] = stats
        _print_json(doc)
    else:
        for r in report.results:
            print(f"{r.name}: {r.verdict}")
            for d in r.diagnostics:
                print(f"  {args.file}:{d}")
    return 0 if report.passed else 1


def _cmd_model_check(args) -> int:
    tf = _read_theory(args.file)
    logic = tf.logic()
    alg = model_for(tf, args.model)
    report = check_model(alg, logic.axiom_terms, args.arity_cap, logic.labels)
    names = alg.universe.value_names
    if args.json:
        blocks = []
        for v in report.verdicts:
            diags = []
            if not v.passed:
                i = tf.axiom_at.get(v.label)  # one position, not every axiom's
                line, col = tf.tokens.position(i) if i is not None else (0, 0)
                diags.append({"severity": "error", "line": line, "col": col,
                              "message": _fail_message(v, names), "code": "AxiomFails"})
            blocks.append({"name": v.label, "kind": "axiom",
                           "verdict": "holds" if v.passed else "fails",
                           "diagnostics": diags})
        _print_json({"file": args.file, "blocks": blocks})
    else:
        for v in report.verdicts:
            print(f"{v.label}: {'holds' if v.passed else 'fails'}")
            if not v.passed:
                print(f"  {_fail_message(v, names)}")
    return 0 if report.passed else 1


def _fail_message(v, names) -> str:
    """The failing value and valuation of an axiom, in carrier names."""
    parts = [f"axiom evaluates to {names[v.value]}"]
    for (name, arity), entries in v.failing_valuation or ():
        parts.append(f"{name}/{arity} := [{', '.join(names[e] for e in entries)}]")
    return "; ".join(parts)


def _parse_assignment(spec: str, alg) -> Valuation:
    overrides = {}
    if spec:
        for item in spec.split(","):
            if "=" not in item:
                raise AbslogError(f"bad assignment {item!r}, expected name=value")
            name, value = item.split("=", 1)
            name, value = name.strip(), value.strip()
            if value not in alg.universe.value_names:
                raise AbslogError(
                    f"{value!r} is not a value of the model "
                    f"(carrier: {', '.join(alg.universe.value_names)})")
            overrides[(name, 0)] = constant_table(
                alg.size, 0, alg.universe.value_names.index(value))
    return Valuation(alg.size, overrides)


def _cmd_eval(args) -> int:
    tf = _read_theory(args.file)
    try:
        term = parse_term(args.term, tf.signature)
    except AbslogError as e:
        e.source = "--term"
        raise
    alg = model_for(tf, args.model)
    nu = _parse_assignment(args.assign, alg)
    value = eval_term(alg, nu, term)
    unassigned = sorted(fv for fv in free_vars(term) if fv not in nu.overrides)
    print(f"{print_term(term, args.unicode)} = {alg.universe.value_names[value]}")
    if unassigned:
        names = ", ".join(f"{n}/{a}" for n, a in unassigned)
        print(f"  (unassigned variables default to the constant "
              f"{alg.universe.value_names[0]} operation: {names})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abslog",
        description="Check proof scripts and finite models for abstraction "
                    "logic theories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify the proofs in a theory file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true",
                         help="machine-readable report on stdout")
    p_check.add_argument("--stats", action="store_true",
                         help="time reading, parsing and checking, count "
                              "tokens, theorems and proof steps, and print them on "
                              "one line to stderr (and under \"stats\" with "
                              "--json)")
    p_check.set_defaults(fn=_cmd_check)

    p_model = sub.add_parser(
        "model-check",
        help="exhaustively check the axioms of a theory file in a finite model")
    p_model.add_argument("file")
    p_model.add_argument("--model", required=True,
                         help='"boolean", "degenerate" or a JSON model file')
    p_model.add_argument("--arity-cap", type=int, default=2,
                         help="refuse axioms with free variables above this "
                              "arity (default 2)")
    p_model.add_argument("--json", action="store_true")
    p_model.set_defaults(fn=_cmd_model_check)

    p_eval = sub.add_parser(
        "eval", help="evaluate a term in a finite model of a theory file")
    p_eval.add_argument("file")
    p_eval.add_argument("--term", required=True)
    p_eval.add_argument("--model", required=True)
    p_eval.add_argument("--assign", default="",
                        help="comma-separated x=value pairs")
    p_eval.add_argument("--unicode", action="store_true",
                        help="print with the glyph spellings")
    p_eval.set_defaults(fn=_cmd_eval)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parsing leaves it
    unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as e:
        print(f"error: {args.file} is not UTF-8 text: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print(f"error: {args.file}: terms nest too deeply to process",
              file=sys.stderr)
        return 2
    except AbslogError as e:
        at = f"{e.source or args.file}:{e.line}:{e.col}: " if e.line is not None else ""
        print(f"{at}error: [{e.code}] {e.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
