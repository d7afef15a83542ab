"""Mutation smoke test for the trusted base: nameless.py and kernel.py above
its untrusted line.

Each mutant is one small change to a copy of src/: a flipped comparison,
`is` swapped with `==`, a dropped `raise` or check (a `_check_*` or
`_exact` call), or an integer index off by one.  For each mutant the
kernel, substitution and term tests run against the copy; a mutant they
all pass survives.  The run fails if a survivor is not listed, with the
reason it changes nothing a test could see, in EQUIVALENT below.

    python tests/mutate_trusted.py               # every mutant
    python tests/mutate_trusted.py --sample 50   # 50 of them, evenly spaced

Pytest does not collect this file; it needs nothing beyond the packages the
tests use.
"""
from __future__ import annotations

import argparse
import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = [ROOT / "tests" / name for name in ("test_kernel.py", "test_subst.py",
                                             "test_terms.py")]
UNTRUSTED = "# --- untrusted below"
SECONDS = 20  # per mutant; a clean run takes about 2 s

# survivors that change nothing a test could see, by id, and why; each
# reason holds for any input from outside, whatever its class claims
_SIG = ("sig is None or a Signature (a logic's is exactly one), and a Signature "
        "equals only a Signature")
_DECL = ("decl is what Signature.get returns: None or an AbstractionDecl, which "
         "equals only an AbstractionDecl")
_LEN = "len gives CPython's one cached object for each count up to 256"
_LIST = "new is None or the list the walk makes, which never equals None"
_FAST_PATH = "a fast path: where it says no, the test after it gives the same answer"
EQUIVALENT: dict[str, str] = {
    "nameless._check_abs: is/==: sig is None => sig == None": _SIG,
    "nameless._check_abs: is/==: decl is None => decl == None": _DECL,
    "nameless._check_abs: is/==: shape is want => shape == want":
        "shape is want or shape == want becomes shape == want or shape == want",
    "nameless._check_node: is/==: len(node) == 2 => len(node) is 2": _LEN,
    "nameless._check_node: is/==: len(node) == 3 => len(node) is 3": _LEN,
    "nameless._check_node: is/==: sig is not None => sig != None": _SIG,
    "nameless._check_node: is/==: len(node) == 5 => len(node) is 5": _LEN,
    "nameless._check_node: is/==: sig is not None => sig != None #2": _SIG,
    "nameless._check_node: is/==: decl is None => decl == None": _DECL,
    "nameless._check_node: is/==: len(a) == 3 => len(a) is 3": _LEN,
    "nameless._check_node: is/==: a[0] == 'v' => a[0] is 'v'":
        _FAST_PATH + ": the call it skips checks the same sub-node",
    "nameless.same_class: is/==: m == n => m is n":
        _FAST_PATH + ": two equal nodes, checked, are equal with their hints left out",
    "nameless.free_in: is/==: out is None => out == None":
        "out is None or the set of an outer call, which never equals None",
    "nameless.Substitution.__init__: is/==: len(key) == 2 => len(key) is 2": _LEN,
    "nameless._rebuild: is/==: tag == 'A' => tag is 'A'":
        "each leaf function gives an \"A\" node back as it is",
    "nameless._rebuild: is/==: new is None => new == None": _LIST,
    "nameless._rebuild: is/==: new is None => new == None #2": _LIST,
    "nameless._rebuild: is/==: new is None => new == None #3": _LIST,
    "nameless._subst_node.leaf: is/==: body is None => body == None":
        "body is None or a checked node, a tuple",
    "nameless._settle: is/==: tag == 'b' => tag is 'b'":
        "_settle never sees a bound node: its callers pass a closed node or skip one",
    "nameless._settle: is/==: a[0] == 'b' => a[0] is 'b'":
        _FAST_PATH + ": _settle gives a bound node back as it is",
    "nameless._settle: is/==: got is not a => got != a":
        "a node _settle builds anew differs in value from the one it replaces",
    "nameless._settle: is/==: new is None => new == None": _LIST,
    "nameless._settle: is/==: new is None => new == None #2": _LIST,
    "nameless._settle: is/==: new is None => new == None #3": _LIST,
    "nameless._settle: is/==: hints is node[3] => hints == node[3]":
        "hints built anew differ in value from the node's",
    "nameless._settle: is/==: new is None => new == None #4": _LIST,
    "kernel.Theorem.statement: is/==: self._statement is None => self._statement == None":
        "_statement is None or the Var or Abs _named builds, which equals only its class",
    "kernel.axiom: is/==: node is None => node == None":
        "node is None or an axiom node of the logic, a tuple",
}

_FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt,
         ast.Gt: ast.LtE, ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is}
_IDENTITY = {ast.Is: ast.Eq, ast.Eq: ast.Is, ast.IsNot: ast.NotEq, ast.NotEq: ast.IsNot}


class Mutant:
    def __init__(self, path: Path, node: ast.AST, new: str, kind: str, where: str):
        self.path, self.node, self.new = path, node, new
        self.id = f"{path.stem}.{where}: {kind}: {_short(ast.unparse(node))} => {_short(new)}"

    def apply(self, source: str) -> str:
        """source with this mutant's node replaced by its new text."""
        lines = source.splitlines(keepends=True)
        n = self.node
        start = sum(map(len, lines[:n.lineno - 1])) + _col(lines[n.lineno - 1], n.col_offset)
        end = (sum(map(len, lines[:n.end_lineno - 1]))
               + _col(lines[n.end_lineno - 1], n.end_col_offset))
        return source[:start] + self.new + source[end:]


def _col(line: str, offset: int) -> int:
    """The str index of a UTF-8 byte offset into line."""
    return len(line.encode("utf-8")[:offset].decode("utf-8"))


def _short(text: str, width: int = 70) -> str:
    text = " ".join(text.split())
    return text if len(text) <= width else text[:width - 1] + "…"


def _mutants_of(path: Path, tree: ast.Module, last_line: int) -> list[Mutant]:
    out = []

    def visit(node: ast.AST, where: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = node.name if where == "<module>" else f"{where}.{node.name}"
        if getattr(node, "lineno", 0) <= last_line:
            out.extend(_at(path, node, where))
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, ast.arg):  # annotations are never run
                visit(child, where)

    visit(tree, "<module>")
    seen: dict[str, int] = {}
    for m in out:  # the same change twice in one function: number the others
        seen[m.id] = seen.get(m.id, 0) + 1
        if seen[m.id] > 1:
            m.id += f" #{seen[m.id]}"
    return out


def _at(path: Path, node: ast.AST, where: str):
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            for kind, table in (("flip", _FLIP), ("is/==", _IDENTITY)):
                if type(op) in table:
                    ops = list(node.ops)
                    ops[i] = table[type(op)]()
                    new = ast.Compare(node.left, ops, node.comparators)
                    yield Mutant(path, node, ast.unparse(new), kind, where)
    elif isinstance(node, ast.Raise):
        yield Mutant(path, node, "pass", "drop raise", where)
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and (
            node.func.id.startswith("_check") or node.func.id == "_exact"):
        # a check whose value is used gives back its first argument unchecked
        yield Mutant(path, node, ast.unparse(node.args[0]) if node.args else "None",
                     "drop check", where)
    elif isinstance(node, ast.Subscript):
        index = node.slice
        k = (index.value if isinstance(index, ast.Constant) else
             -index.operand.value if isinstance(index, ast.UnaryOp)
             and isinstance(index.op, ast.USub) and isinstance(index.operand, ast.Constant)
             else None)
        if type(k) is int:
            new = ast.Subscript(node.value, ast.Constant(k + 1 if k >= 0 else k - 1))
            yield Mutant(path, node, ast.unparse(new), "off by one", where)


def mutants() -> list[Mutant]:
    out = []
    for path in (ROOT / "src" / "abslog" / "nameless.py", ROOT / "src" / "abslog" / "kernel.py"):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        last = next((i for i, line in enumerate(lines, 1) if line.startswith(UNTRUSTED)),
                    len(lines) + 1) - 1
        out += _mutants_of(path, ast.parse(source), last)
    return out


def _limit_memory() -> None:  # a mutant that loops and grows stops at 2 GiB
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _tests_pass(src: Path, env: dict) -> str:
    """"passed", "failed" or "timeout": the tests run against the copy."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *map(str, TESTS)],
            cwd=src.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=SECONDS, preexec_fn=_limit_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if proc.returncode == 0 else "failed"


def run(m: Mutant, src: Path, env: dict) -> str:
    """"killed", "timeout" or "survived"."""
    target = src / "abslog" / m.path.name
    original = target.read_text(encoding="utf-8")
    target.write_text(m.apply(original), encoding="utf-8")
    try:
        return {"passed": "survived", "failed": "killed"}.get(
            _tests_pass(src, env), "timeout")
    finally:
        target.write_text(original, encoding="utf-8")


def _why(m: Mutant) -> str | None:
    """Why the survivor m changes nothing, if EQUIVALENT says."""
    return EQUIVALENT.get(m.id)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sample", type=int, default=0,
                    help="run this many mutants, evenly spaced (default: all)")
    args = ap.parse_args(argv)
    todo = mutants()
    if 0 < args.sample < len(todo):
        todo = [todo[i * len(todo) // args.sample] for i in range(args.sample)]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1",
                   HYPOTHESIS_STORAGE_DIRECTORY=str(Path(tmp) / ".hypothesis"))
        where = subprocess.run([sys.executable, "-c", "import abslog; print(abslog.__file__)"],
                               env=env, capture_output=True, text=True).stdout.strip()
        if not where.startswith(str(src)):
            print(f"the copy is not what imports: abslog is {where}", file=sys.stderr)
            return 2
        if _tests_pass(src, env) != "passed":
            print("the tests fail on the unmutated copy", file=sys.stderr)
            return 2
        status = {}
        start = time.monotonic()
        for i, m in enumerate(todo, 1):
            status[m] = run(m, src, env)
            print(f"[{i}/{len(todo)}] {status[m]:8} {m.id}", flush=True)
    survivors = [m for m in todo if status[m] == "survived"]
    unexplained = [m for m in survivors if _why(m) is None]
    timeouts = sum(s == "timeout" for s in status.values())
    print(f"\n{len(todo)} mutants in {time.monotonic() - start:.0f} s: "
          f"{len(todo) - len(survivors) - timeouts} killed, {timeouts} timed out, "
          f"{len(survivors)} survived")
    for m in survivors:
        print(f"  survived: {m.id}\n    {_why(m) or 'NOT LISTED as equivalent'}")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
