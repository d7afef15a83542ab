"""Seeded inputs for the benchmark workloads, each with its known answer.

Standard library only: the program under test never builds its own inputs,
and the same seed gives byte-identical files.  A workload is a *cycle*, a
fixed multiset of case classes in a seeded order; the seed changes names,
formulas, renamings and mutation sites, never the mix, so the figures of
two seeds are comparable.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("corpus", "chain", "search-sat", "search-unsat")

CORPUS_DIR = Path("src") / "abslog" / "corpus"

# axiom labels of the builtin logics, in the order `model-check` reports them
LABELS_K = ("D1 D2 D3 D4 D5 E1 E2 E3 F1 F2 F3 "
            "I1 I2 I3 I4 I5 I6 I7 I8 I9 K").split()
LABELS_P = LABELS_K + [f"P{i}" for i in range(1, 10)]


@dataclass(frozen=True)
class Case:
    """One verdict request and its known answer.

    kind "cli":     args is the argv of `abslog`; the exit code must be
                    expect_exit, every expect_lines entry must be a line of
                    stdout and, for `eval`, the value printed after the last
                    " = " of the first line must be expect_value.
    kind "library": args are theory files checked in order into one theorem
                    store; expect_lines are "name: verdict" lines.
    kind "search":  args is one theory file whose logic is the problem
                    (only the file's own axioms when own_axioms is set);
                    find_models runs at `size` with `limit`; expect_models
                    is the exact model count, or None for "at least one".
    """
    kind: str
    name: str
    args: tuple[str, ...]
    expect_exit: int = 0
    expect_lines: tuple[str, ...] = ()
    expect_value: str | None = None
    size: int = 0
    limit: int = 1
    expect_models: int | None = None
    own_axioms: bool = False


# --- lexical helpers for .al text ---------------------------------------------

_TOKEN = re.compile(r"\s+|#[^\n]*|==>|<->|->|/\\|\\/|!=|:=|[A-Za-z_][A-Za-z0-9_′]*"
                    r"|∃₁|.", re.S)
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_′]*$")
_BINDERS = {"all", "ex", "ex1", "∀", "∃", "∃₁", "the", "some"}


def _tokens(line: str) -> list[str]:
    return _TOKEN.findall(line)


def _is_ident(tok: str) -> bool:
    return bool(_IDENT.match(tok))


def _next_sig(toks: list[str], i: int) -> int:
    """Index of the first non-blank token at or after i (len(toks) if none)."""
    while i < len(toks) and toks[i].isspace():
        i += 1
    return i


def _scope_end(toks: list[str], i: int) -> int:
    """End (exclusive) of a term starting at token i: the first closing
    bracket, ',' or '==>' outside the brackets opened inside it."""
    depth = 0
    while i < len(toks):
        t = toks[i]
        if t in "([{":
            depth += 1
        elif t in ")]}":
            if depth == 0:
                return i
            depth -= 1
        elif depth == 0 and t in (",", "==>"):
            return i
        i += 1
    return i


def _binder_sites(toks: list[str]) -> list[tuple[list[int], int, int]]:
    """(binder token indices, body start, body end) for every `all x.`-style
    binder and every `:= [u v. body]` substitution template on a line."""
    sites = []
    sig = [i for i, t in enumerate(toks) if not t.isspace()]
    for n, i in enumerate(sig):
        t = toks[i]
        if t in _BINDERS and n + 2 < len(sig):
            b, dot = sig[n + 1], sig[n + 2]
            if _is_ident(toks[b]) and toks[dot] == ".":
                sites.append(([b], dot + 1, _scope_end(toks, dot + 1)))
        elif t == "[" and n > 0 and toks[sig[n - 1]] == ":=":
            names = []
            m = n + 1
            while m < len(sig) and _is_ident(toks[sig[m]]):
                names.append(sig[m])
                m += 1
            if names and m < len(sig) and toks[sig[m]] == ".":
                sites.append((names, sig[m] + 1, _scope_end(toks, sig[m] + 1)))
    return sites


def _rename_bound(line: str, fresh) -> str:
    """α-rename every bound variable on one line to a fresh name."""
    toks = _tokens(line)
    sites = _binder_sites(toks)
    # innermost binders first, so an outer rename never touches a shadowed
    # occurrence that an inner binder already claimed
    for names, start, end in sorted(sites, key=lambda s: s[2] - s[1]):
        for b in names:
            old, new = toks[b], fresh()
            for k in range(start, end):
                nxt = _next_sig(toks, k + 1)
                if toks[k] == old and not (nxt < len(toks) and toks[nxt] == "["):
                    toks[k] = new
            toks[b] = new
    return "".join(toks)


_STEP = re.compile(r"^(\s*)(\w+)(\s*:\s*)(ax|subst|mp|all|lemma)\b(.*)$")
_THEOREM = re.compile(r"^theorem\s+(\w+)\s*:")


class _Names:
    """Fresh identifiers that occur nowhere in the source text."""

    def __init__(self, rnd: random.Random, text: str, stem: str):
        self.used = set(re.findall(r"[A-Za-z_][A-Za-z0-9_′]*", text))
        self.rnd = rnd
        self.stem = stem

    def __call__(self) -> str:
        while True:
            name = f"{self.stem}{self.rnd.randrange(10, 10 ** 4)}"
            if name not in self.used:
                self.used.add(name)
                return name


def variant(text: str, rnd: random.Random) -> tuple[str, list[str]]:
    """Relabel theorems and steps and α-rename bound variables; the result
    proves the same statements.  Returns the text and the theorem names."""
    theorems: dict[str, str] = {}
    steps: dict[str, str] = {}
    new_theorem = _Names(rnd, text, rnd.choice("tlh"))
    new_step = _Names(rnd, text, rnd.choice("spq") + rnd.choice("abc"))
    new_bound = _Names(rnd, text, rnd.choice("wvb"))

    out = []
    for line in text.split("\n"):
        m = _THEOREM.match(line)
        if m:
            theorems[m.group(1)] = new_theorem()
            steps = {}
            line = f"theorem {theorems[m.group(1)]}{line[m.end(1):]}"
        m = _STEP.match(line)
        if m:
            indent, name, colon, rule, rest = m.groups()
            steps[name] = new_step()
            words = rest.split(" ")
            # positions of premise references after the rule keyword
            refs = {"subst": [1], "mp": [1, 2], "all": [2], "lemma": [1]}.get(rule, [])
            table = theorems if rule == "lemma" else steps
            for p in refs:
                words[p] = table[words[p]]
            line = f"{indent}{steps[name]}{colon}{rule}{' '.join(words)}"
        out.append(_rename_bound(line, new_bound))
    return "\n".join(out), list(theorems.values())


def theorem_names(text: str) -> list[str]:
    return [m.group(1) for m in map(_THEOREM.match, text.split("\n")) if m]


def mutate(text: str, rnd: random.Random) -> tuple[str, str]:
    """Break the last theorem so that it cannot check; returns the text and
    its name.  Every earlier theorem still checks, so the cost of a mutated
    file hardly depends on the seed.

    Three edits, each certain to fail: swapping the premises of an `mp`
    step (the swapped major premise would have to contain itself),
    annotating a step with `(S) -> (S)` instead of S, and stating the
    theorem as `(S) -> (S)`.
    """
    lines = text.split("\n")
    head = max(i for i, l in enumerate(lines) if _THEOREM.match(l))
    body = range(head + 1, len(lines))
    mp_steps = [i for i in body
                if (m := re.search(r":\s*mp (\w+) (\w+)", lines[i])) and m[1] != m[2]]
    claims = [i for i in body if _STEP.match(lines[i]) and "==>" in lines[i]]
    how = rnd.choice(("swap", "claim", "statement"))
    if how == "swap":
        i = rnd.choice(mp_steps)
        lines[i] = re.sub(r"mp (\w+) (\w+)", r"mp \2 \1", lines[i], count=1)
    elif how == "claim":
        i = rnd.choice(claims)
        step, claim = lines[i].split("==>", 1)
        lines[i] = f"{step}==> ({claim.strip()}) -> ({claim.strip()})"
    else:
        name, stmt = lines[head].split(":", 1)
        lines[head] = f"{name}: ({stmt.strip()}) -> ({stmt.strip()})"
    return "\n".join(lines), _THEOREM.match(lines[head]).group(1)


# --- corpus -------------------------------------------------------------------

_CONNECTIVES = ("->", "/\\", "\\/", "<->", "=", "!=")


def _formula(rnd: random.Random, depth: int, names: tuple[str, ...],
             bound: tuple[str, ...] = ()) -> str:
    """Fully parenthesized classical formula over names (and bound vars)."""
    if depth == 0 or rnd.random() < 0.2:
        return rnd.choice(names + bound + ("true", "false"))
    pick = rnd.random()
    if pick < 0.15:
        return f"(not {_formula(rnd, depth - 1, names, bound)})"
    if pick < 0.3 and len(bound) < 2:
        q = rnd.choice(("all", "ex"))
        x = ("x", "y")[len(bound)]
        return f"({q} {x}. {_formula(rnd, depth - 1, names, bound + (x,))})"
    op = rnd.choice(_CONNECTIVES)
    a = _formula(rnd, depth - 1, names, bound)
    b = _formula(rnd, depth - 1, names, bound)
    return f"({a} {op} {b})"


def _bool_eval(text: str, env: dict[str, bool]) -> bool:
    """Truth value of a _formula() result in the two-element model."""
    toks = [t for t in _tokens(text) if not t.isspace()]
    pos = 0

    def term(env) -> bool:
        nonlocal pos
        t = toks[pos]
        pos += 1
        if t != "(":
            return {"true": True, "false": False}.get(t, env.get(t))
        if toks[pos] == "not":
            pos += 1
            v = not term(env)
        elif toks[pos] in ("all", "ex"):
            q, x = toks[pos], toks[pos + 1]
            pos += 3
            start = pos
            vals = []
            for u in (True, False):
                pos = start
                vals.append(term({**env, x: u}))
            v = all(vals) if q == "all" else any(vals)
        else:
            a = term(env)
            op = toks[pos]
            pos += 1
            b = term(env)
            v = {"->": (not a) or b, "/\\": a and b, "\\/": a or b,
                 "<->": a == b, "=": a == b, "!=": a != b}[op]
        pos += 1  # ")"
        return v

    return term(env)


# statements over the arithmetic signature used to instantiate K lemmas
_P_ATOMS = ("nat(zero)", "nat(suc(zero))", "nat(n)", "(zero = suc(zero))",
            "(suc(n) = zero)", "(add(n, zero) = n)")
_P_TERMS = ("zero", "suc(zero)", "n", "add(n, zero)", "mul(n, suc(zero))")


def _library_file(rnd: random.Random, lemmas: dict[str, str]) -> tuple[str, list[str]]:
    """A theory in the arithmetic logic P whose theorems cite theorems of
    the classical prelude (logic K), so every citation crosses logics."""
    out = ["# arithmetic instances of classical prelude theorems", "", "logic P", ""]
    names = []
    for i, which in enumerate(("imp_id", "eq_sym", "efq", "imp_trans")):
        a, b, c = (rnd.choice(_P_ATOMS) for _ in range(3))
        x, y = rnd.choice(_P_TERMS), rnd.choice(_P_TERMS)
        sigma, stmt = {
            "imp_id": (f"A := {a}", f"{a} -> {a}"),
            "eq_sym": (f"x := {x}, y := {y}", f"{x} = {y} -> {y} = {x}"),
            "efq": (f"A := {a}", f"false -> {a}"),
            "imp_trans": (f"A := {a}, B := {b}, C := {c}",
                          f"({a} -> {b}) -> ({b} -> {c}) -> {a} -> {c}"),
        }[which]
        name = f"inst{i}_{which}"
        names.append(name)
        out += [f"theorem {name}: {stmt}", "proof",
                f"  l1: lemma {lemmas[which]}",
                f"  l2: subst l1 {{ {sigma} }} ==> {stmt}", "qed", ""]
    return "\n".join(out), names


def corpus_cases(rnd: random.Random, out: Path, root: Path) -> list[Case]:
    """CLI verdicts on the shipped corpus in three blocks of like cost.
    Seven verdicts that parse at most the small prelude-free files or parse
    the prelude once (peano checks, degenerate model-check and eval,
    boolean model-check and eval) come to 35% of the cycle, so the median
    and the 90th percentile both fall among the thirteen full prelude
    checks (the original, ten variants, a mutated copy, the library pass):
    the median in their lower part, the 90th percentile in their upper
    part, below the library pass that tops them."""
    prelude = (root / CORPUS_DIR / "prelude_k.al").read_text(encoding="utf-8")
    peano = (root / CORPUS_DIR / "peano.al").read_text(encoding="utf-8")
    cases = []

    def write(name: str, text: str) -> str:
        path = out / name
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    def check(name: str, text: str, names: list[str]):
        cases.append(Case("cli", f"check {name}", ("check", write(name, text)),
                          0, tuple(f"{n}: proved" for n in names)))

    check("prelude_k.al", prelude, theorem_names(prelude))
    check("peano.al", peano, theorem_names(peano))
    for i in range(10):
        check(f"prelude_v{i}.al", *variant(prelude, rnd))
    prelude_lib, lib_names = variant(prelude, rnd)
    check("peano_v0.al", *variant(peano, rnd))
    for src, stem in ((prelude, "prelude"), (peano, "peano")):
        text, names = variant(src, rnd)
        text, broken = mutate(text, rnd)
        path = write(f"{stem}_broken.al", text)
        lines = tuple(f"{n}: {'failed' if n == broken else 'proved'}" for n in names)
        cases.append(Case("cli", f"check {stem}_broken.al", ("check", path), 1, lines))

    prelude_path, peano_path = out / "prelude_k.al", out / "peano.al"
    holds_k = tuple(f"{l}: holds" for l in LABELS_K)
    holds_p = tuple(f"{l}: holds" for l in LABELS_P)
    cases.append(Case("cli", "model-check boolean",
                      ("model-check", str(prelude_path), "--model", "boolean"),
                      0, holds_k))
    cases.append(Case("cli", "model-check degenerate peano",
                      ("model-check", str(peano_path), "--model", "degenerate"),
                      0, holds_p))

    f = _formula(rnd, 4, ("A", "B", "C"))
    env = {n: rnd.random() < 0.5 for n in "ABC"}
    value = "T" if _bool_eval(f, env) else "F"
    assign = ",".join(f"{n}={'T' if env[n] else 'F'}" for n in "ABC")
    cases.append(Case("cli", "eval boolean",
                      ("eval", str(prelude_path), "--term", f, "--model",
                       "boolean", "--assign", assign), expect_value=value))
    a, b = rnd.choice(_P_TERMS), rnd.choice(_P_TERMS)
    cases.append(Case("cli", "eval degenerate",
                      ("eval", str(peano_path), "--term", f"add({a}, {b}) = suc({a})",
                       "--model", "degenerate"), expect_value="*"))

    lemma_of = dict(zip(theorem_names(prelude), lib_names))
    lib_text, inst_names = _library_file(rnd, lemma_of)
    lib = (write("prelude_lib.al", prelude_lib), write("peano_lib.al", lib_text))
    cases.append(Case("library", "library prelude+arith", lib, 0,
                      tuple(f"{n}: proved" for n in lib_names + inst_names)))
    return cases


# --- chain --------------------------------------------------------------------

# levels per cycle: the median falls inside the level-8 block and the 90th
# percentile inside the level-10 block, so neither sits on a class boundary
CHAIN_LEVELS = (6, 7, 7, 8, 8, 8, 9, 9, 10, 10)


def chain_script(levels: int, rnd: random.Random) -> tuple[str, str]:
    """Each level cites the previous one twice:
    j_k: mp x_{k-1} i_k and x_k: mp x_{k-1} j_k, with i_k = D2[A, B := true].
    Every x_k proves `true`, and its proof tree doubles per level."""
    names = _Names(rnd, "", rnd.choice("xyz"))
    theorem = f"chain{levels}_{rnd.randrange(10 ** 4)}"
    x, d2 = names(), names()
    lines = [f"# shared-premise chain, {levels} levels", "", "logic D", "",
             f"theorem {theorem}: true", "proof", f"  {x}: ax D1", f"  {d2}: ax D2"]
    for _ in range(levels):
        i, j, nx = names(), names(), names()
        lines += [f"  {i}: subst {d2} {{ A := true, B := true }}",
                  f"  {j}: mp {x} {i}",
                  f"  {nx}: mp {x} {j}"]
        x = nx
    lines[-1] += " ==> true"
    lines += ["qed", ""]
    return "\n".join(lines), theorem


def chain_cases(rnd: random.Random, out: Path, root: Path) -> list[Case]:
    cases = []
    for n, levels in enumerate(CHAIN_LEVELS):
        text, theorem = chain_script(levels, rnd)
        path = out / f"chain_{n}_{levels}.al"
        path.write_bytes(text.encode("utf-8"))
        cases.append(Case("cli", f"check chain {levels}", ("check", str(path)),
                          0, (f"{theorem}: proved",)))
    return cases


# --- model search -------------------------------------------------------------

# the axioms of D as text, and two formulas provable in D (instances of D2
# and of the prelude's imp_trans).  Every model of D satisfies any subset of
# its axioms and its theorems, and D has a model of size 3, so every
# size-3 problem built from them is satisfiable.
D_AXIOMS = {"D1": "true", "D2": "A -> B -> A",
            "D3": "(A -> B -> C) -> (A -> B) -> A -> C",
            "D4": "(all x. A[x]) -> A[x]",
            "D5": "(all x. A -> B[x]) -> A -> (all x. B[x])"}
D_THEOREMS = ("A -> B -> A", "(A -> B) -> (B -> C) -> A -> C")
# classical tautologies: the two-element boolean model satisfies K plus any
# of them, so K plus one has a model of size 2
K_TAUTOLOGIES = ("(A -> B) \\/ (B -> A)", "((A -> B) -> A) -> A", "not not A -> A",
                 "A \\/ (A -> B)", "(A /\\ B) -> (B /\\ A)", "(A <-> B) -> (B <-> A)",
                 "(not A -> A) -> A", "(A -> B) -> (not B) -> not A",
                 "A -> B -> (A /\\ B)", "(A \\/ B) -> (B \\/ A)")


def _rename_free(formula: str, rnd: random.Random) -> str:
    """Consistently rename the free propositional variables A, B, C.  The
    renaming keeps their alphabetical order, which fixes the order in which
    find_models enumerates instances, so a renamed problem costs the same."""
    letters = sorted(rnd.sample("ABCGHPQRST", 3))
    table = dict(zip("ABC", letters))
    return "".join(table.get(t, t) for t in _tokens(formula))


def _problem(out: Path, name: str, logic: str, axioms: list[str]) -> str:
    lines = [f"logic {logic}", ""] + [f"axiom X{i}: {a}" for i, a in enumerate(axioms)]
    path = out / name
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return str(path)


def search_sat_cases(rnd: random.Random, out: Path, root: Path) -> list[Case]:
    """First-model searches in three blocks of like cost, so that neither
    the median nor the 90th percentile sits on a boundary between blocks:
    six at size 2 (D, E, F, I, K, and K plus a seeded classical tautology,
    a third of the cycle); eight at size 3 on the subsets of D's axioms that
    hold D4 but not D5 (the median's block); four at size 3 on D, D plus
    each of two D theorems, and D without D3 (the 90th percentile's)."""
    cases = []
    for logic in ("D", "E", "F", "I", "K"):
        cases.append(Case("search", f"{logic} size 2",
                          (_problem(out, f"sat_{logic}.al", logic, []),), size=2))
    tautology = _rename_free(rnd.choice(K_TAUTOLOGIES), rnd)
    cases.append(Case("search", "K+tautology size 2",
                      (_problem(out, "sat_K_taut.al", "K", [tautology]),), size=2))
    for n in range(8):
        labels = [l for k, l in enumerate(("D1", "D2", "D3")) if n >> k & 1] + ["D4"]
        axioms = [_rename_free(D_AXIOMS[l], rnd) for l in labels]
        cases.append(Case("search", "D4 subset size 3",
                          (_problem(out, f"sat_{'_'.join(labels)}.al", "D", axioms),),
                          size=3, own_axioms=True))
    cases.append(Case("search", "D size 3",
                      (_problem(out, "sat_D_full.al", "D", []),), size=3))
    for n, f in enumerate(D_THEOREMS):
        path = _problem(out, f"sat_D_thm{n}.al", "D", [_rename_free(f, rnd)])
        cases.append(Case("search", "D+theorem size 3", (path,), size=3))
    axioms = [_rename_free(D_AXIOMS[l], rnd) for l in ("D1", "D2", "D4", "D5")]
    cases.append(Case("search", "D without D3 size 3",
                      (_problem(out, "sat_D_noD3.al", "D", axioms),), size=3,
                      own_axioms=True))
    return cases


# The Peano subset of the arithmetic logic with no model of size 2: the
# successor facts P1-P4, the axioms that give =, != and false their meaning,
# and instances of D4 and E2 that pin down instantiation and transport.
PEANO_SUBSET = ("x = x", "false = (all x. x)", "(not A) = (A -> false)",
                "(x != y) = (not (x = y))", "nat(zero)", "nat(n) -> nat(suc(n))",
                "nat(n) -> suc(n) != zero",
                "nat(n) -> nat(m) -> suc(n) = suc(m) -> n = m",
                "(all x. x) -> x", "x = y -> x -> y",
                "x = y -> (x = x) -> (y = x)",
                "x = y -> (x != zero) -> (y != zero)")


def search_unsat_cases(rnd: random.Random, out: Path, root: Path) -> list[Case]:
    """Searches that run to the end: refutations and full model counts."""
    cases = []
    for logic in ("P", "U", "U′"):
        cases.append(Case("search", f"{logic} size 2",
                          (_problem(out, f"unsat_{logic[0]}{len(logic)}.al", logic, []),),
                          size=2, expect_models=0))
    u, w = sorted(rnd.sample(("x", "y", "z", "u", "w"), 2))
    bad = _problem(out, "unsat_Dbad.al", "D", [f"all {u}. {u}"])
    collapse = _problem(out, "unsat_Kcollapse.al", "K", [f"{u} = {w}"])
    for size in (2, 3):
        cases.append(Case("search", f"D+BAD size {size}", (bad,), size=size,
                          expect_models=0))
        cases.append(Case("search", f"K+x=y size {size}", (collapse,), size=size,
                          expect_models=0))
    subset = list(PEANO_SUBSET)
    rnd.shuffle(subset)
    cases.append(Case("search", "Peano subset size 2",
                      (_problem(out, "unsat_peano.al", "P", subset),), size=2,
                      expect_models=0, own_axioms=True))
    for logic, count in (("D", 1), ("E", 1), ("F", 1), ("I", 1), ("K", 1),
                         ("P", 0), ("U", 0), ("U′", 0)):
        path = _problem(out, f"all_{logic[0]}{len(logic)}.al", logic, [])
        cases.append(Case("search", f"{logic} all models size 2", (path,), size=2,
                          limit=10 ** 6, expect_models=count))
    return cases


_GENERATORS = {"corpus": corpus_cases, "chain": chain_cases,
               "search-sat": search_sat_cases, "search-unsat": search_unsat_cases}


def generate(workload: str, seed: int, out: Path, root: Path = Path(".")) -> list[Case]:
    """Write the workload's input files under out and return one cycle of
    cases in seeded order.  root is the checkout holding the shipped corpus."""
    out.mkdir(parents=True, exist_ok=True)
    rnd = random.Random(f"{workload}:{seed}")
    cases = _GENERATORS[workload](rnd, out, root)
    rnd.shuffle(cases)
    return cases
