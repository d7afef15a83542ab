import re

import pytest

from abslog import (
    Abs,
    BINOP_SHAPE,
    Var,
    make_shape,
    parse_term,
    parse_theory,
    print_term,
    print_theory,
    signature,
)
from abslog.logics import AND, SIG_D, SIG_K, all_, imp, neg, op2, v
from abslog import syntax
from abslog.errors import AbslogError
from abslog.syntax import ParseError, ProofStep, tokenize

from conftest import BINDER_POOL, random_signature, random_term
from oracles import (
    EncodingLevelParser,
    StepParser,
    parse_term_oracle,
    token_positions_oracle,
    tokenize_oracle,
)


def test_binder_extends_right():
    t = parse_term("all x. A[x] -> B", SIG_K)
    assert t == all_("x", imp(v("A", v("x")), v("B")))


def test_empty_brackets_are_arity_zero():
    assert parse_term("x[]", SIG_K) == Var("x")


def test_integral_example():
    integral = make_shape(1, [(), (0,)])
    sig = signature([("integral", integral)])
    t = parse_term("(integral x. D x)", sig)
    assert t == Abs("integral", integral, ("x",), (v("D"), v("x")))


def test_precedence():
    sig = SIG_K
    assert parse_term("A -> B -> C", sig) == parse_term("A -> (B -> C)", sig)
    assert parse_term("A /\\ B \\/ C", sig) == parse_term("(A /\\ B) \\/ C", sig)
    assert parse_term("A \\/ B -> C", sig) == parse_term("(A \\/ B) -> C", sig)
    assert parse_term("A -> B <-> C", sig) == parse_term("(A -> B) <-> C", sig)
    assert parse_term("not A = B", sig) == parse_term("not (A = B)", sig)
    assert parse_term("not A -> B", sig) == parse_term("(not A) -> B", sig)
    assert parse_term("x = y /\\ u", sig) == parse_term("(x = y) /\\ u", sig)
    assert parse_term("A <-> B <-> C", sig) == parse_term("(A <-> B) <-> C", sig)
    assert parse_term("A \\/ B \\/ C", sig) == parse_term("(A \\/ B) \\/ C", sig)
    assert parse_term("A /\\ B /\\ C", sig) == parse_term("(A /\\ B) /\\ C", sig)
    assert parse_term("not not A", sig) == neg(neg(v("A")))
    a, b, c = v("A"), v("B"), v("C")
    assert print_term(op2(AND, op2(AND, a, b), c)) == "A /\\ B /\\ C"
    assert print_term(op2(AND, a, op2(AND, b, c))) == "A /\\ (B /\\ C)"
    assert print_term(imp(imp(a, b), c)) == "(A -> B) -> C"


def test_eq_does_not_associate():
    for text in ("x = y = z", "x != y = z", "A = not B"):
        with pytest.raises(ParseError):
            parse_term(text, SIG_K)


def test_trailing_commas():
    text = """
logic D
abstraction box (0; {},)
abstraction q (1; {0,})
theorem t: true
proof
  s1: ax D1
  s2: subst s1 { A := true, }
qed
model two {
  carrier T, F
  true := T
  imp := { (T, T,) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T, }
  all := { ([T, T],) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F, }
}
"""
    tf = parse_theory(text)
    assert [d.shape for d in tf.decls] == [make_shape(0, [()]),
                                           make_shape(1, [(0,)])]
    assert len(tf.theorems[0].steps[1].sigma) == 1
    _, imp_rows = tf.model_block("two").interp[1]
    _, all_rows = tf.model_block("two").interp[2]
    assert imp_rows[0] == (("T", "T"), "T") and len(imp_rows) == 4
    assert all_rows[0] == ((("T", "T"),), "T") and len(all_rows) == 4
    assert tf == parse_theory(re.sub(r",(\s*[)}])", r"\1", text))
    f = signature([("f", BINOP_SHAPE)])
    for bad in ("f(A, B,)", "x[A,]"):
        with pytest.raises(ParseError):
            parse_term(bad, f)


def test_undeclared_operator_rejected():
    with pytest.raises(ParseError):
        parse_term("A /\\ B", SIG_D)
    with pytest.raises(ParseError) as e:
        parse_term("A ->\n  /\\ B", SIG_D)
    assert e.value.line == 2


def test_glyph_input():
    sig = SIG_K
    assert parse_term("∀ x. x ⇒ ⊥", sig) == parse_term("all x. x -> false", sig)
    assert parse_term("¬A ∧ ⊤", sig) == parse_term("not A /\\ true", sig)
    assert parse_term("∃₁ u. u = x", builtin_logic_u_sig()) == \
        parse_term("ex1 u. u = x", builtin_logic_u_sig())


def builtin_logic_u_sig():
    from abslog import builtin_logic
    return builtin_logic("U").signature


def test_function_style_application():
    from abslog import builtin_logic
    sig = builtin_logic("P").signature
    t = parse_term("add(suc(zero), zero)", sig)
    assert print_term(t) == "add(suc(zero), zero)"


def test_print_parse_roundtrip_random(rnd):
    # a nullary abstraction before another argument: `c (h u. u)` is a call
    g, c, h = make_shape(2, [(), (0, 1)]), make_shape(0, []), make_shape(1, [(0,)])
    sig = signature([("g", g), ("c", c), ("h", h)])
    t = Abs("g", g, ("z", "y"), (Abs("c", c), Abs("h", h, ("u",), (v("u"),))))
    assert parse_term(print_term(t), sig) == t
    for _ in range(150):
        sig = random_signature(rnd)
        t = random_term(rnd, sig, depth=4)
        assert parse_term(print_term(t), sig) == t
    for _ in range(150):
        t = random_term(rnd, SIG_K, depth=4)
        assert parse_term(print_term(t), SIG_K) == t
        assert parse_term(print_term(t, unicode=True), SIG_K) == t


def test_theory_roundtrip_corpus():
    from pathlib import Path
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    for path in sorted(corpus.glob("*.al")):
        tf = parse_theory(path.read_text())
        assert parse_theory(print_theory(tf)) == tf


def test_theory_declarations():
    tf = parse_theory("""
        logic D
        abstraction box (0; {})
        axiom BOX: box(A) -> A
        """)
    assert tf.base == "D"
    assert tf.decls[0].name == "box"
    logic = tf.logic()
    assert logic.labels[-1] == "BOX"
    assert len(logic.axioms) == 6


def test_duplicate_axiom_label_rejected():
    with pytest.raises(ParseError):
        parse_theory("logic D\naxiom D1: true")


_DEEP_PARENS = "(" * 400 + "A" + ")" * 400
_REPEATED_BINDER = "logic D\nabstraction q (2; {0, 1})\naxiom Q: (q x x. A)\n"
_REPEATED_PARAMETER = ("logic D\ntheorem t: true\nproof\n  s1: ax D1\n"
                       "  s2: subst s1 { A/2 := [x x. x] }\nqed\n")
# once applied, the second entry would silently replace the first
_REPEATED_KEY = ("logic D\ntheorem t: C -> B -> C\nproof\n  s1: ax D2\n"
                 "  s2: subst s1 { A := B, A := C }\nqed\n")


@pytest.mark.parametrize("text, code, line, cols", [
    ("logic D\naxiom Z: A\nlogic K\n", "SyntaxError", 3, [1]),
    ("logic D\nabstraction model (0; {})\n", "SyntaxError", 2, [13]),
    ("logic D\nabstraction box (0; {})\nabstraction box (0; {})\n",
     "DuplicateAbstraction", 3, [13]),
    ("logic Q\n", "UnknownLogic", 1, [7]),
    ("logic D\nabstraction q (2; {0})\n", "DegenerateShape", 2, [13]),
    ("logic D\nabstraction q (1; {1})\n", "IndexOutOfRange", 2, [13]),
    # where the nesting runs out depends on the caller's stack depth
    ("logic D\naxiom Z: " + _DEEP_PARENS + "\n", "TooDeep", 2, range(10, 410)),
    (_REPEATED_BINDER, "DuplicateBinder", 3, [11]),
    (_REPEATED_PARAMETER, "DuplicateBinder", 5, [18]),
    (_REPEATED_KEY, "DuplicateBinding", 5, [26]),
    (_REPEATED_KEY.replace("A := B", "A/0 := B"), "DuplicateBinding", 5, [28]),
], ids=["second-logic", "keyword-abstraction", "duplicate-abstraction",
        "unknown-logic", "degenerate-shape", "index-out-of-range", "too-deep",
        "repeated-binder", "repeated-template-parameter", "repeated-key",
        "repeated-key-with-arity"])
def test_bad_declaration_rejected(text, code, line, cols):
    with pytest.raises(ParseError) as e:
        parse_theory(text)
    assert e.value.code == code
    assert e.value.line == line and e.value.col in cols


def test_subst_literal_arity_check():
    bad = """
    logic D
    theorem t: true
    proof
      s1: ax D1
      s2: subst s1 { A/2 := [u. u] }
    qed
    """
    with pytest.raises(ParseError):
        parse_theory(bad)


def test_subst_literal_keys_are_name_and_arity():
    tf = parse_theory(_REPEATED_KEY.replace("A := C", "A/1 := [x. x]"))
    sigma = tf.theorems[0].steps[1].sigma
    assert sorted(sigma) == [("A", 0), ("A", 1)]


def test_unknown_rule_rejected():
    with pytest.raises(ParseError):
        parse_theory("logic D\ntheorem t: true\nproof\n s1: zap D1\nqed")


def test_model_block_roundtrip():
    text = """
logic D
model two {
  carrier T, F
  true := T
  imp := { (T, T) -> T, (T, F) -> F, (F, T) -> T, (F, F) -> T }
  all := { ([T, T]) -> T, ([T, F]) -> F, ([F, T]) -> F, ([F, F]) -> F }
}
"""
    tf = parse_theory(text)
    assert tf.model_block("two").carrier == ("T", "F")
    assert tf.model_block("nope") is None
    assert parse_theory(print_theory(tf)) == tf


def test_parse_error_has_span():
    with pytest.raises(ParseError) as e:
        parse_theory("logic D\naxiom Q: (all x. x")
    assert e.value.line == 2
    assert e.value.col > 0


# pieces of random token strings: every operator spelling, binders, names
# of K and P, numbers, blanks, comments and characters no token starts with
_PIECES = ("->", "<->", "\\/", "/\\", "=", "!=", "not", "¬", "⇒", "⇔", "∧",
           "∨", "≠", "(", ")", "[", "]", "{", "}", ",", ".", ";", ":", ":=",
           "==>", "/", "all", "∀", "ex1", "∃₁", "⊤", "⊥", "true", "false",
           "A", "B", "x", "y′", "suc", "zero", "add", "0", "12", " ", "  ",
           "\t", "\n", "\r\n", "# note\n", "#", "!", "$", "é", "<")
# operands and operators that alternate in mostly well-formed strings
_OPERANDS = ("A", "B", "x", "true", "not A", "not not B", "¬x", "(A", "B)",
             "(not x", "(all x. x)", "all x. x")
_OPERATORS = ("->", "<->", "\\/", "/\\", "=", "!=", "⇒", "∧", "≠")


def _outcome(parse, *args):
    """The result of a parse, or the code, message and place of its error."""
    try:
        return parse(*args)
    except AbslogError as e:
        return (type(e).__name__, e.code, e.message,
                getattr(e, "line", None), getattr(e, "col", None))


def _theory_outcome(text):
    tf = _outcome(parse_theory, text)
    if isinstance(tf, tuple):
        return tf
    return (tf, tf.axiom_positions,
            [(b.line, b.col, [(st.line, st.col) for st in b.steps])
             for b in tf.theorems],
            [(m.line, m.col) for m in tf.models])


def _mangle(rnd, text):
    """`text` with a short slice deleted or a random piece inserted."""
    pos = rnd.randrange(len(text) + 1)
    if rnd.random() < 0.5:
        return text[:pos] + text[pos + rnd.randint(1, 6):]
    return text[:pos] + rnd.choice(_PIECES) + text[pos:]


def test_front_end_matches_oracle(rnd, monkeypatch):
    """Tokens, terms and errors equal those of the tokenizer that matches
    blank runs on their own and the parser with one call per level."""
    from abslog import builtin_logic
    sigs = (SIG_K, builtin_logic("P").signature)
    for _ in range(400):
        if rnd.random() < 0.5:
            text = "".join(rnd.choice(_PIECES)
                           for _ in range(rnd.randint(0, 12)))
        else:
            text = " ".join(rnd.choice(_OPERATORS if i % 2 else _OPERANDS)
                            for i in range(rnd.randint(1, 9)))
        assert _outcome(tokenize, text) == _outcome(tokenize_oracle, text)
        for sig in sigs:
            assert (_outcome(parse_term, text, sig)
                    == _outcome(parse_term_oracle, text, sig)), text
    for _ in range(100):
        sig = rnd.choice((SIG_K, random_signature(rnd)))
        t = random_term(rnd, sig, depth=4)
        for text in (print_term(t), print_term(t, unicode=True)):
            for edited in (text, _mangle(rnd, text)):
                assert (_outcome(parse_term, edited, sig)
                        == _outcome(parse_term_oracle, edited, sig)), edited
    from pathlib import Path
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    texts = [path.read_text() for path in sorted(corpus.glob("*.al"))]
    edited = [_mangle(rnd, rnd.choice(texts)) for _ in range(40)]
    ours = [_theory_outcome(text) for text in texts + edited]
    with monkeypatch.context() as m:
        m.setattr(syntax, "tokenize", tokenize_oracle)
        m.setattr(syntax, "TermParser", EncodingLevelParser)
        assert [_theory_outcome(text) for text in texts + edited] == ours


_RULES = ("ax", "subst", "mp", "all", "lemma")


def _step_edits(line):
    """Edits of one proof step line, `name: rule ...`, by the mistakes a
    writer makes: a premise, `:`, `:=`, `{` or `}` left out, a bare or a
    misplaced `==>`, a rule unknown or swapped for another, a number for
    a name, an `/arity` added, a binding repeated."""
    name, _, rest = line.partition(":")
    words = rest.split()
    edits = [name + rest, f"{name}: frob {' '.join(words[1:])}",
             line.replace(name.strip(), "12", 1),
             line + " ==>", line.split("==>")[0] + "==>", f"{name}: ==> {rest}",
             f"{name}:{rest.replace(words[0], '', 1)}"]
    edits += [f"{name}: {other} {' '.join(words[1:])}"
              for other in _RULES if other != words[0]]
    if len(words) > 1:
        edits.append(f"{name}: {words[0]} {' '.join(words[2:])}")
        edits.append(f"{name}: {words[0]} 12 {' '.join(words[2:])}")
    if len(words) > 2:
        edits.append(f"{name}: {words[0]} {words[1]} {' '.join(words[3:])}")
        edits.append(f"{name}: {words[0]} {words[1]} 12 {' '.join(words[3:])}")
    for token in (":=", "{", "}", ","):
        if token in line:
            i = line.index(token) if token != "}" else line.rindex(token)
            edits.append(line[:i] + line[i + len(token):])
    if ":=" in line:
        edits += [line.replace(" :=", arity + " :=", 1)
                  for arity in ("/0", "/1", "/", "/x")]
        edits.append(re.sub(r"[\w′]+ :=", "12 :=", line, count=1))
        start = line.index("{") + 1
        end = min(i for i in (line.find(",", start), line.find("}", start)) if i > 0)
        edits.append(line[:start] + line[start:end] + "," + line[start:])
        edits.append(line[:start] + " X := [y. y]," + line[start:])
    return edits


def test_step_edits_match_oracle(rnd, monkeypatch):
    """Proof steps read off the token arrays equal the steps the general
    path reads, through the oracle tokenizer and term parser: on the
    corpus, and on seeded edits of its step lines, every result and every
    error (type, code, message, line and column) agree."""
    from pathlib import Path
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    texts = [path.read_text() for path in sorted(corpus.glob("*.al"))]
    edited = []
    for rule in _RULES:  # every edit of up to two step lines of each rule
        steps = [(lines, i) for lines in (text.split("\n") for text in texts)
                 for i, line in enumerate(lines) if re.match(rf"\s+\w+: {rule}\b", line)]
        for lines, at in rnd.sample(steps, min(2, len(steps))):
            for line in _step_edits(lines[at]) + [_mangle(rnd, lines[at])
                                                  for _ in range(4)]:
                edited.append("\n".join(lines[:at] + [line] + lines[at + 1:]))
    ours = [_theory_outcome(text) for text in texts + edited]
    with monkeypatch.context() as m:
        m.setattr(syntax, "tokenize", tokenize_oracle)
        m.setattr(syntax, "TermParser", EncodingLevelParser)
        m.setattr(syntax, "TheoryParser", StepParser)
        assert [_theory_outcome(text) for text in texts + edited] == ours
    failed = [outcome for outcome in ours if type(outcome[0]) is str]
    assert len(ours) - len(failed) > 5 and len({o[:3] for o in failed}) > 40
    assert {o[1] for o in failed} >= {"SyntaxError", "ArityMismatch", "DuplicateBinding"}


def test_parsed_steps_and_blocks_are_immutable_values():
    """A proof step and a theorem block cannot be changed, equal only an
    item of their own class, and compare without `tokens` and `at`: the
    same theorem written at another place in another file is equal.  Their
    line and column are worked out when read, not when parsed or compared."""
    text = ("theorem t: A -> B -> A\nproof\n"
            "  s1: ax D2\n  s2: subst s1 { B := A }\nqed\n")
    files = [parse_theory("logic D\n" + text),
             parse_theory("logic D # moved\ntheorem u: true proof s1: ax D1 qed\n\n"
                          + text.replace("  s", "\ts"))]
    (block, step), (other, other_step) = [(f.theorems[-1], f.theorems[-1].steps[0])
                                          for f in files]
    assert block == other and step == other_step and hash(step) == hash(other_step)
    assert block.at != other.at and step.at != other_step.at
    assert block.tokens is files[0].tokens and other.tokens is files[1].tokens
    assert all(f.tokens._starts is None for f in files)
    assert (step.line, step.col, other_step.line, other_step.col) == (4, 3, 6, 2)
    assert all(f.tokens._starts is not None for f in files)
    assert block.steps[1] != block.steps[0] and step != tuple(step) != step
    assert step._replace(tokens=None, at=0) == step != step._replace(label="D1")
    # built as ever: name, rule, tokens, at, then the fields a rule uses
    assert ProofStep("s1", "ax", None, 0, "D2") == step == ProofStep(
        "s1", "ax", tokens=None, at=0, label="D2")
    assert (ProofStep("s", "mp", None, 0, refs=("a", "b"))[4:]
            == (None, None, None, ("a", "b"), None, None))
    assert repr(step).startswith("ProofStep(name='s1', rule='ax', at=")
    for item in (block, step):
        for name in ("name", "tokens", "at", "line", "other"):
            with pytest.raises(AttributeError):
                setattr(item, name, None)
            with pytest.raises(AttributeError):
                delattr(item, name)


# pieces of texts that tokenize: tokens with a glyph or a prime, every
# blank and line break, and comments, one of them without its line break
_LEXICAL = ("A", "x′", "y′′", "suc", "12", "⇒", "∃₁", "∀", "⊥", "->", "/\\",
            "(", ")", ".", ":=", "==>", " ", "  ", "\t", "\n", "\r\n",
            "# note ∃₁ ⇒\n", "# no line break")


def test_positions_on_demand_match_eager_ones(rnd):
    """The line and column bisected from a token's offset equal those the
    oracle counts while it matches blank runs, for every token, eof too."""
    from pathlib import Path
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    randoms = ["".join(rnd.choice(_LEXICAL) for _ in range(rnd.randint(0, 40)))
               for _ in range(300)]
    for needle in ("\r\n", "\t", "#", "⇒", "∃₁", "′"):
        assert any(needle in text for text in randoms), needle
    assert any(text and not text.endswith("\n") for text in randoms)
    for text in [path.read_text() for path in sorted(corpus.glob("*.al"))] + randoms:
        tokens = tokenize(text)
        assert len(tokens) == len(tokenize_oracle(text))
        assert ([tokens.position(i) for i in range(len(tokens))]
                == token_positions_oracle(text)), text


def _long_texts(rnd) -> dict[str, str]:
    """Texts longer than the span Tokens.position scans whole: both corpus
    files, peano.al with CRLF line breaks and with lone \r in place of
    every line break, lines of comments holding glyphs, tabs and blank
    lines, texts that end in a token, in a comment and in blanks, none with
    a final line break, and random runs of _LEXICAL."""
    from pathlib import Path
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    texts = {path.name: path.read_text() for path in sorted(corpus.glob("*.al"))}
    texts["crlf"] = texts["peano.al"].replace("\n", "\r\n")
    texts["lone cr"] = texts["peano.al"].replace("\n", "\r")
    texts["glyph comments, tabs, blank lines"] = "".join(
        f"# ⇒ ∃₁ ∀ ⊤ x′ # {k}\n\tA\t-> B′ /\\ ∃₁ x. x\n\n\n" for k in range(40))
    for end in ("A -> B", "A # ∀ no break", "A ->  \t "):
        texts[f"ends in {end!r}"] = "logic D\n" * 150 + end
    for k in range(6):
        pieces = []
        while sum(map(len, pieces)) <= 2 * syntax._SPAN:
            pieces.append(rnd.choice(_LEXICAL))
        texts[f"random {k}"] = "".join(pieces)
    return texts


def test_a_position_reads_only_the_text_its_token_needs(rnd):
    """On a text longer than the span it scans whole, Tokens.position finds
    every token's offset, each on a fresh Tokens that no earlier scan
    serves, as the scan of the whole text does (`starts`), and its line
    and column as the oracle counts them."""
    for name, text in _long_texts(rnd).items():
        assert len(text) > syntax._SPAN, name
        tokens = tokenize(text)
        starts, oracle = tokens.starts(), token_positions_oracle(text)
        for i in range(len(tokens)):
            fresh = syntax.Tokens(tokens.kinds, tokens.values, text)
            assert fresh._offset(i) == starts[i], (name, i)
            assert fresh.position(i) == oracle[i], (name, i)


def test_a_failing_check_places_its_diagnostic_without_a_whole_scan(monkeypatch):
    """The prelude with its last step broken fails at that step's line and
    column, and working them out scans only the end of the file: the
    matches the token regex makes cover under a quarter of the text."""
    from pathlib import Path
    from abslog import check_theory
    text = (Path(__file__).parent.parent / "src" / "abslog" / "corpus"
            / "prelude_k.al").read_text()
    last = "  k6: mp n30 k5 ==> (A = true) \\/ (A <-> false)\n"
    assert text.count(last) == 1
    tf = parse_theory(text.replace(last, last.replace("false)", "true)")))
    scanned, regex = [0], syntax._TOKEN_RE

    class Counting:
        def finditer(self, text, pos=0):
            for m in regex.finditer(text, pos):
                scanned[0] += m.end() - m.start()
                yield m
    monkeypatch.setattr(syntax, "_TOKEN_RE", Counting())
    (d,) = check_theory(tf).results[-1].diagnostics
    assert (d.line, d.col) == (text[:text.index(last)].count("\n") + 1, 3)
    assert tf.tokens._starts is None
    assert 0 < scanned[0] < len(text) / 4


# text -> the token values before eof, or the bad character and its place
_EDGES = {
    "": [],
    "A": ["A"],
    "A ->": ["A", "->"],
    "A  \t\n  ": ["A"],
    "A # a comment, no line break": ["A"],
    "# ends ⇒ here\n  B": ["B"],
    "A # ∃₁ x\n∃₁ x. x": ["A", "∃₁", "x", ".", "x"],
    "A\r\n-> B\r\n": ["A", "->", "B"],
    "A ⇒ B # ⇒\r\n∧ C": ["A", "->", "B", "/\\", "C"],
    "∃∃₁ ∃₁∃ ∃ ₁": ("₁", 1, 11),
    "x′′ y′": ["x′′", "y′"],
    "′x": ("′", 1, 1),
    "A <": ("<", 1, 3),
    "A\n -B": ("-", 2, 2),
    "x ! y": ("!", 1, 3),
    "# ⇒\r\n\\": ("\\", 2, 1),
    "A\n\t$": ("$", 2, 2),
    "é": ("é", 1, 1),
    "12 x٣ ١٢": ["12", "x", "٣", "١٢"],
    "x²": ("²", 1, 2),
    "# ⇒ ∃₁\nf(٣) <-> 1": ["f", "(", "٣", ")", "<->", "1"],
}


def test_tokenizer_edge_cases():
    """Kinds, values and every position (eof too) agree with the oracle,
    and so does the place of the first bad character."""
    for text, want in _EDGES.items():
        if isinstance(want, tuple):
            char, line, col = want
            expected = ("ParseError", "SyntaxError",
                        f"unexpected character {char!r}", line, col)
            assert _outcome(tokenize_oracle, text) == expected, text
            assert _outcome(tokenize, text) == expected, text
            continue
        tokens, oracle = tokenize(text), tokenize_oracle(text)
        assert tokens.values == oracle.values == [*want, ""], text
        assert tokens.kinds == oracle.kinds, text
        assert tokens.kinds[-1] == "eof" and "eof" not in tokens.kinds[:-1]
        assert tokens == oracle, text
        assert ([tokens.position(i) for i in range(len(tokens))]
                == token_positions_oracle(text)), text



def _some(t, holds, bound=frozenset()) -> bool:
    """Whether holds(s, names bound around s) for some subterm s of t."""
    if holds(t, bound):
        return True
    if isinstance(t, Var):
        return any(_some(a, holds, bound) for a in t.args)
    return any(_some(a, holds, bound | {t.binders[j] for j in p})
               for p, a in zip(t.shape.binder_sets, t.args))


def _theory_text(rnd, sig, base) -> tuple[str, list, tuple]:
    """A theory over K plus `sig`'s abstractions whose terms are random, the
    named terms written into it (an axiom, a statement, `==>` claims, a
    literal axiom and the bodies of two substitution templates, last), and
    the templates' parameters."""
    term = lambda bound=(): random_term(rnd, base, depth=4, bound=bound)
    params = tuple(rnd.sample(BINDER_POOL, 2))
    terms = [term() for _ in range(6)] + [term(params[:1]), term(params)]
    out = [print_term(t, unicode=rnd.random() < 0.5) for t in terms]
    text = "\n".join([
        "logic K",
        *(f"abstraction {d.name} {d.shape}" for d in sig.decls),
        f"axiom X: {out[0]}",
        f"theorem T: {out[1]}",
        "proof",
        f"  s1: ax X ==> {out[2]}",
        f"  s2: subst s1 {{ A/1 := [{params[0]}. {out[6]}], B := {out[3]},"
        f" C/2 := [{' '.join(params)}. {out[7]}] }} ==> {out[4]}",
        f"  s3: ax {out[5]}",
        "qed", ""])
    return text, terms, params


def test_parser_node_is_the_encoded_oracle_term(rnd, monkeypatch):
    """The node the parser builds is `encode` of the term the named parser
    builds: for each term of 300 seeded theories over random shapes, and
    for both corpus files and those theories whole, templates included
    (their bodies against the named term under the parameters' frame)."""
    from pathlib import Path
    from abslog import builtin_logic
    from abslog.term import encode
    corpus = Path(__file__).parent.parent / "src" / "abslog" / "corpus"
    texts = [path.read_text() for path in sorted(corpus.glob("*.al"))]
    written = []
    for _ in range(300):
        sig = random_signature(rnd)
        base = builtin_logic("K").signature.extend(sig.decls)
        text, terms, params = _theory_text(rnd, sig, base)
        texts.append(text)
        written += terms
        for t in terms:
            for printed in (print_term(t), print_term(t, unicode=True)):
                parser = syntax.TermParser(tokenize(printed), base)
                assert parser.term() == encode(
                    parse_term_oracle(printed, base), [], base), printed
                assert parser.kinds[parser.i] == "eof"
        # a template body is encoded under one frame of its parameters
        sigma = parse_theory(text).theorems[0].steps[1].sigma
        for key, frame, t in ((("A", 1), params[:1], terms[6]),
                              (("C", 2), params, terms[7])):
            assert sigma[key].body == encode(
                parse_term_oracle(print_term(t), base), [frame], base)
    # what scope resolution can get wrong occurs in the texts: a binder
    # that shadows another, x[..] under a binder x, and a shape whose
    # argument positions bind different sets
    assert any(_some(t, lambda s, bound: isinstance(s, Abs)
                     and bound & set(s.binders)) for t in written)
    assert any(_some(t, lambda s, bound: isinstance(s, Var) and s.args
                     and s.name in bound) for t in written)
    assert any(_some(t, lambda s, _: isinstance(s, Abs) and s.shape.valence
                     and len(set(s.shape.binder_sets)) > 1) for t in written)
    ours = [parse_theory(text) for text in texts]
    assert all(len(tf.theorems[0].steps[1].sigma) == 3 for tf in ours[2:])
    with monkeypatch.context() as m:
        m.setattr(syntax, "TermParser", EncodingLevelParser)
        assert [parse_theory(text) for text in texts] == ours
