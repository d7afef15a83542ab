"""Spans and counts around the public functions of each program layer.

The tracer rebinds every wrapped function in every `abslog` module that
holds it by name (`alpha_eq`, for example, lives in `term` and is imported
into `kernel`, `driver`, `logics` and the package), and puts every original
back when it is removed.  Untraced runs never create a tracer.

A span records (span id, parent span id, request id, name, start ns, end ns).
A recursive function counts only its outermost entry.  Self time is a
span's duration minus the time its child spans cover.  Counts that the
tracer computes itself (proof-tree nodes, instances, valuations) are taken
before the call starts and their cost is charged to no span.
"""
from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from math import prod

# layer -> public functions traced in it
LAYERS = {
    "cli": ("main",),
    "syntax": ("tokenize", "parse_theory", "parse_term"),
    "logics": ("builtin_logic", "is_extension"),
    "driver": ("check_theorem", "model_for"),
    "kernel": ("check_proof",),
    "subst": ("apply_subst", "canonical"),
    "term": ("alpha_eq", "to_debruijn", "check_wellformed", "free_vars"),
    "algebra": ("find_models", "all_tables", "check_model"),
}

MAX_SPANS = 100_000  # spans kept for the trace file; counters are exact regardless
_MARK = "_bench_traced"


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "abslog" or name.startswith("abslog."))]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)     # extra counters, by metric name
        self.spans: list[tuple] = []
        self.dropped = 0
        self.request = 0
        self._stack: list[list] = []       # [span id, child ns]
        self._active = defaultdict(int)    # recursion depth per function
        self._next_id = 1
        self._patches: list[tuple] = []    # (module, attribute, original)
        self._memo: dict[int, tuple] = {}  # proof node id -> (node, tree size)
        self._free_vars = None

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = _program_modules()
        by_name = {m.__name__: m for m in modules}
        self._free_vars = by_name["abslog.term"].free_vars
        for layer, names in LAYERS.items():
            home = by_name[f"abslog.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patches.append((m, attr, original))

    def remove(self) -> None:
        for m, attr, original in reversed(self._patches):
            setattr(m, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def start_request(self, request: int) -> None:
        self.request = request
        self._memo.clear()

    # -- counts taken at the boundaries -----------------------------------------

    def _tree_size(self, p) -> int:
        """Proof-tree nodes submitted, counting shared subtrees once per
        occurrence (memoised on node identity, so the walk is linear)."""
        hit = self._memo.get(id(p))
        if hit is not None and hit[0] is p:
            return hit[1]
        n = 1 + sum(self._tree_size(getattr(p, f))
                    for f in ("sub", "sub_h", "sub_g") if hasattr(p, f))
        self._memo[id(p)] = (p, n)
        return n

    def _valuations(self, axioms, size: int) -> int:
        """Assignments of operations to the free variables of each axiom:
        an n-ary variable ranges over size ** (size ** n) tables."""
        return sum(prod(size ** (size ** n) for _, n in self._free_vars(a))
                   for a in axioms)

    def _precount(self, name: str, args, kwargs) -> None:
        if name == "kernel.check_proof":
            p = args[1] if len(args) > 1 else kwargs["p"]
            self.counts["kernel.check_proof.nodes"] += self._tree_size(p)
        elif name == "algebra.find_models":
            size = args[2] if len(args) > 2 else kwargs["size"]
            axioms = args[1] if len(args) > 1 else kwargs["axioms"]
            self.counts["algebra.find_models.instances"] += self._valuations(axioms, size)
        elif name == "algebra.check_model":
            alg, axioms = args[0], (args[1] if len(args) > 1 else kwargs["axioms"])
            self.counts["algebra.check_model.valuations"] += self._valuations(axioms, alg.size)

    def _postcount(self, name: str, result) -> None:
        if name == "syntax.tokenize":
            self.counts["syntax.tokenize.tokens"] += len(result)
        elif name == "algebra.find_models":
            self.counts["algebra.find_models.models"] += len(result)

    # -- the wrapper --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        drain = name == "algebra.all_tables"  # a generator its callers consume at once
        counted = name in ("kernel.check_proof", "algebra.find_models",
                           "algebra.check_model", "syntax.tokenize")

        def wrapper(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if counted:
                c0 = time.perf_counter_ns()
                tracer._precount(name, args, kwargs)
                if stack:  # keep the counting out of the caller's self time
                    stack[-1][1] += time.perf_counter_ns() - c0
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0]
            stack.append(frame)
            tracer._active[name] += 1
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = iter(list(result))
            finally:
                t1 = time.perf_counter_ns()
                tracer._active[name] -= 1
                stack.pop()
                dur = t1 - t0
                tracer.calls[name] += 1
                tracer.total_ns[name] += dur
                tracer.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.request, name, t0, t1))
                else:
                    tracer.dropped += 1
            if counted:
                tracer._postcount(name, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        s = lambda name: self.total_ns[name] / 1e9
        self_s = lambda name: self.self_ns[name] / 1e9
        nodes = self.counts["kernel.check_proof.nodes"]
        return {
            "cli.main.calls": self.calls["cli.main"],
            "cli.main.self_s": self_s("cli.main"),
            "syntax.tokenize.calls": self.calls["syntax.tokenize"],
            "syntax.tokenize.tokens": self.counts["syntax.tokenize.tokens"],
            "syntax.tokenize.s": s("syntax.tokenize"),
            "syntax.parse_theory.self_s": self_s("syntax.parse_theory"),
            "syntax.parse_term.calls": self.calls["syntax.parse_term"],
            "logics.builtin_logic.calls": self.calls["logics.builtin_logic"],
            "logics.builtin_logic.s": s("logics.builtin_logic"),
            "logics.is_extension.calls": self.calls["logics.is_extension"],
            "logics.is_extension.self_s": self_s("logics.is_extension"),
            "driver.check_theorem.calls": self.calls["driver.check_theorem"],
            "driver.check_theorem.self_s": self_s("driver.check_theorem"),
            "driver.model_for.s": s("driver.model_for"),
            "kernel.check_proof.calls": self.calls["kernel.check_proof"],
            "kernel.check_proof.self_s": self_s("kernel.check_proof"),
            "kernel.check_proof.nodes": nodes,
            # each check_proof call from the driver certifies one script step
            "kernel.useful_ratio": self.calls["kernel.check_proof"] / nodes if nodes else 0.0,
            "subst.apply_subst.calls": self.calls["subst.apply_subst"],
            "subst.apply_subst.s": s("subst.apply_subst"),
            "subst.canonical.calls": self.calls["subst.canonical"],
            "subst.canonical.s": s("subst.canonical"),
            "term.alpha_eq.calls": self.calls["term.alpha_eq"],
            "term.alpha_eq.self_s": self_s("term.alpha_eq"),
            "term.to_debruijn.calls": self.calls["term.to_debruijn"],
            "term.to_debruijn.s": s("term.to_debruijn"),
            "term.check_wellformed.calls": self.calls["term.check_wellformed"],
            "term.check_wellformed.s": s("term.check_wellformed"),
            "term.free_vars.calls": self.calls["term.free_vars"],
            "algebra.find_models.calls": self.calls["algebra.find_models"],
            "algebra.find_models.s": s("algebra.find_models"),
            "algebra.find_models.models": self.counts["algebra.find_models.models"],
            "algebra.find_models.instances": self.counts["algebra.find_models.instances"],
            "algebra.all_tables.s": s("algebra.all_tables"),
            "algebra.check_model.calls": self.calls["algebra.check_model"],
            "algebra.check_model.s": s("algebra.check_model"),
            "algebra.check_model.valuations": self.counts["algebra.check_model.valuations"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["span", "parent", "request", "name",
                                            "start_ns", "end_ns"],
                                 "dropped": self.dropped}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def unit(metric: str) -> str:
    if metric.endswith((".s", "_s")):
        return "s"
    if metric in ("kernel.useful_ratio", "trace.overhead_share"):
        return "ratio"
    return "count"


def wrapped_attributes() -> list[str]:
    """Names of program-module attributes that are tracing wrappers now."""
    return [f"{m.__name__}.{attr}" for m in _program_modules()
            for attr, value in vars(m).items() if hasattr(value, _MARK)]
