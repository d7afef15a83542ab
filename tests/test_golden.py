"""`abslog check` and `model-check` print byte for byte what they printed
when the outputs in tests/data/golden.json were recorded: stdout, stderr
and the exit code of each run, on the shipped corpus, on every
tests/data/bad_*.al file (a failed proof step, a bad character after a
comment in a CRLF file, a parse error inside a step, a model block with a
bad row) and on the model blocks of bad_row.al.

To record the outputs again, from the root of the repository:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent
GOLDEN = Path(__file__).parent / "data" / "golden.json"
_FILES = ["src/abslog/corpus/peano.al", "src/abslog/corpus/prelude_k.al",
          *sorted(p.relative_to(ROOT).as_posix()
                  for p in (ROOT / "tests" / "data").glob("bad_*.al"))]
RUNS = ([["check", path, *flags] for path in _FILES for flags in ([], ["--json"])]
        + [["model-check", "tests/data/bad_row.al", "--model", model, *flags]
           for model in ("two", "bad") for flags in ([], ["--json"])])


def run(argv: list[str]) -> dict:
    """stdout, stderr and the exit code of `abslog` on argv, run in-process
    from the root of the repository."""
    from abslog.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": code}


def test_outputs_match_the_recorded_ones(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert list(golden) == [" ".join(argv) for argv in RUNS]
    assert "\r\n" in (ROOT / "tests/data/bad_char_crlf.al").read_bytes().decode()
    for argv in RUNS:
        assert run(argv) == golden[" ".join(argv)], argv


if __name__ == "__main__":
    import os
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    GOLDEN.write_text(json.dumps({" ".join(argv): run(argv) for argv in RUNS},
                                 ensure_ascii=False, indent=1) + "\n",
                      encoding="utf-8")
