"""The README's Python examples run as written, in order, in one namespace
(the second block uses names the first one defines), and its JSON model is
the one shipped as tests/data/two.json."""
import json
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].passed
    assert type(namespace["thm"]).__name__ == "Theorem"


def test_readme_json_model_is_the_shipped_one():
    # the first JSON block is the model file CI checks, tests/data/two.json
    block = re.search(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"),
                      re.S | re.M).group(1)
    shipped = Path(__file__).parent / "data" / "two.json"
    assert json.loads(block) == json.loads(shipped.read_text(encoding="utf-8"))
