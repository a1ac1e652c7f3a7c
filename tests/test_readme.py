"""README's Python examples run as written and print what they say.

The ``python`` blocks run in order in one namespace, and every line of the
form ``expr  # value`` (the value up to an optional `` — `` remark) must
evaluate to that value.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_examples_evaluate_to_their_comments():
    namespace = {}
    checked = []
    for block in python_blocks():
        exec(block, namespace)
        for line in block.splitlines():
            expr, sep, comment = line.partition("  # ")
            if sep:
                expected = ast.literal_eval(comment.split(" — ")[0].strip())
                assert eval(expr, namespace) == expected, line
                checked.append(expected)
    assert checked == [9, [0, 0, 0, 1], "t", "1 + 3t + 2t^2", True]
