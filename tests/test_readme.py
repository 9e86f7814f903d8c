"""The README's library quick tour runs against the current API."""

import math
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    """The first ```python block under the "Library quick tour" heading."""
    text = README.read_text()
    text = text[text.index("## Library quick tour"):]
    start = text.index("```python\n") + len("```python\n")
    return text[start:text.index("```", start)]


def test_library_quick_tour_prints_a_finite_utility(capsys):
    exec(compile(_tour(), str(README), "exec"), {})
    utility = float(capsys.readouterr().out.split()[-1])
    assert math.isfinite(utility) and utility >= 0.0
