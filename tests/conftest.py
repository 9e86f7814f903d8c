from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "syndatum"


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter):
    """Report the size of the package, the line count ROADMAP.md tracks."""
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    terminalreporter.write_line(f"src/syndatum/*.py: {lines} lines")
