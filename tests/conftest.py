import os
import resource
import sys
from pathlib import Path

import numpy
import pytest
import scipy

SRC = Path(__file__).resolve().parent.parent / "src" / "syndatum"


@pytest.fixture
def pools(monkeypatch):
    """The harness process pools created while the test runs."""
    import syndatum.harness

    created = []

    class CountedPool(syndatum.harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(syndatum.harness, "ProcessPoolExecutor", CountedPool)
    return created


def pytest_report_header(config):
    """The versions and BLAS thread settings the byte pins depend on: the
    toy-6.1 pin holds only at the default BLAS thread count."""
    threads = ", ".join(
        f"{name}={os.environ.get(name, 'unset')}" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    )
    return f"numpy {numpy.__version__}, scipy {scipy.__version__}, {threads}"


def _peak_rss_mb(who) -> float:
    # getrusage reports the peak in KiB on Linux and in bytes on macOS
    return resource.getrusage(who).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, config):
    """Report the size of the package, the line count ROADMAP.md tracks, the
    peak RSS of the pytest process and of its largest finished child (a pool
    worker or a CLI subprocess), so a memory regression shows, and repeat the
    header line, which ``-q`` hides."""
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    terminalreporter.write_line(
        f"src/syndatum/*.py: {lines} lines; peak RSS {_peak_rss_mb(resource.RUSAGE_SELF):.1f} MB, "
        f"children {_peak_rss_mb(resource.RUSAGE_CHILDREN):.1f} MB"
    )
    terminalreporter.write_line(pytest_report_header(config))
