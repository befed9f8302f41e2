import os

# One BLAS thread, set before numpy loads (as `import dtst` does), unless the
# caller has set a count: the suite's arrays are small, and the benchmark
# trainings run on two processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import pytest

VERDICTS = []


@pytest.fixture(scope="session")
def verdicts():
    """Shared list of acceptance-criterion verdict lines."""
    return VERDICTS


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criterion verdict lines into the terminal report."""
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
