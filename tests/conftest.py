import os

# One BLAS thread, set before numpy loads (as `import dtst` does), unless the
# caller has set a count: the suite's arrays are small, and the benchmark
# trainings run on two processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from dtst.evaluate import rank_gallery

VERDICTS = []


def per_query_ranks(ranked):
    """`rank_gallery`'s `(ranks, counts)` cut into one list per target (each
    gallery part, then the whole gallery) of each query's list of ranks."""
    ranks, counts = ranked
    assert counts.dtype == np.int64 and len(ranks) == counts.sum()
    lists = [r.tolist() for r in np.split(ranks, np.cumsum(counts.ravel())[:-1])]
    n = counts.shape[1]
    return [lists[t * n:(t + 1) * n] for t in range(len(counts))]


def whole_gallery_ranks(queries, query_ids, gallery, gallery_ids):
    """Each query's list of ranks in `gallery`, ranked as the one part
    `(gallery, ids, arange(G))` of itself; the part's ranks must be the
    whole gallery's."""
    part, whole = per_query_ranks(
        rank_gallery(queries, query_ids, [(gallery, gallery_ids, np.arange(len(gallery)))]))
    assert part == whole
    return whole


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
