import os

# One BLAS thread, set before numpy loads (as `import dtst` does), unless the
# caller has set a count: the suite's arrays are small, and the benchmark
# trainings run on two processes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from dtst import tensor as T
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


def kernel_op(fwd, bwd):
    """A Tensor op made of one of `dtst.tensor`'s private forward/backward
    kernel pairs: `op(*tensors, *static)` runs `fwd` on the tensors' arrays
    and the static arguments and, when a tape records, records one entry
    whose backward is `bwd`."""
    def op(*args):
        tensors = [a for a in args if isinstance(a, T.Tensor)]
        tracked = T._tracking(*tensors)
        out, saved = fwd(*(t.data for t in tensors), *args[len(tensors):], tracked)
        if not tracked:
            return T.Tensor(out)
        return T.make(out, tensors, lambda g: bwd(g, saved))
    return op


# attention(x, w_qkv, b_qkv, w_o, b_o, num_heads) and mlp(x, w1, b1, w2, b2),
# the two halves of `tensor.encoder_block`, and normalize(x), its LayerNorm
# without scale and shift, each as one tape entry
attention = kernel_op(T._attention_fwd, T._attention_bwd)
mlp = kernel_op(T._mlp_fwd, T._mlp_bwd)
normalize = kernel_op(T._layer_norm_fwd, lambda g, saved: (T._layer_norm_bwd(g.copy(), saved),))


def fold_affine(gamma, beta, w, b):
    """`tensor._fold_affine` of four Tensors as two tape entries, the folded
    weight diag(gamma) w and the folded bias beta w + b."""
    w_f, b_f = T._fold_affine(gamma.data, beta.data, w.data, b.data)
    return (T.make(w_f, (gamma, w), lambda g: (np.einsum("ij,ij->i", g, w.data),
                                               gamma.data[:, None] * g)),
            T.make(b_f, (beta, w, b), lambda g: (w.data @ g, beta.data[:, None] * g, g)))


def block_inputs(rng, b, t, d, hidden):
    """Arrays for `tensor.encoder_block`'s 13 tensors: x [b, t, d] and
    parameters of a d-wide block with a hidden width of `hidden`."""
    shapes = [(b, t, d), (d,), (d,), (d, 3 * d), (3 * d,), (d, d), (d,), (d,), (d,),
              (d, hidden), (hidden,), (hidden, d), (d,)]
    arrays = [rng.normal(size=s) for s in shapes]
    for i in (3, 5, 9):  # the weights feeding a d-wide sum
        arrays[i] *= 0.5
    arrays[11] *= 0.25  # w2 feeds a sum over the hidden width
    for i in (1, 6):  # the LayerNorms' scales, about 1
        arrays[i] = 1.0 + 0.1 * arrays[i]
    return arrays


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
