"""Ground-truth parsing and Rand-Index scoring of face labelings.

Scores follow the segmentation-benchmark convention: the reported value
is ``100 * (1 - RI)``, so smaller is better and identical partitions
score 0.
"""

import numpy as np

from .errors import DimensionError
from .mesh import _as_text, _records, _table


def parse_seg(source):
    """Parse a .seg stream (text, bytes or a file object, decoded as by
    ``load_off``): one integer label per line, line i is the label of face
    i, walked by ``mesh._records`` with blanks skipped and no ``#`` cut.
    The kept lines go whole into one conversion (``int()`` ignores the
    blanks around a label, rejects a second token or a ``#``): a line that
    is not one int64 integer raises ``MeshFormatError`` naming it."""
    numbers, lines = _records(_as_text(source), comments=False)
    return _table(lines, numbers, None, np.int64, "label")[:, 0]


def rand_index_dissimilarity(a, b):
    """Pairwise partition disagreement, in [0, 100].

    Computed from per-label pair counts (contingency table), which equals
    the O(N^2) brute force over all face pairs.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError(f"labelings differ in length: {a.shape} vs {b.shape}")
    n = len(a)
    if n < 2:
        raise DimensionError("need at least 2 faces to compare partitions")

    def pairs(x):
        return x * (x - 1) // 2

    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    cont = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(cont, (ai, bi), 1)
    same_both = pairs(cont).sum()
    same_a = pairs(cont.sum(axis=1)).sum()
    same_b = pairs(cont.sum(axis=0)).sum()
    total = pairs(np.int64(n))
    agreements = total + 2 * same_both - same_a - same_b
    return 100.0 * (1.0 - agreements / total)


def mean_dissimilarity(pred, truths):
    """Mean score of one labeling against several ground truths."""
    scores = [rand_index_dissimilarity(pred, t) for t in truths]
    return float(np.mean(scores)), scores
