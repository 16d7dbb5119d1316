"""Ground-truth parsing and Rand-Index dissimilarity scoring."""

import io

import numpy as np
import pytest

from msseg.errors import DimensionError, MeshFormatError
from msseg.evaluation import (
    mean_dissimilarity,
    parse_seg,
    rand_index_dissimilarity,
)


def brute_force_dissimilarity(a, b):
    n = len(a)
    agreements = 0
    for i in range(n):
        for j in range(i + 1, n):
            if (a[i] == a[j]) == (b[i] == b[j]):
                agreements += 1
    return 100.0 * (1.0 - agreements / (n * (n - 1) / 2))


# -- parsing -------------------------------------------------------------------


def test_parse_seg_basic():
    assert np.array_equal(parse_seg("0\n0\n1\n"), [0, 0, 1])


def test_parse_seg_empty():
    assert parse_seg("").shape == (0,)


def test_parse_seg_repeated_label():
    assert np.array_equal(parse_seg("7\n" * 10), [7] * 10)


def test_parse_seg_bytes_and_blank_lines():
    assert np.array_equal(parse_seg(b"1\n\n 2 \n"), [1, 2])


def test_parse_seg_reads_a_file_object():
    data = b"1\n\n 2 \n0\r\n"
    want = parse_seg(data)
    assert np.array_equal(parse_seg(io.BytesIO(data)), want)
    assert np.array_equal(parse_seg(io.StringIO(data.decode())), want)


def test_parse_seg_drops_a_byte_order_mark():
    assert parse_seg(b"\xef\xbb\xbf0\n1\n").tolist() == [0, 1]


def test_parse_seg_bad_line_reports_number():
    with pytest.raises(MeshFormatError, match="line 2"):
        parse_seg("0\nseven\n1\n")


@pytest.mark.parametrize("label", ["9223372036854775808",
                                   "-9223372036854775809", "9" * 30])
def test_parse_seg_label_beyond_int64_names_its_line(label):
    with pytest.raises(MeshFormatError, match="^line 3: bad label line$"):
        parse_seg(f"0\n1\n{label}\n1\n")
    bounds = ["9223372036854775807", "-9223372036854775808"]
    assert parse_seg("\n".join(bounds)).tolist() == [2**63 - 1, -2**63]


# as the face indices of test_mesh, under a command-line run's filters
@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("label", ["1.5", "2.0", "9223372036854775808"])
def test_label_not_an_int64_is_rejected_under_default_warnings(label):
    with pytest.raises(MeshFormatError, match="^line 2: bad label line$"):
        parse_seg(f"0\n{label}\n1\n")


# -- rand index ----------------------------------------------------------------


def test_identical_labelings_score_zero():
    a = np.array([0, 1, 2, 1, 0, 2])
    assert rand_index_dissimilarity(a, a) == 0.0


def test_label_permutation_scores_zero():
    a = np.array([0, 0, 1, 1, 2])
    b = np.array([5, 5, 9, 9, 1])
    assert rand_index_dissimilarity(a, b) == 0.0


def test_worked_four_face_case():
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 1, 0, 1])
    got = rand_index_dissimilarity(a, b)
    assert got == pytest.approx(66.67, abs=0.01)


def test_symmetry():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 4, size=30)
    b = rng.integers(0, 3, size=30)
    assert rand_index_dissimilarity(a, b) == rand_index_dissimilarity(b, a)


def test_matches_brute_force_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(2, 60))
        a = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        b = rng.integers(0, int(rng.integers(1, 6)) + 1, size=n)
        assert rand_index_dissimilarity(a, b) == pytest.approx(
            brute_force_dissimilarity(a, b), abs=1e-10
        )


def test_range_bounds():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 5, size=40)
        b = rng.integers(0, 5, size=40)
        assert 0.0 <= rand_index_dissimilarity(a, b) <= 100.0


def test_zero_iff_identical_partition():
    a = np.array([0, 0, 1, 2])
    b = np.array([0, 1, 1, 2])  # different partition
    assert rand_index_dissimilarity(a, b) > 0.0


def test_length_mismatch_and_too_short():
    with pytest.raises(DimensionError):
        rand_index_dissimilarity([0, 1], [0, 1, 2])
    with pytest.raises(DimensionError):
        rand_index_dissimilarity([0], [1])


def test_mean_dissimilarity():
    pred = np.array([0, 0, 1, 1])
    t1 = np.array([0, 0, 1, 1])
    t2 = np.array([0, 1, 0, 1])
    mean, scores = mean_dissimilarity(pred, [t1, t2])
    assert scores[0] == 0.0
    assert scores[1] == pytest.approx(66.6667, abs=0.001)
    assert mean == pytest.approx(np.mean(scores))
