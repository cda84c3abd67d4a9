import pytest

from cherloc import Box, Multipartition, boxes, enumerate_multipartitions, relevant_boxes


def count_oracle(ell: int, n: int) -> int:
    """Coefficient of q^n in prod_k (1 - q^k)^(-ell), by convolution."""
    single = [0] * (n + 1)
    single[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            single[total] += single[total - part]
    counts = [1] + [0] * n
    for _ in range(ell):
        counts = [
            sum(counts[k] * single[total - k] for k in range(total + 1))
            for total in range(n + 1)
        ]
    return counts[n]


def test_counts_match_generating_function_oracle():
    for ell in range(1, 5):
        for n in range(0, 9):
            assert len(enumerate_multipartitions(ell, n)) == count_oracle(ell, n)


def test_known_counts():
    assert len(enumerate_multipartitions(2, 2)) == 5
    assert len(enumerate_multipartitions(1, 5)) == 7


def test_enumeration_is_canonical_descending_lex():
    labels = enumerate_multipartitions(2, 2)
    assert [mp.to_json() for mp in labels] == [
        [[2], []],
        [[1, 1], []],
        [[1], [1]],
        [[], [2]],
        [[], [1, 1]],
    ]


def test_enumeration_sorted_and_duplicate_free():
    for ell, n in [(1, 6), (2, 4), (3, 3)]:
        labels = [mp.parts for mp in enumerate_multipartitions(ell, n)]
        assert labels == sorted(labels, reverse=True)
        assert len(set(labels)) == len(labels)


def test_single_empty_multipartition():
    labels = enumerate_multipartitions(1, 0)
    assert len(labels) == 1 and labels[0].parts == ((),)


def test_multipartition_validation():
    with pytest.raises(ValueError):
        Multipartition(((1, 2),))
    with pytest.raises(ValueError):
        Multipartition(((0,),))


@pytest.mark.parametrize("row", [1.5, 2.0, True, "2", None])
def test_multipartition_refuses_rows_that_are_not_ints(row):
    with pytest.raises(ValueError, match="rows must be integers"):
        Multipartition.from_json([[row]])
    with pytest.raises(ValueError, match="rows must be integers"):
        Multipartition(((3, row),))


def test_multipartition_json_round_trip():
    mp = Multipartition(((2, 1), (), (3,)))
    assert Multipartition.from_json(mp.to_json()) == mp
    assert mp.ell == 3 and mp.n == 6


def test_boxes_order_and_content_coordinates():
    mp = Multipartition(((2, 1), (1,)))
    assert boxes(mp) == [
        Box(1, 1, 0),
        Box(1, 2, 0),
        Box(2, 1, 0),
        Box(1, 1, 1),
    ]


def test_relevant_boxes_examples():
    assert relevant_boxes(2, 1) == [Box(1, 1, 0), Box(1, 1, 1)]
    assert len(relevant_boxes(1, 2)) == 4


def test_boxes_contained_in_relevant_grid():
    for ell, n in [(1, 4), (2, 3), (3, 2)]:
        grid = set(relevant_boxes(ell, n))
        for mp in enumerate_multipartitions(ell, n):
            assert set(boxes(mp)) <= grid
