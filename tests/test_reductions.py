"""Reduction prober: the eleven specializations of the general polynomial."""

import random
from fractions import Fraction as F

import pytest

from qhyper.reductions import check_item
from qhyper.verify import sample_reduction_params

FIXED_SAMPLE = {
    "a": F(2, 7),
    "b": F(-1, 3),
    "c": F(1, 5),
    "d": F(-2, 9),
    "e": F(3, 11),
    "x": F(1, 2),
    "y": F(-2, 5),
    "z": F(3, 4),
}
Q = F(1, 2)


@pytest.mark.parametrize("item", range(1, 12))
def test_every_item_terminates_definitively(item):
    row_id, deviation, scale, _ = check_item(item, FIXED_SAMPLE, Q, n_max=6)
    assert row_id == f"remark2:item{item:02d}"
    assert scale == 1
    assert deviation == 0


@pytest.mark.parametrize("item", (1, 2, 3, 5, 11))
def test_clean_items_pass_without_correction(item):
    notes = check_item(item, FIXED_SAMPLE, Q, n_max=6)[3]
    assert "fails" not in notes or "printed" in notes


@pytest.mark.parametrize("item", (7, 8, 9, 10))
def test_corrected_items_record_the_stated_residual(item):
    notes = check_item(item, FIXED_SAMPLE, Q, n_max=6)[3]
    assert "residual" in notes
    assert "corrected" in notes or "reading" in notes


def test_item3_notes_distinguish_readings():
    notes = check_item(3, FIXED_SAMPLE, Q, n_max=6)[3]
    assert "substitution-list" in notes
    assert "printed argument order" in notes  # the display variant fails


def test_unknown_item_rejected():
    with pytest.raises(ValueError):
        check_item(12, FIXED_SAMPLE, Q)


def test_sampler_avoids_degeneracies():
    rng = random.Random(7)
    for _ in range(25):
        sample, q = sample_reduction_params(rng)
        assert sample["x"] != 0
        assert sample["a"] != 0
        assert sample["x"] != sample["y"]
        assert all(sample[k] != 1 for k in "cde")
        assert 0 < q < 1


def test_sampler_deterministic():
    assert sample_reduction_params(random.Random(3)) == sample_reduction_params(
        random.Random(3)
    )
