"""Reduction prober: the eleven specializations of the general polynomial."""

import random
from fractions import Fraction as F

import pytest

from qhyper import reductions, verify
from qhyper.families import VanishingPochhammerError, psi_sweep
from qhyper.reductions import check_item
from qhyper.verify import RunConfig, run_suite, sample_reduction_params

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


def per_n_psi(x, y, z, pv, q):
    """The reading's Psi_n from one `psi_sweep` per n."""
    return lambda n: psi_sweep(x, y, z, pv, q)(n)


def outcome(item, sample, q, n_max):
    try:
        return check_item(item, sample, q, n_max)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n_max", [1, 7, 20])
def test_every_reading_gives_with_one_sweep_what_psi_general_per_n_gives(monkeypatch, n_max):
    """Seeded samples at q of both signs; fewer of them at n_max = 20."""
    rng = random.Random(n_max)
    points = [(FIXED_SAMPLE, -Q)]
    for sign in (1, -1, 1)[: 3 if n_max < 20 else 1]:
        sample, q = sample_reduction_params(rng)
        points.append((sample, sign * q))
    for sample, q in points:
        for item in range(1, 12):
            swept = outcome(item, sample, q, n_max)
            with monkeypatch.context() as m:
                m.setattr(reductions, "psi_sweep", per_n_psi)
                assert outcome(item, sample, q, n_max) == swept, (item, q)


VANISHING = dict(FIXED_SAMPLE, c=F(8))  # (8;q)_4 = 0 at q = 1/2


def test_a_vanishing_lower_parameter_raises_at_the_same_k(monkeypatch):
    for item in (1, 2, 3):
        with pytest.raises(VanishingPochhammerError, match=r"^lower parameter 8 gives \(8;q\)_4 = 0$"):
            check_item(item, VANISHING, Q)
    monkeypatch.setattr(verify, "sample_reduction_params", lambda rng: (VANISHING, Q))
    [row] = run_suite("remark2", RunConfig(trials=1, seed=42))
    assert row.to_json_dict() == {
        "id": "remark2", "mode": "exact", "seed": 9259912084854192225, "trial": 0,
        "pass": False, "deviation_num": None, "deviation_den": None,
        "notes": "errored: lower parameter 8 gives (8;q)_4 = 0",
    }


def test_the_sampler_redraws_a_lower_parameter_that_vanishes():
    """At master seed 455267932 the first draw has q = 1/3 and e = 3 = q^-1,
    so (e;q)_2 = 0 at a true reduction: the sampler draws again, and every
    drawn c, d, e stays clear of q^-j, j < N_MAX."""
    rng = random.Random(verify.derive_seed(455267932, "remark2", 0))
    sample, q = sample_reduction_params(rng)
    assert all(
        sample[k] * q**j != 1 for k in "cde" for j in range(reductions.N_MAX)
    ), (sample, q)
    rows = run_suite("remark2", RunConfig(trials=1, seed=455267932))
    assert len(rows) == 11 and all(r.passed for r in rows)


#: item -> the family that its two readings compare against
SHARED_TARGETS = {3: "sa_psi", 7: "ext_psi5", 8: "hahn2_phi", 9: "hahn2_psi", 10: "asc_phi"}


@pytest.mark.parametrize("item", sorted(SHARED_TARGETS))
def test_a_target_shared_by_two_readings_is_formed_once_per_n(monkeypatch, item):
    """Both readings of the item read the same memoised target, so its
    family runs once for each n, and the row is what it was."""
    name = SHARED_TARGETS[item]
    original = getattr(reductions, name)
    made = []

    def record(n, *args):
        made.append(n)
        return original(n, *args)

    row = check_item(item, FIXED_SAMPLE, Q, n_max=6)
    monkeypatch.setattr(reductions, name, record)
    assert check_item(item, FIXED_SAMPLE, Q, n_max=6) == row
    assert made == list(range(7))
