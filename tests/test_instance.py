import json

import numpy as np
import pytest

from shelyap import (
    LengthMismatch,
    NonPositiveMultiplicity,
    NonPositiveTime,
    ShelyapError,
    UnsortedLocations,
    flatten,
    gamma2_objective,
    random_instance,
    validate_instance,
)
from shelyap.sampling import MIN_GAP, sample_matching


def gamma1_objective(inst, a):
    """Route-1 objective sum_k (t/2) a_k^2 + u_k a_k, as solve_gamma1 sums it."""
    a = np.asarray(a, dtype=float)
    if a.shape != (inst.nu,):
        raise LengthMismatch(f"expected {inst.nu} coordinates, got {a.shape}")
    return float(np.sum(0.5 * inst.t * a * a + flatten(inst) * a))


def test_validate_accepts_and_freezes():
    inst = validate_instance(2, [0, 0.5], [1, 3])
    assert inst.t == 2.0
    assert inst.x == (0.0, 0.5)
    assert inst.m == (1, 3)
    assert inst.n == 2
    assert inst.nu == 4


def test_validate_rejections():
    with pytest.raises(NonPositiveTime):
        validate_instance(0.0, [0.0], [1])
    with pytest.raises(NonPositiveTime):
        validate_instance(-1.0, [0.0], [1])
    with pytest.raises(UnsortedLocations):
        validate_instance(1.0, [0.5, 0.0], [1, 1])
    with pytest.raises(UnsortedLocations):
        validate_instance(1.0, [0.5, 0.5], [1, 1])
    # ints past the float range
    with pytest.raises(NonPositiveTime):
        validate_instance(10**400, [0.0], [1])
    with pytest.raises(UnsortedLocations):
        validate_instance(1.0, [0, 10**400], [1, 1])
    with pytest.raises(NonPositiveMultiplicity):
        validate_instance(1.0, [0.0], [0])
    with pytest.raises(NonPositiveMultiplicity):
        validate_instance(1.0, [0.0], [1.5])
    with pytest.raises(NonPositiveMultiplicity):
        validate_instance(1.0, [0.0], [True])
    for bad in (float("inf"), float("nan"), np.float64(2.5), "2"):
        with pytest.raises(NonPositiveMultiplicity):
            validate_instance(1.0, [0.0], [bad])
    with pytest.raises(LengthMismatch):
        validate_instance(1.0, [0.0, 1.0], [1])
    with pytest.raises(LengthMismatch):
        validate_instance(1.0, [], [])


@pytest.mark.parametrize("t", [float("inf"), np.float64("inf"), json.loads("1e400")])
def test_infinite_horizon_is_a_time_error(t):
    # JSON reads 1e400 as inf; a non-finite location stays a location error
    with pytest.raises(NonPositiveTime, match="must be finite"):
        validate_instance(t, [0.0, 1.0], [1, 1])
    with pytest.raises(UnsortedLocations, match="must be finite"):
        validate_instance(1.0, [0.0, t], [1, 1])


def test_flatten_examples():
    u = flatten(validate_instance(1.0, [0.0, 0.5], [1, 1]))
    assert u.tolist() == [0.0, 0.5]

    u = flatten(validate_instance(1.0, [0.0, 0.5], [2, 1]))
    assert u.tolist() == [0.0, 0.0, 0.5]

    u = flatten(validate_instance(3.0, [-1.0], [5]))
    assert u.tolist() == [-1.0] * 5
    assert u.dtype == np.float64
    assert not u.flags.writeable


def test_flatten_refuses_nu_above_its_cap():
    with pytest.raises(NonPositiveMultiplicity, match="16777217 exceeds the 16777216"):
        flatten(validate_instance(1.0, [0.0, 1.0], [2**23, 2**23 + 1]))


def test_flatten_roundtrip_recovers_instance():
    rng = np.random.default_rng(11)
    for _ in range(100):
        inst = random_instance(rng)
        u = flatten(inst)
        assert len(u) == inst.nu
        # locations are strictly increasing, so each run of equal u is one
        # location and its length the multiplicity
        xs, ms = [], []
        for v in u.tolist():
            if xs and xs[-1] == v:
                ms[-1] += 1
            else:
                xs.append(v)
                ms.append(1)
        assert tuple(xs) == inst.x
        assert tuple(ms) == inst.m
        assert u.tolist() == sorted(u.tolist())


def test_objective_values_hand_checked():
    inst = validate_instance(1.0, [0.0, 0.5], [1, 1])
    assert gamma1_objective(inst, [0.25, -0.75]) == -0.0625
    assert gamma2_objective(inst, [0.25, -0.75]) == -0.0625

    one = validate_instance(1.0, [0.0], [1])
    assert gamma1_objective(one, [0.0]) == 0.0
    assert gamma2_objective(one, [0.0]) == 0.0

    two = validate_instance(1.0, [0.0], [2])
    assert gamma2_objective(two, [0.0]) == 0.25

    wide = validate_instance(1.0, [0.0, 2.0], [1, 1])
    assert gamma1_objective(wide, [0.0, -2.0]) == -2.0
    assert gamma2_objective(wide, [0.0, -2.0]) == -2.0


def test_objective_length_checks():
    inst = validate_instance(1.0, [0.0, 0.5], [2, 1])
    with pytest.raises(LengthMismatch):
        gamma1_objective(inst, [0.0, 0.0])
    with pytest.raises(LengthMismatch):
        gamma2_objective(inst, [0.0, 0.0, 0.0])


def test_objectives_strictly_convex():
    # midpoint value strictly below the chord for distinct points
    rng = np.random.default_rng(5)
    for _ in range(50):
        inst = random_instance(rng)
        lam = rng.uniform(0.1, 0.9)
        a1 = rng.normal(size=inst.nu)
        a2 = a1 + rng.normal(size=inst.nu) * 0.5
        mid = gamma1_objective(inst, lam * a1 + (1 - lam) * a2)
        chord = lam * gamma1_objective(inst, a1) + (1 - lam) * gamma1_objective(
            inst, a2
        )
        assert mid < chord

        b1 = rng.normal(size=inst.n)
        b2 = b1 + rng.normal(size=inst.n) * 0.5
        mid = gamma2_objective(inst, lam * b1 + (1 - lam) * b2)
        chord = lam * gamma2_objective(inst, b1) + (1 - lam) * gamma2_objective(inst, b2)
        assert mid < chord


def test_sample_matching_stops_at_the_draw_that_completes_the_count(monkeypatch):
    monkeypatch.setattr("shelyap.sampling.MAX_DRAWS", 20)
    # the 20th and last allowed draw completes the count, and draws stop
    # there: the generator is where 20 plain draws leave it
    rng, plain = np.random.default_rng(0), np.random.default_rng(0)
    assert sample_matching(rng, lambda i: True, 20) == [random_instance(plain) for _ in range(20)]
    assert rng.bit_generator.state == plain.bit_generator.state
    assert sample_matching(np.random.default_rng(0), lambda i: True, 0) == []
    with pytest.raises(ShelyapError, match="only 20/21 matching instances in 20 draws"):
        sample_matching(np.random.default_rng(0), lambda i: True, 21)


def array_random_instance(rng):
    """The sampler with its gap test on arrays, as it was first written."""
    t = float(rng.uniform(0.1, 5.0))
    n = int(rng.integers(1, 7))
    m = [int(v) for v in rng.integers(1, 6, size=n)]
    while True:
        x = np.sort(rng.uniform(-3.0, 3.0, size=n))
        if n == 1 or np.min(np.diff(x)) >= 1e-3:
            break
    return validate_instance(t, x, m)


@pytest.mark.parametrize("seed", range(5))
def test_random_instance_matches_the_array_sampler(seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2000):
        assert random_instance(rng) == array_random_instance(ref)
    assert rng.random() == ref.random()


class GivenDraws:
    """A generator that draws t = 1, n = 2, m = (1, 1) and the given location pairs."""

    def __init__(self, *pairs):
        self.pairs = list(pairs)

    def uniform(self, low, high, size=None):
        return 1.0 if size is None else np.array(self.pairs.pop(0))

    def integers(self, low, high, size=None):
        return 2 if size is None else np.ones(size, dtype=int)


def test_random_instance_keeps_a_gap_of_exactly_min_gap():
    assert random_instance(GivenDraws([MIN_GAP, 0.0])).x == (0.0, MIN_GAP)
    narrow = GivenDraws([0.0, np.nextafter(MIN_GAP, 0.0)], [1.0, 0.0])
    assert random_instance(narrow).x == (0.0, 1.0)
