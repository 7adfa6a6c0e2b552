"""The span-end proof that clusters' paths are finite, against the paths themselves.

`cli._proved_finite` reads two values per forest node and the drifts; only
when it fails does `cli._check_paths` scan every path value in print order.
The property: whenever the proof passes, every zeta and xi value is finite,
so the scan would have found nothing. It is checked on sampler draws,
benchmark-shape instances and near-overflow ones, with inf, NaN and huge
finite values injected into node positions, speeds and drifts. Each time
`_check_paths` must raise exactly where some value is not finite, with the
scan's own message.
"""

import json
import math

import numpy as np
import pytest

from shelyap import random_instance, validate_instance
from shelyap.cli import _check_paths, _proved_finite, main
from shelyap.clusters import _Paths, _simulate
from shelyap.errors import NonFiniteResult
from test_cluster_equivalence import random_shape

HALF_MAX = 2.0**1022
BAD = (math.inf, -math.inf, math.nan)
HUGE = (4e307, 5e307, 1e308, 1.7e308, 1e300, 1e10)


def all_finite(paths):
    """Whether every value that clusters prints from the paths is finite."""
    return all(np.isfinite(zeta).all() and np.isfinite(xi).all()
               for *_, zeta, xi in paths.chunks())


def scan(paths, interleave, monkeypatch):
    """The message of the ordered scan alone (the proof switched off), or None."""
    with monkeypatch.context() as m:
        m.setattr("shelyap.cli._proved_finite", lambda paths: False)
        try:
            _check_paths(paths, interleave)
        except NonFiniteResult as e:
            return str(e)
    return None


def check(paths, monkeypatch):
    """The property on one view; returns whether the proof passed."""
    proved = _proved_finite(paths)
    finite = all_finite(paths)
    assert finite or not proved
    for interleave in (False, True):
        want = scan(paths, interleave, monkeypatch)
        assert (want is None) == finite
        try:
            _check_paths(paths, interleave)
            got = None
        except NonFiniteResult as e:
            got = str(e)
        assert got == want
    return proved


def near_overflow(rng):
    """Locations near the float range's ends, horizons near 1e-300 or 1e300."""
    n = int(rng.integers(1, 7))
    t = float(rng.choice([1e-300, 3e-300, 1.0, 1e300, 1.7e300]))
    lo = float(rng.choice([-1.7e308, -1e308, -1.0]))
    hi = float(rng.choice([1.0, 1e308, 1.7e308]))
    x = np.unique(rng.uniform(lo / 2, hi / 2, n) * 2)  # hi - lo may overflow
    return validate_instance(t, x.tolist(), rng.integers(1, 1000, len(x)).tolist())


def corpus(rng):
    for _ in range(300):
        yield random_instance(rng)
    for n in (100, 250, 400):
        yield random_shape(rng, n)
    for _ in range(200):
        yield near_overflow(rng)


def spoil(paths, rng):
    """One node's position, speed or drift set to inf, NaN or a huge value."""
    field = ("position", "speed", "node_drift")[rng.integers(3)]
    values = BAD + HUGE + tuple(-v for v in HUGE)
    getattr(paths, field)[rng.integers(len(paths.parent))] = values[rng.integers(len(values))]


def test_proof_passes_only_where_every_value_is_finite(monkeypatch):
    rng = np.random.default_rng(34)
    proved = spoiled = 0
    with np.errstate(all="ignore"):
        for inst in corpus(rng):
            run = _simulate(inst)
            proved += check(_Paths(run, inst.t), monkeypatch)
            for _ in range(3):
                paths = _Paths(run, inst.t)
                spoil(paths, rng)
                spoiled += not all_finite(paths)
                check(paths, monkeypatch)
    # the proof settles the sampler and benchmark draws, and the corpus
    # holds values that are not finite for the scan to find
    assert proved >= 303
    assert spoiled >= 300


@pytest.mark.parametrize("rows", [1, 16])
def test_scan_names_the_first_non_finite_value_in_print_order(monkeypatch, rows):
    # one row a chunk or all rows in one: the proof fails on the injected
    # values, and the scan names zeta's inf before xi's nan in JSON order,
    # and row 1's nan first in CSV order
    monkeypatch.setattr(_Paths, "ROWS", rows)
    monkeypatch.setattr(_Paths, "VALUES", 1)
    inst = validate_instance(1.0, [0.0, 1.0, 2.0, 3.0, 10.0, 20.0], [1] * 6)
    paths = _Paths(_simulate(inst), inst.t)
    paths.node_drift[0] = math.inf
    paths.speed[4] = math.inf
    assert not _proved_finite(paths)
    for interleave, name in ((False, "inf"), (True, "nan")):
        with np.errstate(all="ignore"), pytest.raises(
                NonFiniteResult, match=f"^computed value {name} is not finite$"):
            _check_paths(paths, interleave)


def one_point(position, drift):
    """n = 1 on the grid [0, 1], speed 0: zeta is position and xi(1) is
    position - drift."""
    paths = _Paths(_simulate(validate_instance(1.0, [0.0], [1])), 1.0)
    paths.position[0] = position
    paths.node_drift[0] = drift
    return paths


def test_proof_bound_is_2_to_the_1022():
    # at 2^1022 both terms prove xi finite; xi(1) is 2^1023
    assert _proved_finite(one_point(HALF_MAX, -HALF_MAX))
    assert _proved_finite(one_point(-HALF_MAX, HALF_MAX))
    above = np.nextafter(HALF_MAX, math.inf)
    assert not _proved_finite(one_point(above, 0.0))
    assert not _proved_finite(one_point(0.0, above))
    # at 2^1023 xi(1) = 2^1023 + 2^1023 overflows, and the scan finds it
    paths = one_point(2.0**1023, -(2.0**1023))
    assert not _proved_finite(paths)
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteResult, match="^computed value inf is not finite$"):
        _check_paths(paths, interleave=False)


def test_proof_reads_each_span_last_value():
    # speed 1e10 over [0, 1e300] takes zeta from 0 to inf; the first
    # value, the position, is 0
    paths = _Paths(_simulate(validate_instance(1e300, [0.0], [1])), 1e300)
    paths.speed[0] = 1e10
    with np.errstate(all="ignore"):
        assert not _proved_finite(paths)
        assert not all_finite(paths)
    # location 3 meets the merged (1, 2) at the grid's third time, so its
    # span, columns 0 and 1, is neither its first nor a root's: an inf speed
    # shows in its last value only
    inst = validate_instance(5.0, [0.0, 0.5, 3.0], [1, 1, 1])
    paths = _Paths(_simulate(inst), inst.t)
    assert paths.size[2] == 2 and paths.parent[2] >= 0
    assert _proved_finite(paths)
    paths.speed[2] = math.inf
    with np.errstate(all="ignore"):
        assert not _proved_finite(paths)
        assert not all_finite(paths)


def test_proof_fails_on_a_decreasing_grid():
    # location 3 never meets (1, 2), so its span is the whole grid. On a
    # grid that turns back, the ends of that span and every drift term are
    # small, while its middle value overflows
    inst = validate_instance(1.0, [0.0, 0.5, 100.0], [1, 1, 1])
    paths = _Paths(_simulate(inst), inst.t)
    assert paths.size[2] == len(paths.grid) == 3
    paths.grid[1] = 1e308
    paths.speed[2] = -10.0
    paths.node_drift[:] = 0.0
    assert not _proved_finite(paths)
    with np.errstate(all="ignore"), pytest.raises(
            NonFiniteResult, match="^computed value -inf is not finite$"):
        _check_paths(paths, interleave=False)


def test_proof_holds_on_a_grid_with_equal_times():
    # every location merges at s = 0, so the grid repeats 0
    inst = validate_instance(1.0, [0.0, 5e-324, 1e-323], [3, 3, 3])
    paths = _Paths(_simulate(inst), inst.t)
    assert paths.grid[0] == paths.grid[1] == 0.0
    assert _proved_finite(paths)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_clusters_prints_where_the_proof_fails_but_every_value_is_finite(capsys, fmt):
    # |x| = 1e308 is past 2^1022, so the scan runs, and finds every value finite
    inst = validate_instance(1.0, [-1e308, 1e308], [1, 1])
    paths = _Paths(_simulate(inst), inst.t)
    assert not _proved_finite(paths)
    assert all_finite(paths)
    code = main(["clusters", "--t", "1", "--x=-1e308,1e308", "--m", "1,1", "--format", fmt])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    if fmt == "json":
        doc = json.loads(out)
        assert doc["zeta"] == [[-1e308, -1e308 + 0.5], [1e308, 1e308 - 0.5]]
        assert doc["xi"][0][-1] == 0.0
    else:
        assert out.splitlines()[1] == "1,0,-1e+308,-1e+308"
