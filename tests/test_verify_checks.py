"""Each verify check's failing branch: break one input and read the verdict."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import shelyap.cli
from shelyap import default_contour_config, gamma_report, random_instance, validate_instance
from shelyap.cli import (ANCHOR_TOL, COM_TOL, MOMENTUM_TOL, _check_oracle, _check_physics,
                         _check_recursion, _check_structure, _check_triple, _quadrature_checks)
from shelyap.closedform import RecursionCheck
from shelyap.clusters import _simulate, event_tolerance

# one merge: nodes 0 and 1 are the locations, node 2 their merge group
MERGED = validate_instance(1.0, [0.0, 0.5], [1, 1])
# two lone leaves, each its own block's root
APART = validate_instance(1.0, [0.0, 10.0], [1, 1])


def broken(monkeypatch, inst, field, node, value):
    """Make the physics check read a run whose field[node] is value."""
    run = _simulate(inst)
    column = list(getattr(run, field))
    column[node] = value
    monkeypatch.setattr(shelyap.cli, "_simulate", lambda _: run._replace(**{field: column}))


def test_physics_passes_the_unbroken_runs():
    assert _check_physics(MERGED) and _check_physics(APART)


@pytest.mark.parametrize("inst,field,node,value", [
    (MERGED, "speed", 2, 0.5),  # momentum: the group's speed is 0
    (MERGED, "position", 2, 1.0),  # meeting point: the pair meets at 0.25
    (APART, "speed", 0, 0.0),  # block speed: a lone leaf keeps its speed 0.5
    (APART, "position", 0, 20.0),  # terminal order: past its neighbour at 10
], ids=["momentum", "meeting-point", "block-speed", "terminal-order"])
def test_physics_fails_on_a_broken_run(monkeypatch, inst, field, node, value):
    broken(monkeypatch, inst, field, node, value)
    assert _check_physics(inst) is False


def test_physics_fails_on_a_negative_separation_margin(monkeypatch):
    # for adjacent blocks, the terminal gap equals the separation margin (each
    # block moves at its mean initial speed, and two adjacent means differ by
    # half their masses), so an honest run that passes the terminal-order check
    # has positive margins; only a broken margin reaches this branch
    monkeypatch.setattr(shelyap.cli, "separation_margins", lambda inst, partition: np.array([-1.0]))
    assert _check_physics(APART) is False


@pytest.mark.parametrize("change", [
    lambda sol: dataclasses.replace(sol, objective=sol.objective + 1e-6),
    lambda sol: dataclasses.replace(sol, values=sol.values + 1e-6),
], ids=["objective", "values"])
def test_oracle_fails_on_a_shifted_oracle(monkeypatch, change):
    inst = validate_instance(1.0, [0.0, 0.5, 3.0], [2, 1, 1])
    assert _check_oracle(inst)
    oracle = shelyap.cli.oracle_gamma1
    monkeypatch.setattr(shelyap.cli, "oracle_gamma1", lambda inst: change(oracle(inst)))
    assert _check_oracle(inst) is False


def test_structure_skips_an_instance_on_its_merge_threshold():
    # (x_2 - x_1) / t = 1 = (m_1 + m_2) / 2 exactly
    assert _check_structure(validate_instance(1.0, [0.0, 1.0], [1, 1])) is None


# --- NaN fails every verdict ------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize("inst,field,node", [
    (MERGED, "speed", 2),
    (MERGED, "position", 2),
    (APART, "speed", 0),
    (APART, "position", 0),
], ids=["group-speed", "group-position", "leaf-speed", "leaf-position"])
def test_physics_fails_on_a_nan_in_the_run(monkeypatch, inst, field, node):
    broken(monkeypatch, inst, field, node, NAN)
    assert _check_physics(inst) is False


@pytest.mark.parametrize("field", ["speed", "position"])
def test_physics_fails_on_an_all_nan_column(monkeypatch, field):
    inst = validate_instance(1.0, [0.0, 0.5, 3.0], [2, 1, 1])
    run = _simulate(inst)
    monkeypatch.setattr(shelyap.cli, "_simulate",
                        lambda _: run._replace(**{field: [NAN] * len(run.lo)}))
    assert _check_physics(inst) is False


@pytest.mark.parametrize("change", [
    lambda sol: dataclasses.replace(sol, objective=NAN),
    lambda sol: dataclasses.replace(sol, values=np.full(len(sol.values), NAN)),
    lambda sol: dataclasses.replace(sol, values=np.append(sol.values[:-1], NAN)),
    lambda sol: dataclasses.replace(sol, objective=NAN, values=np.full(len(sol.values), NAN)),
], ids=["objective", "values", "last-value", "both"])
def test_oracle_fails_on_a_nan_route(monkeypatch, change):
    inst = validate_instance(1.0, [0.0, 0.5, 3.0], [2, 1, 1])
    solve = shelyap.cli.solve_gamma1
    monkeypatch.setattr(shelyap.cli, "solve_gamma1", lambda inst: change(solve(inst)))
    assert _check_oracle(inst) is False


@pytest.mark.parametrize("route", ["solve_gamma1", "solve_gamma2"])
def test_triple_fails_on_a_nan_route(monkeypatch, route):
    inst = validate_instance(1.0, [0.0, 0.5, 3.0], [2, 1, 1])
    assert _check_triple(inst)
    solve = getattr(shelyap.cli, route)
    monkeypatch.setattr(shelyap.cli, route,
                        lambda inst: dataclasses.replace(solve(inst), objective=NAN))
    assert _check_triple(inst) is False


def test_recursion_fails_on_a_nan_action(monkeypatch):
    monkeypatch.setattr(shelyap.cli, "verify_recursion_identity",
                        lambda inst: RecursionCheck(lhs=NAN, rhs=1.0))
    assert _check_recursion(MERGED) is False


def test_quadrature_fails_on_a_nan_shifted_moment(monkeypatch):
    # the three shifted contours of the shift-invariance check read NaN
    inst = validate_instance(1.0, [0.0], [2])
    base = default_contour_config(4.0, inst).offsets
    moved = {tuple(a + delta for a in base) for delta in (-0.5, 0.25, 0.5)}
    moment = shelyap.cli.contour_moment_complex
    monkeypatch.setattr(shelyap.cli, "contour_moment_complex", lambda T, inst, cfg: (
        complex(NAN) if cfg.offsets in moved else moment(T, inst, cfg)))
    results = _quadrature_checks(np.random.default_rng(0), 1)
    assert results == [True, False, True]


class _Spy:
    """A tolerance that passes and records each deviation compared with it."""

    def __init__(self):
        self.seen = []

    def __mul__(self, other):
        return self

    def __ge__(self, dev):  # dev <= spy
        self.seen.append(dev)
        return True


def test_triple_deviation_is_the_reports_max_pairwise_deviation(monkeypatch):
    spy = _Spy()
    monkeypatch.setattr(shelyap.cli, "TRIPLE_TOL", spy)
    rng = np.random.default_rng(3)
    for _ in range(300):
        inst = random_instance(rng)
        assert _check_triple(inst)
        assert spy.seen.pop() == gamma_report(inst).max_pairwise_dev


# --- each tolerance holds at its edge and fails one step past it -----------

def routes(monkeypatch, g1, g2, g3):
    """Make the triple check read the three exponents g1, g2 and g3."""
    monkeypatch.setattr(shelyap.cli, "solve_gamma1", lambda inst: SimpleNamespace(objective=g1))
    monkeypatch.setattr(shelyap.cli, "solve_gamma2", lambda inst: SimpleNamespace(objective=g2))
    monkeypatch.setattr(shelyap.cli, "gamma3", lambda inst, res: g3)


@pytest.mark.parametrize("g1,g3,ok", [
    (1e-8, 0.0, True),  # at TRIPLE_TOL * (1 + |g3|) exactly
    (1.5e-8, 0.0, False),
    (3.0 + 3e-8, 3.0, True),  # the tolerance grows with |g3|
    (3.0 + 5e-8, 3.0, False),
])
def test_triple_tolerance_edge(monkeypatch, g1, g3, ok):
    routes(monkeypatch, g1, g3, g3)
    assert _check_triple(MERGED) is ok


@pytest.mark.parametrize("route", [1, 2])
@pytest.mark.parametrize("objective,value,ok", [
    (1e-10, 0.0, True),  # the objective at ORACLE_OBJ_TOL exactly
    (2e-10, 0.0, False),
    (0.0, 1e-8, True),  # a coordinate at ORACLE_COORD_TOL exactly
    (0.0, 2e-8, False),
])
def test_oracle_tolerance_edge(monkeypatch, route, objective, value, ok):
    exact = SimpleNamespace(objective=0.0, values=np.zeros(3))
    off = SimpleNamespace(objective=objective, values=np.array([0.0, value, 0.0]))
    for name in ("solve_gamma1", "oracle_gamma1", "solve_gamma2", "oracle_gamma2"):
        monkeypatch.setattr(shelyap.cli, name, lambda inst: exact)
    monkeypatch.setattr(shelyap.cli, f"oracle_gamma{route}", lambda inst: off)
    assert _check_oracle(MERGED) is ok


def replaced(monkeypatch, inst, **fields):
    """Make the physics check read a run with the given columns replaced."""
    run = _simulate(inst)
    monkeypatch.setattr(shelyap.cli, "_simulate", lambda _: run._replace(**fields))


@pytest.mark.parametrize("past", [False, True])
def test_physics_momentum_tolerance_edge(monkeypatch, past):
    # MERGED's group of mass 2 should stand still: its leaves carry momenta
    # 0.5 and -0.5, so the tolerance is MOMENTUM_TOL * (1 + 1)
    tol = MOMENTUM_TOL * 2.0
    speed = np.nextafter(tol / 2.0, 1.0) if past else tol / 2.0
    replaced(monkeypatch, MERGED, speed=[0.5, -0.5, speed])
    assert _check_physics(MERGED) is not past


def test_physics_meeting_tolerance_edge(monkeypatch):
    # both leaves of MERGED meet at 0 at birth 0, and the group is born at q:
    # the miss |q| is held against the window spread * event_tolerance(1) +
    # ANCHOR_TOL * (1 + |q|), with spread 1; q is the window's fixed point
    q = 0.0
    for _ in range(5):
        q = event_tolerance(1.0) + ANCHOR_TOL * (1.0 + q)
    assert q == event_tolerance(1.0) + ANCHOR_TOL * (1.0 + q)
    for position, ok in ((q, True), (np.nextafter(q, 1.0), False), (0.9 * q, True)):
        replaced(monkeypatch, MERGED, position=[0.0, 0.0, position], birth=[0.0, 0.0, 0.0])
        assert _check_physics(MERGED) is ok, position


def test_physics_block_speed_tolerance_edge(monkeypatch):
    # a lone location should stand still: |speed - 0| <= COM_TOL exactly
    lone = validate_instance(1.0, [0.0], [1])
    for speed, ok in ((COM_TOL, True), (np.nextafter(COM_TOL, 1.0), False)):
        replaced(monkeypatch, lone, speed=[speed])
        assert _check_physics(lone) is ok
    # APART's left leaf should move at 0.5, within COM_TOL * (1 + 0.5)
    for miss, ok in ((0.9, True), (1.1, False)):
        replaced(monkeypatch, APART, speed=[0.5 + miss * COM_TOL * 1.5, -0.5])
        assert _check_physics(APART) is ok, miss


def test_physics_fails_on_blocks_that_end_together(monkeypatch):
    # the left leaf starts at 9 and ends at 9.5, where the right one ends
    replaced(monkeypatch, APART, position=[9.0, 10.0])
    assert _check_physics(APART) is False


def test_physics_fails_on_a_zero_separation_margin(monkeypatch):
    monkeypatch.setattr(shelyap.cli, "separation_margins", lambda inst, partition: np.array([0.0]))
    assert _check_physics(APART) is False
