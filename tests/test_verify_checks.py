"""Each verify check's failing branch: break one input and read the verdict."""

import dataclasses

import numpy as np
import pytest

import shelyap.cli
from shelyap import validate_instance
from shelyap.cli import _check_oracle, _check_physics, _check_structure
from shelyap.clusters import _simulate

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
