"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion (also available via ``pistonflow verify``).
"""

import pytest

from pistonflow import acceptance


def _run(criterion):
    check = criterion()
    print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    assert check.passed, f"{check.name}: {check.detail}"


def test_criterion_1_equilibrium_preservation():
    _run(acceptance.criterion_1_equilibrium)


def test_criterion_2_mass():
    _run(acceptance.criterion_2_mass)


def test_criterion_3_b_consistency():
    _run(acceptance.criterion_3_b_consistency)


def test_criterion_4_energy():
    _run(acceptance.criterion_4_energy)


def test_criterion_5_manufactured_convergence():
    _run(acceptance.criterion_5_manufactured)


def test_criterion_6_fixed_point_contraction():
    _run(acceptance.criterion_6_fixed_point)


def test_criterion_7_contact_time_bound():
    _run(acceptance.criterion_7_contact_bound)


def test_criterion_8_volume_exponential_bound():
    _run(acceptance.criterion_8_volume_bound)


def test_criterion_9_picard_robustness():
    _run(acceptance.criterion_9_picard_robustness)


def test_criterion_10_determinism():
    _run(acceptance.criterion_10_determinism)


def test_verify_all_runs_every_criterion():
    criteria = [value for name, value in vars(acceptance).items()
                if name.startswith("criterion_")]
    assert len(criteria) == 10
    assert acceptance.SUITES["all"] == criteria
