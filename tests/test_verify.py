import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavemetric import grids, systems, velocity, verify
from wavemetric.errors import ValidationError
from wavemetric.matkernel import spd_sqrt


def test_all_checks_pass():
    results = verify.run_checks()
    failed = [r.check_id for r in results if r.status == "fail"]
    assert failed == []
    assert len(results) >= 15


def test_verify_imports_on_its_own():
    # verify imports cli at module level; cli imports verify only in its
    # verify command, so a fresh interpreter loads verify first without a cycle
    src = os.path.dirname(os.path.dirname(verify.__file__))
    out = subprocess.run([sys.executable, "-c", "import wavemetric.verify"],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.returncode == 0, out.stderr


def test_every_module_is_covered():
    modules = {c.module for c in verify.CHECKS}
    assert {"matkernel", "dsl", "systems", "velocity", "geometry",
            "evolve", "cli"} <= modules


def test_filter_selects_by_module():
    results = verify.run_checks("velocity.*")
    assert results
    assert all(r.module == "velocity" for r in results)
    assert all(r.status == "pass" for r in results)


def test_results_are_deterministic():
    a = verify.run_checks("matkernel.*")
    b = verify.run_checks("matkernel.*")
    assert [(r.check_id, r.residual) for r in a] == [
        (r.check_id, r.residual) for r in b
    ]


def test_seed_changes_draws_but_not_outcomes():
    a = verify.run_checks("matkernel.spd_sqrt_roundtrip", seed=1)
    b = verify.run_checks("matkernel.spd_sqrt_roundtrip", seed=2)
    assert a[0].residual != b[0].residual
    assert a[0].passed and b[0].passed


def test_draws_follow_the_check_id_not_the_registry_order(monkeypatch):
    pattern = "matkernel|dsl|systems"
    before = {r.check_id: r.residual for r in verify.run_checks(pattern, seed=7)}
    first = verify.CHECKS[0]
    monkeypatch.setattr(verify, "CHECKS", [c for c in reversed(verify.CHECKS) if c is not first])
    after = {r.check_id: r.residual for r in verify.run_checks(pattern, seed=7)}
    del before[first.check_id]
    assert after == before


def test_weight_check_fails_on_a_wrong_inverse_square_root(monkeypatch):
    # R = E^{1/2} in place of E^{-1/2} makes R E R = E^2
    chk = verify.get_check("systems.canonical_weight_is_identity")
    case = chk.draw(np.random.default_rng(3))
    assert chk.residual(case) <= chk.tolerance
    monkeypatch.setattr(verify, "_inv_sqrt",
                        lambda E, coords: spd_sqrt(E(np.array(coords))))
    assert chk.residual(case) > 1e-3


def test_tampered_majorant_fails_domination():
    sys = systems.telegraph("1 + 0.5*x", "1")
    grid = grids.Grid(sys.domain, (32,))
    fld = velocity.majorant(velocity.VelocityField.from_system(sys, grid), 0.1)
    assert verify.majorant_deficit(fld) == 0.0
    fld.majorant_samples = 0.9 * fld.majorant_samples
    deficit = verify.majorant_deficit(fld)
    assert deficit > 1e-3  # far above the registered tolerance


def test_majorant_deficit_requires_majorant():
    sys = systems.telegraph()
    grid = grids.Grid(sys.domain, (16,))
    fld = velocity.VelocityField.from_system(sys, grid)
    with pytest.raises(ValidationError, match="majorant"):
        verify.majorant_deficit(fld)


def boom(case):
    raise RuntimeError("synthetic")


@pytest.mark.parametrize("residual, reported", [
    (boom, np.inf),
    (lambda case: [0.0, np.nan, 1e-300][case], np.nan),
], ids=["raises", "nan"])
def test_broken_check_reports_as_failure(monkeypatch, residual, reported):
    chk = verify.CHECKS[0]
    draws = iter(range(3))
    monkeypatch.setattr(verify, "CHECKS", [
        verify.Check(chk.check_id, chk.module, chk.tolerance, lambda rng: next(draws),
                     residual, draws=3)
    ])
    results = verify.run_checks()
    assert results[0].status == "fail"
    np.testing.assert_equal(results[0].residual, reported)


def test_format_table_layout():
    results = verify.run_checks("dsl.*")
    table = verify.format_table(results)
    lines = table.splitlines()
    assert lines[0].split() == ["check", "module", "residual", "tolerance",
                                "status"]
    assert lines[-1] == "1 checks: 1 passed, 0 failed"


def test_random_expressions_round_trip_bulk():
    round_trip = verify.get_check("dsl.print_parse_round_trip")
    rng = np.random.default_rng(99)
    for _ in range(500):
        assert round_trip.residual(round_trip.draw(rng)) == 0.0


# Checks whose draw ignores the generator: test_all_checks_pass covers them.
FIXED_DRAWS = {"velocity.majorant_dominates", "geometry.stencil_consistency_bound",
               "evolve.energy_conservation", "cli.scenario_normalization_idempotent"}


@pytest.mark.parametrize("chk", [c for c in verify.CHECKS if c.check_id not in FIXED_DRAWS],
                         ids=lambda chk: chk.check_id)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
def test_check_holds_on_hypothesis_seeds(chk, seed):
    assert chk.residual(chk.draw(np.random.default_rng(seed))) <= chk.tolerance
