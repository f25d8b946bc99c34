import json
import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import wavemetric as wm
from wavemetric import cli, geometry, velocity, verify
from wavemetric.errors import ScenarioError

from metric_oracle import lapack_eigen, mollify_every_plane


def write_scenario(tmp_path, data, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(data), encoding="utf-8")
    return p


def telegraph_scenario(tmp_path, L="1", C="1", nodes=256,
                       name="scenario.json", **extra):
    data = {
        "system": {"name": "telegraph", "params": {"L": L, "C": C}},
        "domain": {"lower": [0.0], "upper": [1.0], "unbounded": ["none"]},
        "grid": {"nodes": [nodes]},
        "output": {"dir": str(tmp_path / "out")},
    }
    data.update(extra)
    return write_scenario(tmp_path, data, name)


def test_cli_start_up_does_not_import_scipy_stats():
    code = (
        "import sys\n"
        "import wavemetric.cli\n"
        "import wavemetric as wm\n"
        "print(wm.validate_system(wm.telegraph('1 + x', '2')).ok)\n"
        "print('scipy.stats' in sys.modules)\n"
        "print('scipy.integrate' in sys.modules)\n"
        "print('scipy.sparse' in sys.modules)\n"
        "print('hypothesis' in sys.modules)\n"
        "print('pytest' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["True"] + ["False"] * 5


def test_1d_analyze_imports_no_scipy(tmp_path):
    # the 1-D routes are ray quadratures, which run on numpy alone
    p = telegraph_scenario(tmp_path, L="1/sin(pi*x)", C="1/sin(pi*x)", nodes=64)
    code = (
        "import sys\n"
        "from wavemetric.cli import main\n"
        f"code = main(['analyze', {str(p)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_lattice_commands_import_no_scipy(tmp_path):
    # the lattice graph and its shortest-path search run on numpy alone, and
    # without numpy.ma, whose import alone costs a fresh command about 12 ms
    maxwell = family_scenario("maxwell_isotropic",
                              {"eps": "1 + 0.4*sin(6*x)*cos(4*y)", "mu": "1"}, 2)
    maxwell["grid"]["nodes"] = [16, 16]
    maxwell["output"]["dir"] = str(tmp_path / "maxwell")
    dirac = family_scenario("dirac", {"radius": 0.1}, 3, -2.0, 2.0, "both")
    dirac["grid"]["nodes"] = [12, 12, 12]
    dirac["output"]["dir"] = str(tmp_path / "dirac")
    p2 = write_scenario(tmp_path, maxwell, "maxwell.json")
    p3 = write_scenario(tmp_path, dirac, "dirac.json")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for argv in (["analyze", str(p2)], ["analyze", str(p3)],
                 ["distance", str(p2), "--mode", "geodesic"],
                 ["distance", str(p2), "--mode", "arrival"]):
        code = (
            "import sys\n"
            "from wavemetric.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert out.stdout.splitlines()[-2:] == ["0 []", "False"], argv


# -- scenario parsing --------------------------------------------------------

def test_normalization_is_idempotent():
    raw = {
        "system": {"name": "telegraph", "params": {}},
        "domain": {"lower": [0], "upper": [1]},
        "grid": {"nodes": [64]},
        "output": {"dir": "o"},
    }
    once = cli.normalize_scenario(raw)
    assert once["system"]["params"] == {"L": "1", "C": "1"}
    assert once["analysis"]["criterion"] == "velocity"
    assert verify.get_check("cli.scenario_normalization_idempotent").residual(raw) == 0.0


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.update(extra=1), "unknown key"),
    (lambda d: d["system"].update(name="wave"), "system.name"),
    (lambda d: d["system"]["params"].update(R="1"), "unknown key"),
    (lambda d: d["domain"].update(lower=[0.0, 0.0]), "length"),
    (lambda d: d["domain"].update(unbounded=["sideways"]), "unbounded"),
    (lambda d: d["grid"].update(nodes=[4]), ">= 8"),
    (lambda d: d["grid"].update(nodes=[64, 64]), "per-axis"),
    (lambda d: d.update(analysis={"delta": 1.5}), "delta"),
    (lambda d: d.update(analysis={"criterion": "speed"}), "criterion"),
    (lambda d: d.update(analysis={"cutoffs": 2}), "cutoffs"),
    (lambda d: d.pop("output"), "output"),
    (lambda d: d["domain"].update(lower=[0.0, 0.0], upper=[1.0, 1.0]),
     "^telegraph needs a 1-dimensional domain$"),
    (lambda d: d["system"].update(name=["telegraph"]), "unknown; expected one of"),
    (lambda d: d.update(grid=5), "^grid must be an object$"),
    (lambda d: d["domain"].update(lower=["a"]), r"^domain\.lower\[0\] must be a number, got 'a'$"),
    (lambda d: d["domain"].update(lower=[]),
     r"^domain\.lower must be a non-empty array of numbers$"),
    (lambda d: d["system"]["params"].update(L=[1]),
     r"^system\.params\.L must be an expression string or a number$"),
    (lambda d: d["domain"].update(unbounded=["none", "none"]),
     r"^domain\.unbounded must list one flag per axis$"),
    (lambda d: d["domain"].update(lower=[1.0], upper=[0.0]),
     r"^domain axis 0: lower 1\.0 must be below upper 0\.0$"),
    (lambda d: d.update(analysis={"stencil": "8"}), r"^analysis\.stencil must be an integer or null$"),
    (lambda d: d["output"].update(dir=""), r"^output\.dir must be a non-empty string$"),
])
def test_normalization_rejects(mutate, match):
    raw = {
        "system": {"name": "telegraph", "params": {"L": "1", "C": "1"}},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"nodes": [64]},
        "output": {"dir": "o"},
    }
    mutate(raw)
    with pytest.raises(ScenarioError, match=match):
        cli.normalize_scenario(raw)


def family_scenario(name, params, d, lower=0.0, upper=1.0, unbounded="none"):
    return {
        "system": {"name": name, "params": params},
        "domain": {"lower": [lower] * d, "upper": [upper] * d,
                   "unbounded": [unbounded] * d},
        "grid": {"nodes": [8] * d},
        "output": {"dir": "o"},
    }


_EYE3 = [[1, 0, 0], [0, "2", 0], [0, 0, 1]]
_EYE3_NORM = [[1.0, 0.0, 0.0], [0.0, "2", 0.0], [0.0, 0.0, 1.0]]
_STIFF = [4, 1, 1, 0, 0, 0, 4, 1, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 1, 0, "1"]


@pytest.mark.parametrize("name,d,params,normalized,k", [
    ("telegraph", 1, {}, {"L": "1", "C": "1"}, 2),
    ("maxwell_isotropic", 2, {}, {"eps": "1", "mu": "1"}, 6),
    ("maxwell_anisotropic", 3, {"eps": _EYE3, "mu": _EYE3},
     {"eps": _EYE3_NORM, "mu": _EYE3_NORM}, 6),
    ("elastic_isotropic", 1, {"K": 2}, {"rho": "1", "K": 2.0, "mu": "1"}, 9),
    ("elastic", 2, {"stiffness": _STIFF},
     {"rho": "1", "stiffness": [float(v) for v in _STIFF[:-1]] + ["1"]}, 9),
    ("dirac", 3, {}, {"radius": 0.1}, 4),
    ("custom", 1, {"k": 2, "A": [[[0, "1"], [1, 0]]]},
     {"k": 2, "A": [[[0.0, "1"], [1.0, 0.0]]], "E": None, "V": None}, 2),
])
def test_family_defaults_and_build(name, d, params, normalized, k):
    if name == "dirac":
        raw = family_scenario(name, params, d, -2.0, 2.0, "both")
    else:
        raw = family_scenario(name, params, d)
    once = cli.normalize_scenario(raw)
    assert once["system"] == {"name": name, "params": normalized}
    assert cli.normalize_scenario(once) == once
    scn = cli.Scenario.from_dict(once)
    assert (scn.system.k, scn.system.d) == (k, d)


@pytest.mark.parametrize("name,d,params,message", [
    ("maxwell_isotropic", 1, {}, "maxwell systems need a 2- or 3-dimensional domain"),
    ("maxwell_anisotropic", 1, {"eps": _EYE3, "mu": _EYE3},
     "maxwell systems need a 2- or 3-dimensional domain"),
    ("elastic_isotropic", 4, {},
     "elastic systems need a 1-, 2- or 3-dimensional domain"),
    ("elastic", 4, {"stiffness": _STIFF},
     "elastic systems need a 1-, 2- or 3-dimensional domain"),
    ("dirac", 2, {}, "the dirac demo needs a 3-dimensional domain"),
    ("maxwell_anisotropic", 3, {"mu": _EYE3},
     "system.params: missing required key 'eps'"),
    ("maxwell_anisotropic", 3, {"eps": _EYE3[:2], "mu": _EYE3},
     "system.params.eps must be a 3x3 table"),
    ("maxwell_anisotropic", 3, {"eps": [row[:2] for row in _EYE3], "mu": _EYE3},
     "system.params.eps[0] must have 3 entries"),
    ("elastic", 2, {"stiffness": _STIFF[:20]},
     "system.params.stiffness must list the 21 upper-triangle entries"),
    ("dirac", 3, {"radius": 0}, "system.params.radius must be positive"),
    ("custom", 1, {"k": 0, "A": [[[0]]]}, "system.params.k must be a positive integer"),
    ("custom", 2, {"k": 1, "A": [[[0]]]},
     "system.params.A must list 2 matrices (one per axis)"),
    ("custom", 1, {"k": 2, "A": [[[0, 1], [1, 0]]], "E": [[1]]},
     "system.params.E must be a 2x2 table"),
    ("custom", 1, {"k": 2, "A": [[[0, 2], [1, 0]]]},
     "custom system fails validation: matrix is not Hermitian: relative defect "
     "6.325e-01 exceeds 1e-13, largest at entries (1, 2) and (2, 1) (A[1] at [0.5])"),
])
def test_family_rejects(name, d, params, message):
    raw = family_scenario(name, params, d)
    with pytest.raises(ScenarioError) as info:
        cli.Scenario.from_dict(raw)
    assert str(info.value) == message


@pytest.mark.parametrize("upper,unbounded", [
    ([2.0, 2.0, 1.5], ["both"] * 3),
    ([2.0, 2.0, 2.0], ["both", "both", "upper"]),
])
def test_dirac_needs_symmetric_window(upper, unbounded):
    raw = family_scenario("dirac", {}, 3, -2.0, 2.0, "both")
    raw["domain"].update(upper=upper, unbounded=unbounded)
    with pytest.raises(ScenarioError) as info:
        cli.Scenario.from_dict(raw)
    assert str(info.value) == (
        "the dirac demo needs a symmetric window (-w, w)^3 with all axes "
        "unbounded 'both'"
    )


def test_simulate_section_validation():
    base = {
        "system": {"name": "telegraph", "params": {"L": "1", "C": "1"}},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"nodes": [64]},
        "simulate": {"T": 1.0,
                     "pulse": {"center": [0.5], "sigma": 0.02,
                               "components": [1, 0]}},
        "output": {"dir": "o"},
    }
    out = cli.normalize_scenario(base)
    assert out["simulate"]["cfl"] == 0.4
    bad = json.loads(json.dumps(base))
    bad["simulate"]["pulse"]["components"] = [1, 0, 0]
    with pytest.raises(ScenarioError, match="length 2"):
        cli.normalize_scenario(bad)
    bad = json.loads(json.dumps(base))
    bad["simulate"]["pulse"]["center"] = [0.98]
    with pytest.raises(ScenarioError, match="4 nodes"):
        cli.normalize_scenario(bad)
    for section, key, value, message in (
            ("simulate", "T", 0.0, "simulate.T must be positive"),
            ("simulate", "cfl", 1.5, "simulate.cfl must lie in (0, 1]"),
            ("pulse", "sigma", 0.0, "simulate.pulse.sigma must be positive"),
            ("pulse", "components", [0, 0], "simulate.pulse.components must not all vanish")):
        bad = json.loads(json.dumps(base))
        (bad["simulate"] if section == "simulate" else bad["simulate"]["pulse"])[key] = value
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            cli.normalize_scenario(bad)


def test_scenario_root_must_be_an_object(tmp_path, capsys):
    p = tmp_path / "list.json"
    p.write_text("[1]", encoding="utf-8")
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}: scenario root must be a JSON object\n"


def _set_path(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("command, path, value, message", [
    ("analyze", ("domain", "lower", 0), -math.inf, "domain.lower[0] must be a finite number, got -inf"),
    ("analyze", ("domain", "upper", 0), math.inf, "domain.upper[0] must be a finite number, got inf"),
    ("analyze", ("analysis", "delta"), math.nan, "analysis.delta must be a finite number, got nan"),
    ("simulate", ("simulate", "T"), math.inf, "simulate.T must be a finite number, got inf"),
    ("simulate", ("simulate", "cfl"), math.nan, "simulate.cfl must be a finite number, got nan"),
    ("simulate", ("simulate", "pulse", "center", 0), math.nan,
     "simulate.pulse.center[0] must be a finite number, got nan"),
    ("simulate", ("simulate", "pulse", "sigma"), 10**400,
     "simulate.pulse.sigma must be a finite number, got inf"),
    ("simulate", ("simulate", "pulse", "components", 0), math.inf,
     "simulate.pulse.components[0] must be a finite number, got inf"),
    ("analyze", ("system", "params", "radius"), math.inf,
     "system.params.radius must be a finite number, got inf"),
], ids=["domain.lower", "domain.upper", "analysis.delta", "simulate.T", "simulate.cfl",
        "pulse.center", "pulse.sigma", "pulse.components", "dirac.radius"])
def test_non_finite_scenario_numbers_exit_2(tmp_path, capsys, command, path, value, message):
    # JSON's Infinity, -Infinity and NaN (and an integer past the float range)
    # parse as numbers; each is a scenario error, not a traceback or exit 3
    if path[-1] == "radius":
        doc = family_scenario("dirac", {"radius": 0.1}, 3, -2.0, 2.0, "both")
    else:
        doc = json.loads(telegraph_scenario(tmp_path, nodes=64).read_text(encoding="utf-8"))
        doc["simulate"] = {"T": 0.1, "pulse": {"center": [0.5], "sigma": 0.02,
                                               "components": [1, 0]}}
        doc["analysis"] = {"delta": 0.1}
    doc["output"]["dir"] = str(tmp_path / "out")
    _set_path(doc, path, value)
    p = write_scenario(tmp_path, doc, "nonfinite.json")
    assert cli.main([command, str(p)]) == 2
    assert capsys.readouterr().err == f"{p}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_bad_expression_reports_position(tmp_path, capsys):
    p = telegraph_scenario(tmp_path, L="1 + ")
    assert cli.main(["analyze", str(p)]) == 2
    err = capsys.readouterr().err
    assert str(p) in err and "position" in err


@pytest.mark.parametrize("eps, mu, message", [
    ([["1", "0.5", "0"], ["0", "1", "0"], ["0", "0", "1"]], _EYE3,
     "matrix is not Hermitian: relative defect 3.922e-01 exceeds 1e-13, largest at "
     "entries (1, 2) and (2, 1) (permittivity at [0.5        0.33333333])"),
    # each entry pair is within 1e-13 of the norm; the Frobenius defect is not
    ([["1", "0.500000000000184", "0"], ["0.5", "1", "0"], ["0", "0", "1"]],
     [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
     "matrix is not Hermitian: relative defect 1.391e-13 exceeds 1e-13, largest at "
     "entries (1, 2) and (2, 1) (permittivity at [0.5        0.33333333])"),
], ids=["entry", "whole-weight"])
def test_asymmetric_permittivity_exits_2(tmp_path, capsys, eps, mu, message):
    raw = family_scenario("maxwell_anisotropic", {"eps": eps, "mu": mu}, 2)
    raw["output"]["dir"] = str(tmp_path / "out")
    p = write_scenario(tmp_path, raw)
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}: {message}\n"


# Custom coefficients that the kernels reject at the first Halton point x = 0.5:
# validation must reject them too, naming the field and the point, and the
# scenario must exit 2 when it is built.
@pytest.mark.parametrize("params, issue", [
    ({"k": 2, "A": [[[0, 1], [1.00000000000012, 0]]]},
     "matrix is not Hermitian: relative defect 1.199e-13 exceeds 1e-13, largest at "
     "entries (1, 2) and (2, 1) (A[1] at [0.5])"),
    ({"k": 2, "A": [[[0, 1], [1, 0]]], "E": [[1, 0], [0, 1e-15]]},
     "matrix is numerically singular: eigenvalue 1.000000e-15 below 1e-14 of norm "
     "1.000000e+00 (E at [0.5])"),
    ({"k": 2, "A": [[[0, 1], [1, 0]]], "E": [["1/(x - 0.5)^2", 0], [0, 1]]},
     "matrix has non-finite entries (E at [0.5])"),
], ids=["A-not-hermitian", "E-singular", "E-non-finite"])
def test_inadmissible_custom_coefficients_exit_2(tmp_path, capsys, params, issue):
    k = params["k"]
    sysm = wm.CoefficientSystem(
        domain=wm.BoxDomain((0.0,), (1.0,)), k=k,
        E=wm.ExprMatrixField(params["E"]) if "E" in params else wm.ConstMatrixField(np.eye(k)),
        A=tuple(wm.ExprMatrixField(a) for a in params["A"]),
        V=wm.ConstMatrixField(np.zeros((k, k))))
    rep = wm.validate_system(sysm, samples=64)
    assert not rep.ok
    assert rep.issues == [issue]
    raw = family_scenario("custom", params, 1)
    raw["output"]["dir"] = str(tmp_path / "out")
    p = write_scenario(tmp_path, raw)
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == f"{p}: custom system fails validation: {issue}\n"


_POLE = "1/(x - 0.5)"      # inf at the first Halton point x = 0.5
_HOLE = "(x - 0.5)/(x - 0.5)"  # nan there


# A non-finite A^j or V passes no Hermitian test: inf - inf and a NaN defect
# both compare False against the tolerance, so the kernel must reject them
# itself.  Validation then names the field and the scenario exits 2 at build.
@pytest.mark.parametrize("field, entries", [
    ("A[1]", [[0, _POLE], [_POLE, 0]]),
    ("A[1]", [[_HOLE, 1], [1, 0]]),
    ("V", [[0, _POLE], [_POLE, 0]]),
    ("V", [[_HOLE, 0], [0, 0]]),
], ids=["A-inf", "A-nan", "V-inf", "V-nan"])
def test_non_finite_coefficients_exit_2(tmp_path, capsys, field, entries):
    from wavemetric.errors import MatrixError
    from wavemetric.matkernel import hermitian_part

    with pytest.raises(MatrixError, match=r"^matrix has non-finite entries$"):
        hermitian_part(wm.ExprMatrixField(entries).sample((np.array(0.5),)))
    params = {"k": 2, "A": [entries if field == "A[1]" else [[0, 1], [1, 0]]]}
    if field == "V":
        params["V"] = entries
    raw = family_scenario("custom", params, 1)
    raw["grid"]["nodes"] = [64]
    raw["output"]["dir"] = str(tmp_path / "out")
    p = write_scenario(tmp_path, raw)
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"{p}: custom system fails validation: matrix has non-finite entries "
        f"({field} at [0.5])\n"
    )


def test_weight_failing_at_a_grid_node_exits_2(tmp_path, capsys):
    # eps = x - 0.05 passes the construction probe but not the node at x = 1/33
    raw = family_scenario("maxwell_isotropic", {"eps": "x - 0.05"}, 2)
    raw["grid"]["nodes"] = [32, 32]
    raw["output"]["dir"] = str(tmp_path / "out")
    p = write_scenario(tmp_path, raw)
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"{p}: matrix is not positive definite: smallest eigenvalue -1.969697e-02 "
        "(E at [0.03030303 0.03030303])\n"
    )


@pytest.mark.parametrize("name,params,d,point", [
    ("telegraph", {"L": "log(x - 0.5)"}, 1, "{'x': 0.5}"),
    ("maxwell_isotropic", {"eps": "log(x - 0.5)"}, 2, "{'x': 0.5, 'y': 0.3333333333333333}"),
])
def test_expression_domain_error_at_build_exits_2(tmp_path, capsys, name, params, d, point):
    raw = family_scenario(name, params, d)
    raw["output"]["dir"] = str(tmp_path / "out")
    p = write_scenario(tmp_path, raw)
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"{p}: log of a non-positive value in 'log(x - 0.5)' at point {point}\n"
    )


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "nope.json")]) == 2


def test_invalid_json_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json", encoding="utf-8")
    assert cli.main(["analyze", str(p)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


# -- analyze -----------------------------------------------------------------

def test_analyze_degenerate_speed_is_certified(tmp_path, capsys):
    p = telegraph_scenario(tmp_path, L="1/(x*(1 - x))", C="1/(x*(1 - x))",
                           nodes=256)
    assert cli.main(["analyze", str(p)]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["classification"] == "certified-divergent"
    assert len(verdict["routes"]) == 2
    assert all(r["classification"] == "certified-divergent"
               for r in verdict["routes"])
    assert verdict["parameters"]["seed"] == 0x5EED
    head = (tmp_path / "out" / "velocity.csv").read_text().splitlines()[0]
    assert head == "x1,M11"


def test_analyze_constant_speed_is_convergent(tmp_path):
    p = telegraph_scenario(tmp_path, nodes=256)
    assert cli.main(["analyze", str(p)]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["classification"] == "likely-convergent"
    # traversal time to either end: 0.5 / sqrt(2)
    lim = verdict["routes"][0]["parameters"]["limit_estimate"]
    assert lim == pytest.approx(0.5 / np.sqrt(2.0), rel=1e-6)
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "sufficient condition" in summary
    assert "not a necessary one" in summary


def _rerun_bytes(out_dir, argvs) -> dict:
    """Every output file's bytes after running each argv in turn."""
    for argv in argvs:
        assert cli.main(argv) == 0
    return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}


def test_analyze_outputs_are_reproducible(tmp_path):
    p = telegraph_scenario(tmp_path, L="1 + 0.5*x", nodes=128)
    argvs = [["analyze", str(p)]]
    first = _rerun_bytes(tmp_path / "out", argvs)
    assert sorted(first) == ["summary.txt", "velocity.csv", "verdict.json"]
    assert _rerun_bytes(tmp_path / "out", argvs) == first


@pytest.mark.parametrize("case", ["dirac-analyze", "constant-distance"])
def test_constant_field_outputs_are_reproducible(tmp_path, case):
    # a field of one matrix, (1,)*d + (d, d): the 12^3 Dirac demo's analyze,
    # and both distance modes of a constant 2-D medium
    if case == "dirac-analyze":
        data = family_scenario("dirac", {"radius": 0.1}, 3, -2.0, 2.0, "both")
        data["grid"]["nodes"] = [12, 12, 12]
        data["analysis"] = {"cutoffs": 12}
    else:
        data = family_scenario("maxwell_isotropic", {"eps": "2", "mu": "1"}, 2)
        data["grid"]["nodes"] = [24, 24]
    data["output"]["dir"] = str(tmp_path / "out")
    p = str(write_scenario(tmp_path, data))
    argvs = ([["analyze", p]] if case == "dirac-analyze" else
             [["distance", p, "--mode", mode] for mode in ("geodesic", "arrival")])
    first = _rerun_bytes(tmp_path / "out", argvs)
    assert first
    assert _rerun_bytes(tmp_path / "out", argvs) == first


def test_analyze_coarse_boundary_probe_is_inconclusive(tmp_path):
    data = {
        "system": {"name": "maxwell_isotropic",
                   "params": {"eps": "1", "mu": "1"}},
        "domain": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
        "grid": {"nodes": [8, 8]},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = write_scenario(tmp_path, data)
    assert cli.main(["analyze", str(p)]) == 0
    assert cli.main(["analyze", str(p), "--strict"]) == 4
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["classification"] == "inconclusive"
    assert "coarse" in verdict["routes"][0]["parameters"]["diagnostic"]


def test_analyze_dirac_demo(tmp_path):
    data = {
        "system": {"name": "dirac", "params": {"radius": 0.1}},
        "domain": {"lower": [-2.0] * 3, "upper": [2.0] * 3,
                   "unbounded": ["both"] * 3},
        "grid": {"nodes": [24, 24, 24]},
        "analysis": {"cutoffs": 12},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = write_scenario(tmp_path, data)
    assert cli.main(["analyze", str(p)]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["classification"] in ("likely-convergent", "inconclusive")
    by_route = {r["parameters"]["route"]: r for r in verdict["routes"]}
    radial = by_route["radial growth toward infinity"]
    assert radial["classification"] == "certified-divergent"
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "sufficient condition" in summary


_SHORTCUT_SCENARIOS = {
    "diagonal": family_scenario("maxwell_isotropic",
                                {"eps": "1 + 0.4*sin(6*x)*cos(4*y)", "mu": "1"}, 2),
    "full": family_scenario("maxwell_anisotropic", {
        "eps": [[2, "0.5*sin(3*x)", 0.2], ["0.5*sin(3*x)", 2, 0], [0.2, 0, "1.5 + y"]],
        "mu": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 2),
    "dirac": {
        "system": {"name": "dirac", "params": {"radius": 0.1}},
        "domain": {"lower": [-2.0] * 3, "upper": [2.0] * 3, "unbounded": ["both"] * 3},
        "grid": {"nodes": [12, 12, 12]},
        "output": {"dir": "o"},
    },
}


@pytest.mark.parametrize("name", list(_SHORTCUT_SCENARIOS))
def test_diagonal_shortcuts_leave_every_output_unchanged(tmp_path, monkeypatch, name):
    # LAPACK at every node and smoothing of all d*d planes, as without the
    # diagonal shortcuts of sym_eigen and _mollify, give the same bytes
    raw = json.loads(json.dumps(_SHORTCUT_SCENARIOS[name]))
    if name != "dirac":
        raw["grid"]["nodes"] = [24, 24]

    def outputs(tag):
        raw["output"]["dir"] = str(tmp_path / tag)
        p = write_scenario(tmp_path, raw, f"{tag}.json")
        got = {}
        for command in (["analyze"], ["distance", "--mode", "geodesic"]):
            assert cli.main(command + [str(p)]) == 0
            got.update({(command[0], f.name): f.read_bytes()
                        for f in sorted((tmp_path / tag).iterdir())})
        return got

    shortcut = outputs("shortcut")
    monkeypatch.setattr(velocity, "_mollify", mollify_every_plane)
    for module in (velocity, geometry):
        monkeypatch.setattr(module, "sym_eigen", lapack_eigen)
    assert outputs("lapack") == shortcut
    header, *rows = (tmp_path / "lapack" / "velocity.csv").read_text().splitlines()
    table = np.array([r.split(",") for r in rows], dtype=float)
    off = [c for c, h in enumerate(header.split(",")) if h[0] == "M" and h[1] != h[2]]
    assert table[:, off].any() == (name == "full")


def test_analyze_unbounded_nonconstant_maxwell_is_fast(tmp_path):
    # the radial envelope samples every shell point in one batched call
    data = {
        "system": {"name": "maxwell_isotropic",
                   "params": {"eps": "1 + 0.1*sin(x)", "mu": "1"}},
        "domain": {"lower": [-2.0] * 3, "upper": [2.0] * 3,
                   "unbounded": ["both"] * 3},
        "grid": {"nodes": [12, 12, 12]},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = write_scenario(tmp_path, data)
    start = time.perf_counter()
    assert cli.main(["analyze", str(p)]) == 0
    assert time.perf_counter() - start < 20.0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    (radial,) = verdict["routes"]
    assert radial["parameters"]["route"] == "radial growth toward infinity"
    assert radial["classification"] == "certified-divergent"


def test_analyze_half_line_notes_unprobed_infinity(tmp_path):
    data = {
        "system": {"name": "telegraph", "params": {"L": "1", "C": "1"}},
        "domain": {"lower": [0.0], "upper": [8.0], "unbounded": ["upper"]},
        "grid": {"nodes": [128]},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = write_scenario(tmp_path, data)
    assert cli.main(["analyze", str(p)]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert len(verdict["routes"]) == 1  # only the finite lower end
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "unbounded axes was not probed" in summary


@pytest.mark.parametrize("crit,c", [("velocity", np.sqrt(2.0)), ("symbol-norm", 1.0)])
def test_analyze_ray_partial_integrals_match_closed_form(tmp_path, crit, c):
    # speed c*sin(pi*x): the traversal time from 1/2 to 1/2 + T (or 1/2 - T)
    # is ln tan(pi*(1/2 + T)/2) / (pi*c)
    p = telegraph_scenario(tmp_path, L="1/sin(pi*x)", C="1/sin(pi*x)", nodes=64,
                           analysis={"criterion": crit})
    assert cli.main(["analyze", str(p)]) == 0
    routes = json.loads((tmp_path / "out" / "verdict.json").read_text())["routes"]
    assert [r["parameters"]["route"] for r in routes] == [
        "lower end of axis 1", "upper end of axis 1"]
    for route in routes:
        T = np.asarray(route["cutoffs"])
        assert len(T) == 24
        want = np.log(np.tan(np.pi * (0.5 + T) / 2.0)) / (np.pi * c)
        np.testing.assert_allclose(route["integrals"], want, rtol=1e-9, atol=0.0)


def test_analyze_criterion_flag_agrees_on_classification(tmp_path):
    for crit in ("velocity", "symbol-norm"):
        p = telegraph_scenario(
            tmp_path, L="1/(x*(1 - x))", C="1/(x*(1 - x))", nodes=128,
            analysis={"criterion": crit}, name=f"s_{crit}.json",
        )
        assert cli.main(["analyze", str(p)]) == 0
        verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
        assert verdict["classification"] == "certified-divergent"
        assert verdict["parameters"]["criterion"] == crit


# -- custom systems ----------------------------------------------------------

def test_custom_system_analyze(tmp_path):
    data = {
        "system": {"name": "custom",
                   "params": {"k": 2,
                              "A": [[[0, "1 + x"], ["1 + x", 0]]],
                              "E": None, "V": None}},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"nodes": [64]},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = write_scenario(tmp_path, data)
    assert cli.main(["analyze", str(p)]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["classification"] == "likely-convergent"


def test_custom_system_must_be_hermitian(tmp_path, capsys):
    data = {
        "system": {"name": "custom",
                   "params": {"k": 2, "A": [[[0, "x"], ["1", 0]]]}},
        "domain": {"lower": [0.0], "upper": [1.0]},
        "grid": {"nodes": [64]},
        "output": {"dir": str(tmp_path / "out")},
    }
    p = write_scenario(tmp_path, data)
    assert cli.main(["analyze", str(p)]) == 2
    assert "validation" in capsys.readouterr().err


def test_custom_system_needs_1_to_3_dimensions(tmp_path, capsys):
    data = family_scenario("custom", {"k": 1, "A": [[[1]]] * 4}, 4)
    p = write_scenario(tmp_path, data)
    assert cli.main(["analyze", str(p)]) == 2
    assert capsys.readouterr().err == (
        f"{p}: custom systems need a 1-, 2- or 3-dimensional domain\n"
    )


# -- distance ----------------------------------------------------------------

def test_distance_modes_and_ordering(tmp_path):
    sim = {"T": 0.1, "cfl": 0.4,
           "pulse": {"center": [0.5], "sigma": 0.02, "components": [1, 0]}}
    p = telegraph_scenario(tmp_path, nodes=128, simulate=sim)
    assert cli.main(["distance", str(p), "--mode", "geodesic"]) == 0
    geo = (tmp_path / "out" / "distance.csv").read_text().splitlines()
    assert geo[0] == "x1,value"
    assert len(geo) == 129
    geo_vals = np.array([float(r.split(",")[1]) for r in geo[1:]])
    assert cli.main(["distance", str(p), "--mode", "arrival"]) == 0
    arr = (tmp_path / "out" / "distance.csv").read_text().splitlines()
    arr_vals = np.array([float(r.split(",")[1]) for r in arr[1:]])
    # the majorant inflates speeds, so metric distance trails arrival time
    assert np.all(geo_vals <= arr_vals + 1e-12)
    assert geo_vals[64] == 0.0


@pytest.mark.parametrize("command", [["analyze"], ["distance", "--mode", "geodesic"],
                                     ["distance", "--mode", "arrival"]])
@pytest.mark.parametrize("d,stencil,allowed", [(2, 26, "(8, 16)"), (3, 16, "(26,)")])
def test_unavailable_stencil_exits_2_before_any_output(tmp_path, capsys, command, d,
                                                       stencil, allowed):
    data = family_scenario("maxwell_isotropic", {}, d)
    data["analysis"] = {"stencil": stencil}
    data["output"]["dir"] = str(tmp_path / "out")
    p = write_scenario(tmp_path, data)
    assert cli.main([command[0], str(p)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert f"analysis.stencil: stencil {stencil} not available in {d}-D" in err
    assert allowed in err
    assert not (tmp_path / "out").exists()


# -- simulate ----------------------------------------------------------------

def test_simulate_outputs(tmp_path, capsys):
    sim = {"T": 0.2, "cfl": 0.4,
           "pulse": {"center": [0.5], "sigma": 0.03, "components": [1, 0]}}
    p = telegraph_scenario(tmp_path, nodes=256, simulate=sim)
    assert cli.main(["simulate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "energy" in out
    log = (tmp_path / "out" / "evolution.csv").read_text().splitlines()
    assert log[0] == "t,energy,supp_lo_1,supp_hi_1,boundary_margin,max_abs"
    assert float(log[1].split(",")[0]) == 0.0
    snap = (tmp_path / "out" / "state_final.csv").read_text().splitlines()
    assert snap[0] == "x1,re_1,im_1,re_2,im_2"
    assert len(snap) == 257
    assert (tmp_path / "out" / "state_initial.csv").exists()


def test_simulate_requires_section(tmp_path, capsys):
    p = telegraph_scenario(tmp_path)
    assert cli.main(["simulate", str(p)]) == 2
    assert "no simulate section" in capsys.readouterr().err


def test_simulate_midpoint_method(tmp_path):
    sim = {"T": 0.05, "cfl": 0.4,
           "pulse": {"center": [0.5], "sigma": 0.03, "components": [1, 0]}}
    p = telegraph_scenario(tmp_path, nodes=128, simulate=sim)
    assert cli.main(["simulate", str(p), "--method", "midpoint"]) == 0
    log = (tmp_path / "out" / "evolution.csv").read_text().splitlines()
    e0 = float(log[1].split(",")[1])
    e1 = float(log[-1].split(",")[1])
    assert abs(e1 / e0 - 1.0) <= 1e-12


# -- verify ------------------------------------------------------------------

def test_verify_all_green(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_verify_filter(capsys):
    assert cli.main(["verify", "--filter", "matkernel.*"]) == 0
    out = capsys.readouterr().out
    assert "matkernel.spd_sqrt_roundtrip" in out
    assert "velocity.psd" not in out


def test_verify_reports_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(verify, "CHECKS", [
        verify.Check("velocity.synthetic_fault", "velocity", 1e-9, lambda rng: None,
                     lambda case: 1.0)
    ])
    assert cli.main(["verify"]) == 3
    assert "fail" in capsys.readouterr().out


def test_verify_bad_regex(capsys):
    assert cli.main(["verify", "--filter", "["]) == 2
    assert "regex" in capsys.readouterr().err


def test_verify_no_match(capsys):
    assert cli.main(["verify", "--filter", "zzz_nothing"]) == 2


def test_seed_is_embedded(tmp_path):
    p = telegraph_scenario(tmp_path, nodes=128)
    assert cli.main(["analyze", str(p), "--seed", "7"]) == 0
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    assert verdict["parameters"]["seed"] == 7
    assert "seed: 7" in (tmp_path / "out" / "summary.txt").read_text()


@pytest.mark.parametrize("command", ["distance", "simulate"])
def test_seed_is_a_usage_error_where_nothing_is_drawn(tmp_path, capsys, command):
    p = telegraph_scenario(tmp_path, nodes=128)
    with pytest.raises(SystemExit) as info:
        cli.main([command, str(p), "--seed", "3"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
