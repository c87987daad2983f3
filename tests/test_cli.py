import json
import math

import numpy as np
import pytest

from fsbp import cli, pipeline, refcases
from fsbp.cli import main
from fsbp.ibvp import MmsCase, MultiElementGrid, PdeParams, assemble
from fsbp.pipeline import build_study_operator


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture()
def exp3_rule_run(tmp_path):
    cfg = write_config(tmp_path / "rule.json", {"space": refcases.EXP3_SPEC, "mode": "closed"})
    out = tmp_path / "out"
    code = main(["rule", "--config", cfg, "--out", str(out)])
    assert code == 0
    return out


def test_rule_command_reproduces_reference(exp3_rule_run):
    rule = json.loads((exp3_rule_run / "rule.json").read_text())
    assert np.allclose(rule["nodes"], refcases.EXP3_CLOSED_NODES, atol=1e-8)
    assert np.allclose(rule["weights"], refcases.EXP3_CLOSED_WEIGHTS, atol=1e-8)
    assert rule["certificate"]["valid"] is True
    manifest = json.loads((exp3_rule_run / "manifest.json").read_text())
    assert manifest["screen"]["verdict"] == "pass"
    for out in manifest["outputs"]:
        assert (exp3_rule_run / out.split("/")[-1]).exists()


def test_rule_open_mode_gauss_legendre(tmp_path):
    # quadratic family: the product-derivative span is the cubic
    # polynomials, whose open rule is the classical 2-point Gauss rule
    cfg = write_config(tmp_path / "rule.json", {
        "space": {"family": "monomial", "degree": 2, "interval": [-1, 1]},
        "mode": "open",
    })
    out = tmp_path / "out"
    assert main(["rule", "--config", cfg, "--out", str(out)]) == 0
    rule = json.loads((out / "rule.json").read_text())
    assert np.allclose(rule["nodes"], [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-12)
    assert np.allclose(rule["weights"], [1.0, 1.0], atol=1e-12)


def test_rule_screen_gate_exit_code(tmp_path):
    # even-degree pair on a symmetric interval fails the screen
    cfg = write_config(tmp_path / "bad.json", {
        "space": {"family": "cosine_pair", "interval": [-1, 1]},
    })
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 2  # unknown family

    cfg2 = write_config(tmp_path / "gate.json", {
        "space": {"family": "trig", "max_harmonic": 1, "freq_scale": 2.0,
                  "interval": [0, 1]},
    })
    # full-period trig family: translation-degenerate, the screen gates it
    code = main(["rule", "--config", cfg2, "--out", str(tmp_path / "o2")])
    assert code == 4


def test_validation_exit_codes(tmp_path):
    assert main(["rule", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["rule", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    empty = write_config(tmp_path / "empty.json", {})
    assert main(["rule", "--config", empty, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("space", [
    {"family": "monomial", "interval": [0, 1]},
    {"family": "monomial", "degree": "three", "interval": [0, 1]},
    {"family": "monomial", "degree": 2, "interval": 5},
    {"family": "trig", "interval": [0, 1]},
    {"family": "trig", "max_harmonic": None, "interval": [0, 1]},
    {"family": "bessel", "interval": [0, 25]},
    {"family": "bessel", "orders": 3, "interval": [0, 25]},
    {"family": "explicit", "interval": [0, 1]},
    {"family": "explicit", "functions": [[1, 2]], "interval": [0, 1]},
    {"family": "exponential", "rates": ["fast"], "interval": [0, 1]},
    {"family": "exponential", "rates": [1.0], "poly_degree": -1, "interval": [0, 1]},
])
def test_malformed_descriptor_exits_2(tmp_path, capsys, space):
    cfg = write_config(tmp_path / "bad.json", {"space": space})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "Traceback" not in err


TRIG_OPERATOR = {"space": {"family": "trig", "max_harmonic": 2, "interval": [0, 1]}}


@pytest.mark.parametrize("command, config", [
    ("solve", {"pde": "advection", "params": [1], "operator": TRIG_OPERATOR}),
    ("solve", {"pde": "advection", "operator": "x"}),
    ("solve", {"pde": "advection", "operator": {}}),
    ("converge", {"study": "advection", "totals": "abc"}),
    ("converge", {"study": "advection", "totals": 40}),
    ("converge", {"study": "advection", "totals": [3]}),
    ("converge", {"study": "advection_diffusion", "params": [1]}),
    ("converge", {"study": "advection_diffusion", "mms": "zero_data", "params": {"eps": 0}}),
    ("solve", {"pde": "advection", "elements": None, "operator": TRIG_OPERATOR}),
    ("operator", {"space": refcases.EXP3_SPEC, "node_mode": "equispaced", "n_nodes": "x"}),
    ("verify", {"operator": "no_p.json", "space": refcases.EXP3_SPEC}),
    ("rule", {"space": refcases.EXP3_SPEC, "tolerances": [1]}),
    ("converge", ["advection"]),
    # the solver's tolerances are fixed; a config that sets them is refused
    ("rule", {"space": refcases.EXP3_SPEC, "tolerances": {}}),
    ("operator", {"space": refcases.EXP3_SPEC, "engine": {}}),
    ("solve", {"pde": "advection", "operator": TRIG_OPERATOR, "tolerances": {}}),
    ("converge", {"study": "advection", "engine": {}}),
    ("fixtures", {"tolerances": {}}),
    ("fixtures", {"engine": {}}),
    # a manufactured solution must solve the chosen PDE
    ("solve", {"pde": "advection", "mms": "boundary_layer", "params": {"eps": 0.1},
               "operator": TRIG_OPERATOR}),
    ("solve", {"pde": "advection_diffusion", "mms": "oscillatory_wave",
               "params": {"eps": 0.1}, "operator": TRIG_OPERATOR}),
    ("converge", {"study": "advection", "mms": "boundary_layer", "params": {"eps": 0.1}}),
    # a descriptor that is not an object, or carries a non-finite number
    ("rule", {"space": 5}),
    ("rule", {"space": ["family", "interval"]}),
    ("rule", {"space": {"family": "monomial", "degree": math.inf, "interval": [0, 1]}}),
    ("rule", {"space": {"family": "bessel", "orders": [math.inf], "interval": [0, 25]}}),
    ("rule", {"space": {"family": "trig", "max_harmonic": 1, "freq_scale": math.nan,
                        "interval": [0, 1]}}),
    ("rule", {"space": {"family": "exponential", "rates": [math.nan], "interval": [0, 1]}}),
    ("rule", {"space": {"family": "monomial", "degree": 2, "interval": [0, math.inf]}}),
    ("operator", {"space": {"family": "monomial", "degree": 2, "interval": [0, math.inf]},
                  "node_mode": "classical-gll"}),
])
def test_malformed_config_exits_2(tmp_path, capsys, command, config):
    # an operator file without its weights, for the verify case
    write_config(tmp_path / "no_p.json", {
        "nodes": [0.0, 1.0], "q": [[-0.5, 0.5], [-0.5, 0.5]], "b": [-1.0, 1.0],
        "interval": [0.0, 1.0]})
    cfg = write_config(tmp_path / "bad.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "Traceback" not in err


ADVECTION_SOLVE = {"pde": "advection", "operator": TRIG_OPERATOR}


@pytest.mark.parametrize("command, config", [
    ("converge", {"study": "advection", "cfl": 0}),
    ("converge", {"study": "advection", "cfl": -1}),
    ("converge", {"study": "advection", "params": {"final_time": math.inf}}),
    ("solve", {**ADVECTION_SOLVE, "elements": math.inf}),
    ("solve", {**ADVECTION_SOLVE, "elements": 2.7}),
    ("solve", {**ADVECTION_SOLVE, "elements": 0}),
    ("solve", {**ADVECTION_SOLVE, "params": {"final_time": math.inf}}),
    ("solve", {**ADVECTION_SOLVE, "params": {"a": math.nan}}),
    ("solve", {**ADVECTION_SOLVE, "cfl": math.inf}),
    ("solve", {**ADVECTION_SOLVE, "cfl": 0}),
])
def test_bad_run_parameters_exit_2_before_any_operator_build(
        tmp_path, capsys, monkeypatch, command, config):
    def no_build(*args, **kwargs):
        raise AssertionError("an operator was built before the run parameters were checked")

    monkeypatch.setattr(cli, "build_study_operator", no_build)
    monkeypatch.setattr(pipeline, "build_study_operator", no_build)
    cfg = write_config(tmp_path / "bad.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "validation error" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # exp(1000 s) overflows; the failing SVD is a solver error, not a validation one
    cfg = write_config(tmp_path / "overflow.json", {"space": {
        "family": "exponential", "rates": [1e3], "poly_degree": 2, "interval": [0, 1]}})
    with np.errstate(all="ignore"):
        assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "solver error: LinAlgError" in capsys.readouterr().err


@pytest.mark.parametrize("space", [
    {"family": "monomial", "degree": 2.7, "interval": [0, 1]},
    {"family": "bessel", "orders": [0.5, 1.9], "interval": [0, 25]},
    {"family": "trig", "max_harmonic": True, "interval": [0, 1]},
    {"family": "exponential", "rates": [1.0], "poly_degree": 1.5, "interval": [0, 1]},
], ids=["fractional-degree", "fractional-orders", "boolean-harmonic", "fractional-poly"])
def test_non_integer_family_entries_exit_2(tmp_path, capsys, space):
    cfg = write_config(tmp_path / "bad.json", {"space": space})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["closed", "open"])
def test_exponential_rate_0599_rule_exits_0(tmp_path, mode):
    # exited 4 (closed) and 3 (open) while the basis carried rounding noise
    cfg = write_config(tmp_path / "exp.json", {"space": {
        "family": "exponential", "rates": [0.599], "poly_degree": 2, "interval": [0, 1]}})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
    assert json.loads((out / "rule.json").read_text())["certificate"]["valid"] is True


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_high_harmonic_rule_writes_strict_json(tmp_path):
    # the screen's scaled minimum here is beyond the largest double; it
    # was written as Infinity, which is not JSON
    cfg = write_config(tmp_path / "trig.json", {"space": {
        "family": "trig", "max_harmonic": 20, "interval": [0, 1]}})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out)]) == 0
    for name in ("rule.json", "manifest.json"):
        data = json.loads((out / name).read_text(), parse_constant=_reject_constant)
        screen = data["trace"]["screen"] if name == "rule.json" else data["screen"]
        assert screen["verdict"] == "pass"
        assert math.isfinite(screen["min_abs_det"]) and screen["min_abs_det"] > 1e300


def test_bessel_operator_exits_0(tmp_path):
    # exited 3 on a derivative exactness defect of 2.7e-8 while the basis
    # carried rounding noise
    cfg = write_config(tmp_path / "bessel.json", {"space": refcases.BESSEL_SPEC,
                                                  "node_mode": "gglq"})
    out = tmp_path / "o"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["pass"] is True
    assert json.loads((out / "rule.json").read_text())["certificate"]["valid"] is True


def test_rank_loss_in_target_exits_3(tmp_path, capsys):
    # the 18-function target of degree 9 on [0, 1] orthonormalises to 17
    # functions: a numerical rank loss, not an invalid descriptor
    cfg = write_config(tmp_path / "mono9.json", {"space": {
        "family": "monomial", "degree": 9, "interval": [0, 1]}})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "RankError" in err and "17" in err and "18" in err


SOLVE_CONFIGS = {
    "advdiff": {
        "pde": "advection_diffusion",
        "params": {"a": 1.0, "eps": 0.1, "final_time": 0.2},
        "mms": "zero_data",
        "operator": {"space": {"family": "exponential", "rates": [2.5],
                               "poly_degree": 1, "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 4,
    },
    # the advection example of the README
    "advection": {
        "pde": "advection",
        "params": {"a": 1.0, "final_time": 1.0},
        "mms": "oscillatory_wave",
        "operator": {"space": {"family": "trig", "max_harmonic": 2,
                               "freq_scale": 0.5, "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 4, "cfl": 0.1,
    },
}


def test_determinism_byte_identical(tmp_path):
    cfg = write_config(tmp_path / "rule.json", {"space": refcases.EXP3_SPEC})
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["rule", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
    assert main(["rule", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
    for name in ("rule.json", "rule.csv", "basis.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    for label, payload in SOLVE_CONFIGS.items():
        cfg = write_config(tmp_path / f"{label}.json", payload)
        out1, out2 = tmp_path / f"{label}1", tmp_path / f"{label}2"
        assert main(["solve", "--config", cfg, "--out", str(out1), "--seed", "3"]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2), "--seed", "3"]) == 0
        for name in ("energy.csv", "solution.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (label, name)


def test_operator_command_from_rule_file(tmp_path, exp3_rule_run):
    cfg = write_config(tmp_path / "op.json", {
        "space": refcases.EXP3_SPEC,
        "rule": str(exp3_rule_run / "rule.json"),
    })
    out = tmp_path / "op_out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0
    op = json.loads((out / "operator.json").read_text())
    d = np.asarray(op["q"]) / np.asarray(op["p"])[:, None]
    assert np.max(np.abs(d - refcases.EXP3_CLOSED_D)) < 1e-6
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["pass"] is True
    # certified against the raw product span, as the equispaced path is
    from fsbp.gauss import QuadratureRule, verify_exactness
    from fsbp.spaces import make_family, product_derivative_space

    product = product_derivative_space(make_family(refcases.EXP3_SPEC))
    rule = QuadratureRule.from_dict(json.loads((out / "rule.json").read_text()))
    assert rule.certificate.target_dim == product.dim == 5
    assert np.array_equal(rule.certificate.per_function_errors,
                          verify_exactness(rule, product).per_function_errors)


def test_operator_command_equispaced_mode(tmp_path):
    cfg = write_config(tmp_path / "op.json", {
        "space": refcases.EXP3_SPEC,
        "node_mode": "equispaced",
    })
    out = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0
    rule = json.loads((out / "rule.json").read_text())
    assert np.allclose(rule["weights"], refcases.EXP3_EQUI5_WEIGHTS, atol=1e-8)


def test_verify_command_pass_and_fail(tmp_path):
    # build a valid operator, verify it, then verify the frozen inexact one
    cfg = write_config(tmp_path / "op.json", {"space": refcases.EXP3_SPEC,
                                              "node_mode": "gglq"})
    out = tmp_path / "out"
    assert main(["operator", "--config", cfg, "--out", str(out)]) == 0

    vcfg = write_config(tmp_path / "verify.json", {
        "operator": str(out / "operator.json"), "space": refcases.EXP3_SPEC,
    })
    assert main(["verify", "--config", vcfg, "--out", str(tmp_path / "v1")]) == 0

    from fsbp.cli import write_json
    from fsbp.operators import operator_to_dict

    write_json(tmp_path / "uniform4.json", operator_to_dict(refcases.uniform4_operator()))
    vcfg2 = write_config(tmp_path / "verify2.json", {
        "operator": str(tmp_path / "uniform4.json"), "space": refcases.EXP3_SPEC,
    })
    assert main(["verify", "--config", vcfg2, "--out", str(tmp_path / "v2")]) == 4
    verdict = json.loads((tmp_path / "v2" / "verdict.json").read_text())
    assert 1e-4 <= verdict["max_exactness_error"] <= 2e-4


def test_solve_zero_data_monotone_energy(tmp_path):
    cfg = write_config(tmp_path / "solve.json", {
        "pde": "advection",
        "params": {"a": 1.0, "final_time": 0.5},
        "mms": "zero_data",
        "operator": {"space": {"family": "trig", "max_harmonic": 2, "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 4,
        "cfl": 0.1,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "energy.csv").read_text().strip().splitlines()
    assert lines[0] == "time,energy"
    energy = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.diff(energy)) <= 1e-10 * energy[0]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["steps"] >= 10
    assert (out / "solution.csv").exists()


ZERO_DATA_ADVECTION = {
    "pde": "advection",
    "params": {"a": 1.0, "final_time": 0.5},
    "mms": "zero_data",
    "operator": {"space": {"family": "trig", "max_harmonic": 2, "interval": [0, 1]},
                 "node_mode": "gglq"},
    "elements": 4,
}


@pytest.mark.parametrize("payload", [ZERO_DATA_ADVECTION, SOLVE_CONFIGS["advdiff"]],
                         ids=["advection", "advection_diffusion"])
def test_solve_records_energy_certificate(tmp_path, payload):
    # lambda_max(sym(diag(P) A)) of the assembled system: no positive
    # value beyond rounding
    cfg = write_config(tmp_path / "solve.json", payload)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    op, _, _ = build_study_operator(payload["operator"]["space"], "gglq")
    params = PdeParams(**payload["params"])
    zero = lambda t: 0.0
    case = MmsCase(exact=None, initial=None, boundary_left=zero, boundary_right=zero)
    problem = assemble(payload["pde"], MultiElementGrid.uniform(op, payload["elements"]),
                       params, case)
    a_norm = np.linalg.norm(problem.A.toarray(), 2)
    assert manifest["energy_certificate"] <= 1e-12 * a_norm
    pa = problem.grid.P.reshape(-1, 1) * problem.A.toarray()
    lam_max = np.linalg.eigvalsh(0.5 * (pa + pa.T))[-1]
    assert manifest["energy_certificate"] == pytest.approx(lam_max, rel=0.0, abs=1e-14 * a_norm)
    for name in ("energy.csv", "solution.csv"):
        assert "certificate" not in (out / name).read_text()


def test_solve_advection_diffusion_records_aux_and_sats(tmp_path):
    cfg = write_config(tmp_path / "solve.json", {
        "pde": "advection_diffusion",
        "params": {"a": 1.0, "eps": 0.1, "final_time": 0.2},
        "mms": "boundary_layer",
        "operator": {"space": {"family": "exponential", "rates": [2.5],
                               "poly_degree": 1, "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 4,
        "cfl": 0.1,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    header = (out / "energy.csv").read_text().splitlines()[0]
    assert header == "time,energy,aux_dissipation"
    manifest = json.loads((out / "manifest.json").read_text())
    sats = manifest["sat_coefficients"]
    assert sats["tau_l"] == -1.0 and sats["tau_r"] == -1.0
    assert sats["sigma1_r"] == -1.0 + sats["sigma1_l"]
    assert sats["sigma4_l"] == -0.05
    assert manifest["final_error_norm"] < 1.0


def test_solve_steep_boundary_layer(tmp_path):
    # a/eps = 1000, where exp(a/eps) overflows
    cfg = write_config(tmp_path / "solve.json", {
        "pde": "advection_diffusion",
        "params": {"a": 1.0, "eps": 0.001, "final_time": 0.01},
        "mms": "boundary_layer",
        "operator": {"space": {"family": "exponential", "rates": [2.5],
                               "poly_degree": 1, "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 4,
    })
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert math.isfinite(manifest["final_error_norm"])


def test_operator_rejects_open_node_mode(tmp_path):
    cfg = write_config(tmp_path / "op.json", {
        "space": refcases.EXP3_SPEC, "node_mode": "ggq",
    })
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_converge_command_emits_table(tmp_path):
    cfg = write_config(tmp_path / "conv.json", {"study": "advection",
                                                "totals": [40, 80]})
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    rows = json.loads((out / "convergence.json").read_text())["rows"]
    assert len(rows) == 6
    by_label = {}
    for r in rows:
        by_label.setdefault(r["operator"], []).append(r)
    for label, rs in by_label.items():
        errs = [r["error_norm"] for r in rs]
        assert errs[0] > errs[-1], label
    header = (out / "convergence.csv").read_text().splitlines()[0]
    assert header.startswith("operator,elements")


def test_converge_fills_missing_params_from_the_frozen_study(tmp_path):
    rows = []
    for label, params in (("partial", {"params": {"a": 1.0, "final_time": 1.0}}),
                          ("frozen", {})):
        cfg = write_config(tmp_path / f"{label}.json",
                           {"study": "advection_diffusion", "totals": [24], **params})
        out = tmp_path / label
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        rows.append(json.loads((out / "convergence.json").read_text())["rows"])
    assert rows[0] == rows[1]
    assert all("error_norm" in r for r in rows[0])


def test_fixtures_command(tmp_path):
    out = tmp_path / "fix"
    assert main(["fixtures", "--out", str(out)]) == 0
    report = json.loads((out / "fixtures_report.json").read_text())
    assert report["exp3_closed_nodes_delta"] <= 1e-8
    assert report["exp3_closed_d_delta"] <= 1e-6
    assert 1e-4 <= report["uniform4_exactness_defect"] <= 2e-4
    assert (out / "bessel25_rule.json").exists()


def test_csv_uses_17_significant_digits(exp3_rule_run):
    first_data_line = (exp3_rule_run / "rule.csv").read_text().splitlines()[2]
    node_str = first_data_line.split(",")[0]
    assert float(node_str) == pytest.approx(refcases.EXP3_CLOSED_NODES[1], abs=1e-8)
    digits = node_str.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 16
