import ast
import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fsbp
from fsbp import cli, errors, pipeline, refcases, spaces
from fsbp.cli import main
from fsbp.ibvp import BLOCK_STEPS, MmsCase, MultiElementGrid, PdeParams, assemble
from fsbp.pipeline import build_study_operator
from fsbp.spaces import tchebyshev_screen
from oracles import csv_text, cubic_gll_study, screened


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def read_json(path):
    """A JSON file read strictly: NaN and Infinity, which are not JSON, raise."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def read_every_json(root):
    """Every JSON file under root, each read strictly, by its relative path."""
    return {path.relative_to(root).as_posix(): read_json(path)
            for path in sorted(root.rglob("*.json"))}


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
    # the screen runs only to explain a failed solve
    assert "screen" not in manifest and "screen" not in rule["trace"]
    assert tchebyshev_screen(screened(refcases.EXP3_SPEC)).verdict == "pass"
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


def test_rule_screen_gate_exit_code(tmp_path, capsys):
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
    # on certified node sets of both signs and names their counts, larger
    # first: which sign is which depends on the basis orientation
    code = main(["rule", "--config", cfg2, "--out", str(tmp_path / "o2")])
    assert code == 4
    err = capsys.readouterr().err
    assert "82 certified node sets with a determinant of one sign, 38 of the other" in err
    # the screen runs after the solve has failed, and names its failure
    assert "and the solve failed: closed ladder failed" in err


def test_rule_operator_and_verify_load_no_scipy(tmp_path):
    # a fresh interpreter runs every family without scipy, the Bessel rule
    # included, and equispaced operators too: {1, s, e^{10s}}
    # climbs from 5 to 9 equispaced nodes on direct and least-squares
    # weights alone, and on 4 nodes its weights come from the numpy
    # non-negative least-squares fit of the approximate operator; every
    # moment is closed-form, so the adaptive integrator stays unloaded.
    # Classical Gauss-Lobatto operators of degree 20 and 24 on [0, 1],
    # where raw monomials are rank deficient, build and verify too
    mono6 = {"family": "monomial", "degree": 6, "interval": [-1, 1]}
    write_config(tmp_path / "rule.json", {"space": refcases.EXP3_SPEC, "mode": "closed"})
    write_config(tmp_path / "bessel.json", {"space": refcases.BESSEL_SPEC})
    write_config(tmp_path / "gll.json", {"space": mono6})
    write_config(tmp_path / "verify.json", {"operator": "op/operator.json", "space": mono6})
    for degree in (20, 24):
        mono = {"family": "monomial", "degree": degree, "interval": [0, 1]}
        write_config(tmp_path / f"gll{degree}.json", {"space": mono})
        write_config(tmp_path / f"verify{degree}.json",
                     {"operator": f"op{degree}/operator.json", "space": mono})
    write_config(tmp_path / "equi.json", {"space": {
        "family": "exponential", "rates": [10.0], "poly_degree": 1, "interval": [0, 1]}})
    write_config(tmp_path / "approx.json", {"n_nodes": 4, "space": {
        "family": "exponential", "rates": [10.0], "poly_degree": 1, "interval": [0, 1]}})
    script = textwrap.dedent("""
        import json, sys
        from fsbp.cli import main
        codes = [main(["rule", "--config", "rule.json", "--out", "rule"]),
                 main(["rule", "--config", "bessel.json", "--out", "bessel"]),
                 main(["operator", "--config", "gll.json", "--mode", "classical-gll",
                       "--out", "op"]),
                 main(["verify", "--config", "verify.json", "--out", "verify"]),
                 main(["operator", "--config", "equi.json", "--mode", "equispaced",
                       "--out", "equi"]),
                 main(["operator", "--config", "approx.json", "--mode", "equispaced",
                       "--out", "approx"])]
        for degree in (20, 24):
            codes += [main(["operator", "--config", f"gll{degree}.json",
                            "--mode", "classical-gll", "--out", f"op{degree}"]),
                      main(["verify", "--config", f"verify{degree}.json",
                            "--out", f"verify{degree}"])]
        print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy")),
                          "fsbp.integrate" in sys.modules]))
    """)
    src = os.path.dirname(os.path.dirname(fsbp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    codes, loaded, integrator = json.loads(out.splitlines()[-1])
    assert codes == [0] * 10
    for name in ("op20", "verify20", "op24", "verify24"):
        assert json.loads((tmp_path / name / "verdict.json").read_text())["pass"], name
    assert loaded == []
    assert not integrator
    assert len(json.loads((tmp_path / "equi" / "operator.json").read_text())["nodes"]) == 9
    approx = json.loads((tmp_path / "approx" / "rule.json").read_text())
    assert approx["trace"]["construction"] == "equispaced-approximate"


def test_bessel_rule_and_operator_without_scipy(tmp_path):
    # with scipy made unimportable, the Bessel rule and its gglq operator
    # still exit 0 with a valid certificate and a passing verdict
    write_config(tmp_path / "bessel.json", {"space": refcases.BESSEL_SPEC})
    script = textwrap.dedent("""
        import json, sys
        sys.modules["scipy"] = None
        from fsbp.cli import main
        print(json.dumps([main(["rule", "--config", "bessel.json", "--out", "rule"]),
                          main(["operator", "--config", "bessel.json", "--out", "op"])]))
    """)
    src = os.path.dirname(os.path.dirname(fsbp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [0, 0]
    files = read_every_json(tmp_path)
    for run in ("rule", "op"):
        rule = files[f"{run}/rule.json"]
        # one stage of full size 14 from the Lobatto nodes: a fall back to
        # the ladder shows here; the screen runs only to explain a failed
        # solve, so a solved rule's trace records none
        assert [(s["size"], "error" in s) for s in rule["trace"]["stages"]] == [(14, False)]
        assert "screen" not in rule["trace"]
        # moments from the family's endpoint values: a ratio of about
        # 1.4e-8 to the tolerance
        cert = rule["certificate"]
        assert cert["valid"] and cert["max_abs_error"] <= 1e-5 * cert["tol"]
    assert files["op/verdict.json"]["pass"]


def test_solve_loads_no_scipy(tmp_path):
    # assembly and march run on element bands in numpy alone: a zero-data
    # advection solve on classical Gauss-Lobatto elements and the
    # boundary-layer advection-diffusion solve, whose separable source
    # enters as one data column, load no scipy module; nor does the
    # advection-diffusion study, whose exp-equispaced operator is the
    # approximate one; no command loads the adaptive integrator
    write_config(tmp_path / "adv.json", {
        "pde": "advection", "params": {"a": 1.0, "final_time": 0.5}, "mms": "zero_data",
        "operator": {"space": {"family": "monomial", "degree": 6, "interval": [-1, 1]},
                     "node_mode": "classical-gll"},
        "elements": 4})
    write_config(tmp_path / "layer.json", {
        "pde": "advection_diffusion", "params": {"a": 1.0, "eps": 0.1, "final_time": 0.2},
        "mms": "boundary_layer",
        "operator": {"space": {"family": "exponential", "rates": [2.5], "poly_degree": 1,
                               "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 4})
    write_config(tmp_path / "study.json", {"study": "advection_diffusion", "totals": [24]})
    script = textwrap.dedent("""
        import json, sys
        from fsbp.cli import main
        codes = [main(["solve", "--config", "adv.json", "--out", "adv"]),
                 main(["solve", "--config", "layer.json", "--out", "layer"]),
                 main(["converge", "--config", "study.json", "--out", "study"])]
        print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith("scipy")),
                          "fsbp.integrate" in sys.modules]))
    """)
    src = os.path.dirname(os.path.dirname(fsbp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    codes, loaded, integrator = json.loads(out.splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []
    assert not integrator
    manifest = json.loads((tmp_path / "layer" / "manifest.json").read_text())
    assert 0.0 < manifest["final_error_norm"] < 1e-3
    rows = json.loads((tmp_path / "study" / "convergence.json").read_text())["rows"]
    assert "exp-equispaced" in [row["operator"] for row in rows]
    assert all("error_norm" in row for row in rows)


def test_pipeline_loads_no_pde_layer():
    # the rule-and-operator pipeline stands below the PDE layer: a fresh
    # import loads the construction modules and the failures, no more
    script = ("import json, sys, fsbp.pipeline; "
              "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fsbp'))))")
    src = os.path.dirname(os.path.dirname(fsbp.__file__))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert json.loads(out.splitlines()[-1]) == [
        "fsbp", "fsbp.errors", "fsbp.gauss", "fsbp.operators", "fsbp.pipeline", "fsbp.spaces"]
    # the integrator takes nothing from the package but its failures
    tree = ast.parse(Path(fsbp.__file__).with_name("integrate.py").read_text())
    assert [node.module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level] == ["errors"]


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
    {"family": "monomial", "degree": 2, "interval": [0, 1, 2]},
    {"family": "trig", "max_harmonic": 2, "freq_scale": 0, "interval": [0, 1]},
    {"family": "exponential", "rates": [0.0], "interval": [0, 1]},
    {"family": "bessel", "orders": [], "interval": [0, 25]},
    {"family": "explicit", "functions": [], "interval": [0, 1]},
    # the Bessel domain: arguments and orders at most BESSEL_BOUND = 1000
    {"family": "bessel", "orders": [0, 1], "interval": [0, 1001]},
    {"family": "bessel", "orders": [0, 1], "interval": [-1001, 0]},
    {"family": "bessel", "orders": [-1001], "interval": [0, 25]},
    # degenerate intervals, refused before a family divides by their length
    {"family": "trig", "max_harmonic": 2, "interval": [1, 1]},
    {"family": "exponential", "rates": [1.0], "interval": [1, 0]},
])
def test_malformed_descriptor_exits_2(tmp_path, capsys, space):
    cfg = write_config(tmp_path / "bad.json", {"space": space})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "Traceback" not in err


TRIG_OPERATOR = {"space": {"family": "trig", "max_harmonic": 2, "interval": [0, 1]}}
ADVECTION_SOLVE = {"pde": "advection", "operator": TRIG_OPERATOR}
# Simpson's rule and its operator on [0, 1], each with one non-finite entry
SIMPSON = {"nodes": [0.0, 0.5, 1.0], "weights": [1 / 6, 2 / 3, 1 / 6], "closed": True,
           "interval": [0.0, 1.0]}
NON_FINITE_RULES = {
    "nan_weight_rule.json": {**SIMPSON, "weights": [1 / 6, math.nan, 1 / 6]},
    "inf_weight_rule.json": {**SIMPSON, "weights": [1 / 6, 2 / 3, math.inf]},
    "nan_node_rule.json": {**SIMPSON, "nodes": [0.0, math.nan, 1.0]},
    "nan_end_rule.json": {**SIMPSON, "interval": [0.0, math.nan]},
}
SIMPSON_OPERATOR = {"nodes": [0.0, 0.5, 1.0], "p": [1 / 6, 2 / 3, 1 / 6],
                    "q": [[-0.5, 2 / 3, -1 / 6], [-2 / 3, 0.0, 2 / 3], [1 / 6, -2 / 3, 0.5]],
                    "b": [-1.0, 0.0, 1.0], "interval": [0.0, 1.0]}
NON_FINITE_OPERATORS = {
    "nan_q_operator.json": {**SIMPSON_OPERATOR,
                            "q": [[-0.5, math.nan, -1 / 6], [-2 / 3, 0.0, 2 / 3],
                                  [1 / 6, -2 / 3, 0.5]]},
    "inf_node_operator.json": {**SIMPSON_OPERATOR, "nodes": [0.0, 0.5, math.inf]},
}
# files that are right but for an interval of three entries, on a space
# they are exact for: both loaders once read the first two and exited 0
QUADRATICS = {"family": "monomial", "degree": 2, "interval": [0, 1]}
LONG_INTERVALS = {
    "long_interval_rule.json": {**SIMPSON, "interval": [0.0, 1.0, 99.0]},
    "long_interval_operator.json": {**SIMPSON_OPERATOR, "interval": [0.0, 1.0, 99.0]},
}


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
    # a rule entry that is not a path or names no file; missing entries;
    # an unknown manufactured solution, PDE or study
    ("operator", {"space": refcases.EXP3_SPEC, "rule": 5}),
    ("operator", {"space": refcases.EXP3_SPEC, "rule": "missing_rule.json"}),
    ("operator", {"node_mode": "gglq"}),
    ("verify", {"space": refcases.EXP3_SPEC}),
    ("solve", {"pde": "advection", "mms": "wave", "operator": TRIG_OPERATOR}),
    ("solve", {"pde": "advection"}),
    ("solve", {"pde": "heat", "operator": TRIG_OPERATOR}),
    ("converge", {"study": "heat"}),
    # rule and operator files with a non-finite entry
    *[("operator", {"space": refcases.EXP3_SPEC, "rule": name}) for name in NON_FINITE_RULES],
    *[("verify", {"operator": name, "space": refcases.EXP3_SPEC})
      for name in NON_FINITE_OPERATORS],
    # a manufactured solution named by something other than a string
    ("solve", {"pde": "advection", "mms": ["zero_data"], "operator": TRIG_OPERATOR}),
    ("converge", {"study": "advection", "mms": {"x": 1}}),
    # an operator file whose q is 1 x 2 for its two nodes
    ("verify", {"operator": "wide_q.json", "space": refcases.EXP3_SPEC}),
    # no command reads tolerances or an engine
    ("verify", {"operator": "no_p.json", "space": refcases.EXP3_SPEC, "tolerances": {}}),
    ("verify", {"operator": "no_p.json", "space": refcases.EXP3_SPEC, "engine": {}}),
    # a study of no level
    ("converge", {"study": "advection", "totals": []}),
    # an empty path names the config's directory, not a file
    ("operator", {"space": refcases.EXP3_SPEC, "rule": ""}),
    ("verify", {"operator": "", "space": refcases.EXP3_SPEC}),
    # a boolean or a string where a number is read
    ("solve", {**ADVECTION_SOLVE, "params": {"a": True}}),
    ("solve", {**ADVECTION_SOLVE, "cfl": "0.5"}),
    ("rule", {"space": {"family": "exponential", "rates": "12", "interval": [0, 1]}}),
    # an unknown node mode, named as one whatever node budget comes with it
    ("operator", {"space": refcases.EXP3_SPEC, "node_mode": "x", "n_nodes": 5}),
    # rule and operator files whose interval has three entries
    ("operator", {"space": QUADRATICS, "rule": "long_interval_rule.json"}),
    ("verify", {"operator": "long_interval_operator.json", "space": QUADRATICS}),
])
def test_malformed_config_exits_2(tmp_path, capsys, command, config):
    # an operator file without its weights, and one whose q is not n x n,
    # for the verify cases
    write_config(tmp_path / "no_p.json", {
        "nodes": [0.0, 1.0], "q": [[-0.5, 0.5], [-0.5, 0.5]], "b": [-1.0, 1.0],
        "interval": [0.0, 1.0]})
    write_config(tmp_path / "wide_q.json", {
        "nodes": [0.0, 1.0], "p": [0.5, 0.5], "q": [[-0.5, 0.5]], "b": [-1.0, 1.0],
        "interval": [0.0, 1.0]})
    for name, payload in {**NON_FINITE_RULES, **NON_FINITE_OPERATORS, **LONG_INTERVALS}.items():
        write_config(tmp_path / name, payload)
    cfg = write_config(tmp_path / "bad.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err
    assert "Traceback" not in err
    # the entry at fault in a rule or operator file is named
    file = str(config.get("rule", config.get("operator"))) if isinstance(config, dict) else ""
    assert {"nan_weight_rule.json": "'weights'", "wide_q.json": "'q'",
            **dict.fromkeys(LONG_INTERVALS, "'interval'")}.get(file, "") in err
    if isinstance(config, dict) and config.get("node_mode", "gglq") not in pipeline.NODE_MODES:
        assert "node_mode must be one of" in err
    # refused before the first write: no output directory
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, config, named", [
    ("solve", {"pde": "advection", "elemnts": 8, "params": {"final_tme": 0.01},
               "operator": {"space": {"family": "exponential", "rates": [-1.0, 1.0, 2.0],
                                      "interval": [0, 1]}, "nnodes": 3}}, "'elemnts'"),
    ("solve", {**ADVECTION_SOLVE, "params": {"final_tme": 0.01}}, "'params.final_tme'"),
    ("solve", {"pde": "advection", "operator": {**TRIG_OPERATOR, "nnodes": 3}},
     "'operator.nnodes'"),
    ("solve", {"pde": "advection", "operator": {"space": {
        **TRIG_OPERATOR["space"], "degree": 4}}}, "'operator.space.degree'"),
    ("rule", {"space": {"family": "monomial", "interval": [0, 1], "degre": 4}}, "'space.degre'"),
    ("rule", {"space": refcases.EXP3_SPEC, "seed": 3}, "'seed'"),
    ("operator", {"space": {**refcases.EXP3_SPEC, "freq_scale": 2.0}}, "'space.freq_scale'"),
    ("converge", {"study": "advection", "total": [40]}, "'total'"),
    ("fixtures", {"space": refcases.EXP3_SPEC}, "'space'"),
])
def test_unknown_key_exits_2_naming_its_path(tmp_path, capsys, command, config, named):
    # a misspelled key used to run with its default and exit 0
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"validation error: unknown key {named}" in capsys.readouterr().err
    assert not out.exists()


# a valid config per command, with every object a command reads, and every
# key that any command or family reads
VALID_CONFIGS = {
    "rule": {"space": refcases.EXP3_SPEC, "mode": "closed"},
    "operator": {"space": {"family": "trig", "max_harmonic": 1, "freq_scale": 0.5,
                           "interval": [0, 1]}, "node_mode": "equispaced", "n_nodes": 5},
    "verify": {"operator": "operator.json",
               "space": {"family": "bessel", "orders": [0, 1], "interval": [0, 25]}},
    "solve": {"pde": "advection_diffusion", "mms": "boundary_layer", "elements": 2, "cfl": 0.5,
              "params": {"a": 1.0, "eps": 0.1, "final_time": 0.01},
              "operator": {"space": {"family": "monomial", "degree": 3, "interval": [0, 1]},
                           "node_mode": "classical-gll"}},
    "converge": {"study": "advection", "mms": "zero_data", "cfl": 0.1, "totals": [40],
                 "params": {"a": 1.0, "eps": 0.0, "final_time": 0.01}},
    "fixtures": {},
}
KNOWN_KEYS = {"space", "mode", "rule", "node_mode", "n_nodes", "operator", "pde", "mms",
              "elements", "cfl", "params", "a", "eps", "final_time", "study", "totals",
              "family", "interval", "degree", "max_harmonic", "freq_scale", "rates",
              "poly_degree", "orders", "functions"}
UNKNOWN_KEYS = st.one_of(
    st.sampled_from(["elemnts", "final_tme", "degre", "nnodes", "tolerances", "engine", "seed",
                     "Mode", "space ", "labels"]),
    st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
).filter(lambda key: key not in KNOWN_KEYS)


def objects(config: dict, path: str = ""):
    """(path, object) for the config and every object in it."""
    yield path, config
    for key, value in config.items():
        if isinstance(value, dict):
            yield from objects(value, f"{path}.{key}" if path else key)


# what a config refused by its key table must not reach: every entry to
# the work; and what one refused by the pipeline's own checks must not
# reach: the first step of ``solve_rule_pipeline`` and ``build_study_operator``
COMMAND_WORK = [(owner, name) for owner in (cli, pipeline)
                for name in ("build_study_operator", "build_rule_operator", "solve_rule_pipeline",
                             "verify_sbp")]
PIPELINE_WORK = [(pipeline, "make_family")]


def run_refused(command: str, config, work=COMMAND_WORK) -> str:
    """stderr of ``command`` on ``config``, which must exit 2 before any
    of ``work`` runs and make no output directory."""
    def no_work(*args, **kwargs):
        raise AssertionError("a refused config reached the work")

    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err),
          pytest.MonkeyPatch.context() as patch):
        for owner, name in work:
            patch.setattr(owner, name, no_work)
        out = Path(tmp) / "out"
        code = main([command, "--config", write_config(Path(tmp) / "cfg.json", config),
                     "--out", str(out)])
        assert not out.exists()
    assert code == 2, err.getvalue()
    return err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
@settings(derandomize=True, max_examples=12, deadline=None)
@given(data=st.data())
def test_generated_unknown_keys_exit_2_before_any_work(command, data):
    # one drawn unknown key at any level of a valid config: exit 2 naming
    # its path, no output directory and no operator built
    config = copy.deepcopy(VALID_CONFIGS[command])
    path, where = data.draw(st.sampled_from(list(objects(config))), label="level")
    key = data.draw(UNKNOWN_KEYS, label="key")
    where[key] = data.draw(st.one_of(st.none(), st.integers(), st.text(max_size=3), st.just({})))
    assert f"unknown key '{path + '.' if path else ''}{key}'" in run_refused(command, config)


# values that the parsers of the key tables (fsbp.errors) refuse
NOT_A_NUMBER = st.sampled_from([None, True, "2", "x", [], [1.0], {}])
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
NOT_A_STRING = st.sampled_from([None, False, 2, 0.5, [], ["advection"], {}])
NOT_A_LIST = st.sampled_from([True, 2, 0.5, "12", "x", {}, {"a": 1}])
NOT_AN_OBJECT = st.sampled_from([None, 5, "monomial", [], ["family", "interval"]])
FRACTIONAL = st.integers(-50, 50).map(lambda k: k + 0.5)


def refused_numbers(above=None, inclusive=False):
    """What ``number(above, inclusive)`` refuses: no number, not finite, or
    not above ``above`` (below it when ``inclusive``)."""
    return st.one_of(NOT_A_NUMBER, NON_FINITE, *(
        [st.floats(-1e6, above, exclude_max=inclusive)] if above is not None else []))


def refused_integers(low=None):
    """What ``integer(low)`` refuses: no number, not finite, fractional, or below ``low``."""
    return st.one_of(NOT_A_NUMBER, NON_FINITE, FRACTIONAL,
                     *([st.integers(low - 50, low - 1)] if low is not None else []))


def refused_lists(entries, least=0, most=None):
    """What ``items`` refuses: no list, entries that ``entries`` draws, or
    fewer than ``least`` or more than ``most`` entries."""
    counts = [st.lists(st.floats(0, 1), max_size=least - 1)] if least else []
    if most is not None:
        counts.append(st.lists(st.floats(0, 1), min_size=most + 1, max_size=most + 2))
    return st.one_of(NOT_A_LIST, st.lists(entries, min_size=1, max_size=3), *counts)


# the values refused for each key that RULE, OPERATOR, VERIFY and CONVERGE
# parse, and for each entry of a family's table
REFUSED = {
    "space": NOT_AN_OBJECT,
    "params": NOT_AN_OBJECT,
    "rule": NOT_A_STRING,
    "operator": NOT_A_STRING,
    "study": st.one_of(NOT_A_STRING, st.sampled_from(["heat", "", "Advection"])),
    "mms": st.one_of(NOT_A_STRING, st.sampled_from(["wave", "", "Zero_data"])),
    "cfl": refused_numbers(0.0),
    # out of range too: a > 0, eps >= 0 and final_time > 0
    "params.a": refused_numbers(0.0),
    "params.eps": refused_numbers(0.0, inclusive=True),
    "params.final_time": refused_numbers(0.0),
    # a null "totals" is the study's own, and [] a study of no level
    "totals": st.one_of(st.just([]), refused_lists(
        st.one_of(refused_integers(), st.integers(1, 200).map(float)), least=1)),
}
REFUSED_ENTRIES = {
    "family": st.one_of(NOT_A_STRING, st.sampled_from(["cosine_pair", "", "Monomial"])),
    "interval": st.one_of(st.none(), refused_lists(st.one_of(NOT_A_NUMBER, NON_FINITE), 2, 2)),
    "degree": refused_integers(0),
    "max_harmonic": refused_integers(1),
    "freq_scale": refused_numbers(0.0),
    "rates": st.one_of(st.none(), refused_lists(st.one_of(NOT_A_NUMBER, NON_FINITE))),
    "poly_degree": refused_integers(0),
    "orders": st.one_of(st.none(), refused_lists(refused_integers(), least=1)),
    "functions": st.one_of(st.none(), refused_lists(st.one_of(NOT_A_NUMBER, NOT_A_STRING),
                                                    least=1)),
}
# a valid descriptor of each family; JSON holds no explicit functions, so
# only that family's "functions" is drawn
DESCRIPTORS = {
    "monomial": {"family": "monomial", "degree": 3, "interval": [0, 1]},
    "trig": {"family": "trig", "max_harmonic": 1, "freq_scale": 0.5, "interval": [0, 1]},
    "exponential": {"family": "exponential", "rates": [1.0], "poly_degree": 1,
                    "interval": [0, 1]},
    "bessel": {"family": "bessel", "orders": [0, 1], "interval": [0, 25]},
    "explicit": {"family": "explicit", "interval": [0, 1]},
}
FAMILY_ENTRIES = [(family, key) for family, table in spaces.FAMILIES.items()
                  for key in (*(spaces.DESCRIPTOR if family != "explicit" else ()), *table)]
TABLES = {"rule": cli.RULE, "operator": cli.OPERATOR, "verify": cli.VERIFY,
          "converge": cli.CONVERGE}


def parsed_keys(table: dict, prefix: str = ""):
    """Paths of the keys ``table`` parses; a None parser leaves its value to
    the layer that reads it, and a descriptor's entries are its family's."""
    for key, (parse, _) in table.items():
        if parse is not None:
            yield prefix + key
        if isinstance(parse, dict) and parse is not spaces.FAMILIES:
            yield from parsed_keys(parse, f"{prefix}{key}.")


@pytest.mark.parametrize("command", sorted(TABLES))
@settings(derandomize=True, max_examples=16, deadline=None)
@given(data=st.data())
def test_generated_malformed_values_exit_2_naming_their_key(command, data):
    # one key of a valid config, or one entry of its family descriptor,
    # given a value its parser refuses: exit 2 naming the key's path, no
    # output directory and no operator built
    config = copy.deepcopy(VALID_CONFIGS[command])
    paths = [*parsed_keys(TABLES[command]), *(FAMILY_ENTRIES if "space" in config else [])]
    path = data.draw(st.sampled_from(paths), label="key")
    if isinstance(path, tuple):
        family, key = path
        config["space"] = copy.deepcopy(DESCRIPTORS[family])
        config["space"][key] = data.draw(REFUSED_ENTRIES[key], label="value")
        path = f"space.{key}"
    else:
        *outer, key = path.split(".")
        where = config[outer[0]] if outer else config
        where[key] = data.draw(REFUSED[path], label="value")
    assert f"'{path}'" in run_refused(command, config)


# the keys whose table leaves the value to the pipeline (a None parser),
# each with its command, the values the pipeline refuses, and the words
# its refusal names the key in
PIPELINE_KEYS = {
    "mode": ("rule", st.one_of(NOT_A_STRING, st.sampled_from(["", "Closed", "gglq"])),
             "mode must be"),
    "node_mode": ("operator", st.one_of(NOT_A_STRING, st.sampled_from(["", "GGLQ", "closed"])),
                  "node_mode must be one of"),
    # a null "n_nodes" is the smallest exact rule's
    "n_nodes": ("operator", st.one_of(st.sampled_from([True, False, "5", 5.0, [], {}]),
                                      NON_FINITE, FRACTIONAL, st.integers(-50, 1)), "'n_nodes'"),
}


@pytest.mark.parametrize("key", sorted(PIPELINE_KEYS))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_pipeline_values_exit_2_in_its_words(key, data):
    # a key the pipeline checks, given a value it refuses: exit 2 in the
    # pipeline's words, before its first step and with no output directory
    command, refused, words = PIPELINE_KEYS[key]
    config = copy.deepcopy(VALID_CONFIGS[command])
    config[key] = data.draw(refused, label="value")
    assert words in run_refused(command, config, PIPELINE_WORK)


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
    ("solve", {**ADVECTION_SOLVE, "cfl": "fast"}),
    ("solve", {**ADVECTION_SOLVE, "pde": "advection_diffusion", "mms": "boundary_layer",
               "params": {"eps": 0}}),
    ("solve", {**ADVECTION_SOLVE, "pde": "advection_diffusion", "mms": "zero_data",
               "params": {"eps": 0}}),
    ("converge", {"study": "advection", "totals": [40, 3]}),
    ("converge", {"study": "advection_diffusion", "params": {"eps": 0}}),
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


# solve settings drawn small, so that every march is at most a few
# hundred steps: each PDE with its own manufactured solutions ("own" is the
# PDE's non-zero one, OWN_CASE), and eps > 0
VALID_SOLVE_FIELDS = {
    "pde": st.sampled_from(["advection", "advection_diffusion"]),
    "mms": st.sampled_from(["zero_data", "own"]),
    "elements": st.integers(1, 6),
    "cfl": st.floats(0.05, 1.0),
    "a": st.floats(0.5, 2.0),
    "eps": st.floats(0.01, 0.2),
    "final_time": st.floats(0.001, 0.05),
    "node_mode": st.sampled_from(["gglq", "equispaced", "classical-gll"]),
}
OWN_CASE = {"advection": "oscillatory_wave", "advection_diffusion": "boundary_layer"}
# or a march past MAX_STEPS, refused before it starts: a tiny cfl or a long
# final time (on [0, 1], h_min < 0.33 and a >= 0.5 make either more than
# 1.2 million steps), with any eps up to 1e6.  No draw lies between, where
# a march would be long and slow
PAST_THE_BOUND = st.one_of(
    st.fixed_dictionaries({"cfl": st.floats(1e-9, 1.2e-9), "final_time": st.floats(0.001, 1e6),
                           "eps": st.floats(0.01, 1e6)}),
    st.fixed_dictionaries({"cfl": st.floats(1e-9, 1.0), "final_time": st.floats(7e5, 1e6),
                           "eps": st.floats(0.01, 1e6)}),
)
# wrong types, non-finite and non-positive numbers, unknown names: malformed
# in every field.  A malformed mms may also be the other PDE's case, and a
# malformed eps (0 among its values) comes with advection-diffusion, the
# PDE that needs eps > 0
MALFORMED_VALUES = st.one_of(
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["x", "a"]), st.integers(-2, 2), max_size=1),
    st.sampled_from(["", "x", "fast"]),
    st.booleans(),
    st.none(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0, 0.0, -1, -0.5]),
)


@pytest.mark.parametrize("field", [None, *VALID_SOLVE_FIELDS])
@settings(derandomize=True, max_examples=16, deadline=None)
@given(data=st.data())
def test_generated_solve_configs_exit_with_a_code_not_a_traceback(field, data):
    # all fields well formed, or ``field`` malformed and perhaps one more
    fields = {key: data.draw(values, label=key) for key, values in VALID_SOLVE_FIELDS.items()}
    # one draw in three past the step bound, so that most well-formed ones march
    past_the_bound = data.draw(st.sampled_from([False, False, True]), label="past the bound")
    if past_the_bound:
        fields.update(data.draw(PAST_THE_BOUND, label="march"))
    malformed = set()
    if field is not None:
        malformed = {field, data.draw(st.sampled_from([field, *VALID_SOLVE_FIELDS]))}
    if "eps" in malformed:
        fields["pde"] = "advection_diffusion"
    pde = fields["pde"]
    if fields["mms"] == "own":
        fields["mms"] = OWN_CASE[pde]
    for key in sorted(malformed):
        other_case = [case for other, case in OWN_CASE.items() if other != pde]
        values = st.one_of(MALFORMED_VALUES, st.sampled_from(other_case)) if key == "mms" \
            else MALFORMED_VALUES
        fields[key] = data.draw(values, label=key)
    config = {
        "pde": fields["pde"], "mms": fields["mms"], "elements": fields["elements"],
        "cfl": fields["cfl"],
        "params": {key: fields[key] for key in ("a", "eps", "final_time")},
        "operator": {"space": {"family": "monomial", "degree": 3, "interval": [0, 1]},
                     "node_mode": fields["node_mode"]},
    }
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg = write_config(Path(tmp) / "solve.json", config)
        code = main(["solve", "--config", cfg, "--out", str(Path(tmp) / "out")])
    assert "Traceback" not in err.getvalue()
    if not (malformed or past_the_bound):
        assert code == 0, err.getvalue()
    else:
        # refused before the march, by a malformed field or the step bound;
        # a case paired with the other PDE, or eps = 0 in advection-diffusion,
        # is named when it is the one malformed field
        assert code == 2, err.getvalue()
        assert "validation error" in err.getvalue()
        eps = fields["eps"]
        if not malformed:
            assert "MAX_STEPS" in err.getvalue()
        elif malformed == {"mms"} and fields["mms"] in OWN_CASE.values():
            assert "does not solve" in err.getvalue()
        elif malformed == {"eps"} and eps == 0 and not isinstance(eps, bool):
            assert "eps > 0" in err.getvalue()


def test_numerical_failure_exits_3(tmp_path, capsys):
    # exp(1000 s) overflows; the rank decision refuses the non-finite samples
    # as a solver error, not a validation one
    cfg = write_config(tmp_path / "overflow.json", {"space": {
        "family": "exponential", "rates": [1e3], "poly_degree": 2, "interval": [0, 1]}})
    with np.errstate(all="ignore"):
        assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "solver error: RankError: non-finite basis values" in capsys.readouterr().err


def test_unresolved_span_exits_3(tmp_path, capsys):
    # J_0, J_1, J_2 on [-1000, 1000]: the product span's Chebyshev series
    # keeps all 2048 of its 2048 coefficients, so no rank can be decided
    # (on [0, 1000] it resolves in 1087); the unresolved basis used to
    # reach the screen and exit 4
    cfg = write_config(tmp_path / "bessel.json", {"space": {
        "family": "bessel", "orders": [0, 1, 2], "interval": [-1000, 1000]}})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert ("RankError: span not resolved by 2048 Chebyshev samples"
            in capsys.readouterr().err)


def test_non_finite_endpoint_value_exits_3(tmp_path, capsys, monkeypatch):
    # a family value that overflows at an endpoint only, which no sample of
    # the rank decision or the solver reaches: the closed-form certificate
    # moments are not finite, a solver error, and no certificate is written
    from fsbp import spaces

    powers = spaces._powers

    def overflowing_at_one(s, degrees, k):
        out = powers(s, degrees, k)
        out[:, s == 1.0, -1] = np.inf
        return out

    monkeypatch.setattr(spaces, "_powers", overflowing_at_one)
    cfg = write_config(tmp_path / "mono.json", {"space": {
        "family": "monomial", "degree": 3, "interval": [-1, 1]}, "mode": "open"})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["rule", "--config", cfg, "--out", str(out)]) == 3
    assert "IntegrationError: non-finite moment" in capsys.readouterr().err
    assert not (out / "rule.json").exists()


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


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("rate", [20.0, 30.0])
def test_steep_exponential_rule_passes_screen(tmp_path, rate, mode):
    # {1, x, e^{rx}} is a Haar system; it exited 4 while the screen
    # thresholded a rounding-level minimum determinant
    space = {"family": "exponential", "rates": [rate], "poly_degree": 1, "interval": [0, 1]}
    cfg = write_config(tmp_path / "exp.json", {"space": space})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
    rule = json.loads((out / "rule.json").read_text())
    assert rule["certificate"]["valid"] is True
    assert "screen" not in rule["trace"]
    report = tchebyshev_screen(screened(space))
    assert report.verdict == "pass"
    assert report.certified_negative == 0


TRIG3_15 = {"family": "trig", "max_harmonic": 3, "freq_scale": 1.5, "interval": [0, 1]}
TRIG5_15 = {"family": "trig", "max_harmonic": 5, "freq_scale": 1.5, "interval": [0, 1]}
BESSEL_0_TO_8 = {"family": "bessel", "orders": list(range(9)), "interval": [0, 25]}


@pytest.mark.parametrize("space, mode", [
    (TRIG3_15, "closed"), (TRIG3_15, "open"), (TRIG5_15, "closed"), (TRIG5_15, "open"),
    (BESSEL_0_TO_8, "closed"),
], ids=["trig3-closed", "trig3-open", "trig5-closed", "trig5-open", "bessel0to8-closed"])
def test_rule_exits_0_whatever_the_screen_would_say(tmp_path, space, mode):
    # the screen, once a gate before the solve, failed these spaces for
    # some of its random draws; a Tchebyshev system is sufficient for a
    # rule, not necessary, and each solves to a certified rule with
    # positive weights
    cfg = write_config(tmp_path / "space.json", {"space": space})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
    rule = json.loads((out / "rule.json").read_text())
    assert rule["certificate"]["valid"] is True and min(rule["weights"]) > 0


def test_steep_pure_exponential_failures_name_their_stage(tmp_path, capsys):
    # {e^{20x}} alone: the size-1 open homotopy stalls at t = 0, and the
    # error names the ladder stage and the last Newton error with its
    # residual; the closed rule (n = 1) has no ladder and fails its
    # certificate instead
    cfg = write_config(tmp_path / "exp.json", {"space": {
        "family": "exponential", "rates": [20.0], "poly_degree": 0, "interval": [0, 1]}})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "o"), "--mode", "open"]) == 3
    err = capsys.readouterr().err
    assert "open ladder failed at size 1/1" in err
    assert "last Newton error: backtracking failed at residual" in err
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "c"), "--mode", "closed"]) == 4


def test_failed_jump_is_rescued_and_counted(tmp_path):
    # {e^{15x}} alone: the open size-1 jump to t = 1 fails and the halving
    # schedule rescues it; the manifest sums the trace's counts
    cfg = write_config(tmp_path / "exp.json", {"space": {
        "family": "exponential", "rates": [15.0], "poly_degree": 0, "interval": [0, 1]}})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out), "--mode", "open"]) == 0
    stages = json.loads((out / "rule.json").read_text())["trace"]["stages"]
    assert stages[0]["rejected"] > 0
    assert json.loads((out / "manifest.json").read_text())["counters"] == {
        "homotopy_steps": sum(len(s["steps"]) for s in stages),
        "newton_iterations": sum(step["iterations"] for s in stages for step in s["steps"]),
        "rejected_blend_steps": sum(s["rejected"] for s in stages),
    }


def test_failed_full_size_stage_is_traced_and_counted(tmp_path):
    # trig 18 at freq_scale 1.5, closed: the stage of full size from the
    # Lobatto nodes stalls and the ladder solves the rule; the stalled
    # stage leads the trace with its error, and the manifest counts its work
    cfg = write_config(tmp_path / "trig.json", {"space": {
        "family": "trig", "max_harmonic": 18, "freq_scale": 1.5, "interval": [0, 1]}})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out), "--mode", "closed"]) == 0
    rule = json.loads((out / "rule.json").read_text())
    jump, *ladder = rule["trace"]["stages"]
    assert jump["size"] == len(rule["nodes"]) - 1 and jump["rejected"] > 0
    assert "last Newton error" in jump["error"]
    assert [s["size"] for s in ladder] == list(range(1, jump["size"] + 1))
    stages = [jump, *ladder]
    assert json.loads((out / "manifest.json").read_text())["counters"] == {
        "homotopy_steps": sum(len(s["steps"]) for s in stages),
        "newton_iterations": sum(step["iterations"] for s in stages for step in s["steps"]),
        "rejected_blend_steps": sum(s["rejected"] for s in stages),
    }


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_high_harmonic_rule_writes_strict_json(tmp_path):
    # the screen's scaled minimum determinant here was beyond the largest
    # double and was once written as Infinity, which is not JSON; no file
    # records the screen now.  No drawn set's sign is certified at this
    # dimension (62), so the verdict would be inconclusive
    space = {"family": "trig", "max_harmonic": 20, "interval": [0, 1]}
    cfg = write_config(tmp_path / "trig.json", {"space": space})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out)]) == 0
    for name in ("rule.json", "manifest.json"):
        data = read_json(out / name)
        assert "screen" not in (data["trace"] if name == "rule.json" else data)
    assert tchebyshev_screen(screened(space)).verdict == "inconclusive"


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


def test_odd_rank_target_gains_one_direction(tmp_path):
    # the product span of degree 9 on [0, 1] has numerical rank 17, not 18;
    # the appended Chebyshev polynomial's residual makes the basis 18-
    # dimensional, so the closed rule has 10 nodes
    cfg = write_config(tmp_path / "mono9.json", {"space": {
        "family": "monomial", "degree": 9, "interval": [0, 1]}})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out)]) == 0
    rule = json.loads((out / "rule.json").read_text())
    assert len(rule["nodes"]) == 10
    assert rule["certificate"]["valid"] is True


@settings(derandomize=True, max_examples=20, deadline=None)
@given(degree=st.integers(1, 24), centre=st.floats(-5.0, 5.0), half=st.floats(0.1, 5.0))
@example(degree=24, centre=2.0, half=3.0)
def test_generated_monomial_rules_are_solved_on_an_even_basis(degree, centre, half):
    # every monomial degree up to 24 on an affine image of [-1, 1] gives a
    # certified rule in both modes, solved on an even basis of target_dim
    # functions with target_dim/2 nodes (one more when closed)
    space = {"family": "monomial", "degree": degree, "interval": [centre - half, centre + half]}
    with tempfile.TemporaryDirectory() as tmp:
        cfg = write_config(Path(tmp) / "rule.json", {"space": space})
        for mode in ("open", "closed"):
            out = Path(tmp) / mode
            assert main(["rule", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
            rule = json.loads((out / "rule.json").read_text())
            cert = rule["certificate"]
            assert cert["valid"] and cert["max_abs_error"] <= cert["tol"]
            assert cert["target_dim"] % 2 == 0
            assert len(rule["nodes"]) == cert["target_dim"] // 2 + (mode == "closed")


@pytest.mark.parametrize("mode", ["closed", "open"])
@pytest.mark.parametrize("harmonic", [11, 15, 16, 17, 18])
def test_high_harmonic_trig_rules_exit_0(tmp_path, harmonic, mode):
    # odd product ranks (11, 15, 16) and ranks near the cutoff (17, 18):
    # the rank is decided once, by the orthonormal basis
    cfg = write_config(tmp_path / "trig.json", {"space": {
        "family": "trig", "max_harmonic": harmonic, "interval": [0, 1]}})
    out = tmp_path / "o"
    assert main(["rule", "--config", cfg, "--out", str(out), "--mode", mode]) == 0
    assert json.loads((out / "rule.json").read_text())["certificate"]["valid"] is True


def test_too_few_closed_nodes_fail_before_the_solve(tmp_path, capsys, monkeypatch):
    # trig 12 at freq_scale 1.0: the product span resolves to rank 43 of
    # 48, so the closed rule on the augmented 44-dimensional basis has 23
    # nodes, too few for the family's 25 functions; the operator stops
    # before the rule is solved, while the rule itself still exits 0
    cfg = write_config(tmp_path / "trig.json", {"space": {
        "family": "trig", "max_harmonic": 12, "freq_scale": 1.0, "interval": [0, 1]}})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "rule")]) == 0
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("the rule was solved")

    monkeypatch.setattr(pipeline, "continuation_solve", no_solve)
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "op")]) == 3
    err = capsys.readouterr().err
    assert "RankError" in err and "23 nodes" in err and "25 required" in err


def test_rule_file_with_too_few_nodes_fails_before_its_certificate(tmp_path, capsys,
                                                                    monkeypatch):
    # the same closed trig-12 rule given back as a rule file: its 23 nodes
    # are counted against the family's 25 functions before the product
    # span is orthonormalised or the rule certified
    space = {"family": "trig", "max_harmonic": 12, "freq_scale": 1.0, "interval": [0, 1]}
    cfg = write_config(tmp_path / "trig.json", {"space": space})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "rule")]) == 0
    capsys.readouterr()

    def no_certificate(*args, **kwargs):
        raise AssertionError("the span was orthonormalised or the rule certified")

    monkeypatch.setattr(pipeline, "orthonormalize", no_certificate)
    monkeypatch.setattr(pipeline, "verify_exactness", no_certificate)
    op_cfg = write_config(tmp_path / "op.json", {
        "space": space, "rule": str(tmp_path / "rule" / "rule.json")})
    assert main(["operator", "--config", op_cfg, "--out", str(tmp_path / "op")]) == 3
    err = capsys.readouterr().err
    assert "RankError" in err and "23 nodes" in err and "25 required" in err


@pytest.mark.parametrize("flag, entry, named", [
    (["--mode", "equispaced"], {}, "--mode equispaced"),
    ([], {"node_mode": "gglq"}, "'node_mode' 'gglq'"),
])
def test_rule_file_with_a_node_mode_exits_2(tmp_path, capsys, exp3_rule_run, flag, entry,
                                            named):
    # the operator would take its nodes from the rule file and ignore the mode
    cfg = write_config(tmp_path / "op.json", {
        "space": refcases.EXP3_SPEC, "rule": str(exp3_rule_run / "rule.json"), **entry})
    out = tmp_path / "op"
    assert main(["operator", "--config", cfg, "--out", str(out), *flag]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "'rule' file" in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("command, config, mode", [
    ("operator", {"space": refcases.EXP3_SPEC, "node_mode": "gglq", "n_nodes": 9}, "'gglq'"),
    ("operator", {"space": {"family": "monomial", "degree": 3, "interval": [-1, 1]},
                  "node_mode": "classical-gll", "n_nodes": 9}, "'classical-gll'"),
    ("operator", {"space": refcases.EXP3_SPEC, "rule": "rule.json", "n_nodes": 9},
     "'rule' file"),
    ("solve", {"pde": "advection", "operator": {**TRIG_OPERATOR, "n_nodes": 9}}, "'gglq'"),
])
def test_n_nodes_outside_equispaced_exits_2(tmp_path, capsys, command, config, mode):
    # only the equispaced mode reads a node budget; any other would ignore it
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "'n_nodes'" in err and mode in err
    assert not out.exists()


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
    assert main(["rule", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["rule", "--config", cfg, "--out", str(out2)]) == 0
    for name in ("rule.json", "rule.csv", "basis.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    for label, payload in SOLVE_CONFIGS.items():
        cfg = write_config(tmp_path / f"{label}.json", payload)
        out1, out2 = tmp_path / f"{label}1", tmp_path / f"{label}2"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("energy.csv", "solution.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), (label, name)
    assert "advection1/manifest.json" in read_every_json(tmp_path)


# one call of every command; "verify" reads the operator that "operator"
# writes in the same run
SEED_FREE_CALLS = [
    ("rule", {"space": refcases.EXP3_SPEC}),
    ("operator", {"space": refcases.EXP3_SPEC}),
    ("verify", {"operator": "operator/operator.json", "space": refcases.EXP3_SPEC}),
    ("solve", SOLVE_CONFIGS["advection"]),
    ("converge", {"study": "advection", "totals": [40, 80]}),
    ("fixtures", {}),
]


def test_outputs_do_not_depend_on_a_seed(tmp_path, capsys):
    # --seed is still parsed and read by nothing: no --help lists it,
    # every output but the manifest, which records wall times, is
    # byte-identical with and without it, and no manifest records a seed
    for command, _ in SEED_FREE_CALLS:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "seed" not in capsys.readouterr().out
    runs = {}
    for flags in ([], ["--seed", "31337"]):
        root = tmp_path / ("seeded" if flags else "plain")
        root.mkdir()
        for command, payload in SEED_FREE_CALLS:
            cfg = write_config(root / f"{command}.json", payload)
            assert main([command, "--config", cfg, "--out", str(root / command), *flags]) == 0
            manifest = read_json(root / command / "manifest.json")
            assert "seed" not in manifest and "seed" not in manifest["resolved_config"]
        runs[bool(flags)] = {path.relative_to(root).as_posix(): path.read_bytes()
                             for path in sorted(root.glob("*/*"))
                             if path.name != "manifest.json"}
    assert {name.split("/")[0] for name in runs[False]} == {c for c, _ in SEED_FREE_CALLS}
    assert runs[True] == runs[False]


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
    # certified against every product pair with the span's rank, as the
    # equispaced path is
    from fsbp.gauss import QuadratureRule, verify_exactness
    from fsbp.spaces import make_family, orthonormalize, product_derivative_space

    product = product_derivative_space(make_family(refcases.EXP3_SPEC))
    rule = QuadratureRule.from_dict(json.loads((out / "rule.json").read_text()))
    assert rule.certificate.target_dim == orthonormalize(product).dim == 5
    assert np.array_equal(rule.certificate.per_function_errors,
                          verify_exactness(rule, product, 5).per_function_errors)
    assert "out/manifest.json" in read_every_json(tmp_path)


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
    files = read_every_json(tmp_path)
    assert 1e-4 <= files["v2/verdict.json"]["max_exactness_error"] <= 2e-4
    assert files["v1/verdict.json"]["pass"] is True


def test_solve_zero_data_monotone_energy(tmp_path):
    # advection on 4 trig elements, and advection-diffusion on 24 classical
    # Gauss-Lobatto elements of 4 nodes: a march of more than 1000 steps
    # whose element band is narrower than the grid
    for label, payload, header, min_steps in (
        ("advection", {
            "pde": "advection",
            "params": {"a": 1.0, "final_time": 0.5},
            "mms": "zero_data",
            "operator": {"space": {"family": "trig", "max_harmonic": 2, "interval": [0, 1]},
                         "node_mode": "gglq"},
            "elements": 4,
            "cfl": 0.1,
        }, "time,energy", 10),
        ("advection_diffusion", {
            "pde": "advection_diffusion",
            "params": {"a": 1.0, "eps": 0.1, "final_time": 1.0},
            "mms": "zero_data",
            "operator": {"space": {"family": "monomial", "degree": 3, "interval": [0, 1]},
                         "node_mode": "classical-gll"},
            "elements": 24,
            "cfl": 0.1,
        }, "time,energy,aux_dissipation", 1000),
    ):
        cfg = write_config(tmp_path / f"{label}.json", payload)
        out = tmp_path / label
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "energy.csv").read_text().strip().splitlines()
        assert lines[0] == header
        energy = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert np.max(np.diff(energy)) <= 1e-10 * energy[0], label
        manifest = read_json(out / "manifest.json")
        assert manifest["steps"] >= min_steps
        assert manifest["max_energy_increase"] <= 1e-10 * energy[0], label
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
    # two boundary data and the source's amplitude
    assert manifest["counters"]["data_columns"] == 3


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


@pytest.mark.parametrize("command, flag", [
    ("verify", "--mode"), ("solve", "--mode"), ("converge", "--mode"), ("fixtures", "--mode"),
    ("verify", "--force-tchebyshev"), ("fixtures", "--force-tchebyshev"),
    # the screen only explains a failed solve: nothing to force past
    ("rule", "--force-tchebyshev"), ("operator", "--force-tchebyshev"),
    ("solve", "--force-tchebyshev"), ("converge", "--force-tchebyshev"),
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, command, flag):
    # each flag is registered only on the commands that read it
    argv = [command, "--out", str(tmp_path / "o"), flag] + (["closed"] if flag == "--mode" else [])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_operator_rejects_open_node_mode(tmp_path):
    cfg = write_config(tmp_path / "op.json", {
        "space": refcases.EXP3_SPEC, "node_mode": "ggq",
    })
    assert main(["operator", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_converge_command_emits_table(converge_runs):
    # both studies at their three default levels: no failed row, and from
    # the second level on each operator's observed order, in strict JSON
    for study, labels in (("advection", 3), ("advection_diffusion", 4)):
        out = converge_runs[study]
        rows = read_every_json(out)["convergence.json"]["rows"]
        assert len(rows) == 3 * labels
        assert all("error" not in r for r in rows)
        by_label = {}
        for r in rows:
            by_label.setdefault(r["operator"], []).append(r)
        for label, rs in by_label.items():
            errs = [r["error_norm"] for r in rs]
            assert errs[0] > errs[-1], label
            assert ["observed_order" in r for r in rs] == [False, True, True], label
        header = (out / "convergence.csv").read_text().splitlines()[0]
        assert header.startswith("operator,elements")


def test_study_rows_report_the_nodes_of_the_operator_solved_with(tmp_path):
    # at eps = 100 the exp-optimal rate a/eps/n_el = 1/600 drops the product
    # span's rank to 4, so its gglq operator has 3 nodes, not the declared 4.
    # Its row reports the operator's nodes and is refused: 18 nodes are no
    # level of the matched total 24.  The count does not depend on the
    # final time, cut here from 1 to 0.01 so that the march, of steps
    # dt ~ h^2/eps, is a hundredth as long
    cfg = write_config(tmp_path / "study.json", {
        "study": "advection_diffusion", "params": {"eps": 100, "final_time": 0.01},
        "totals": [24]})
    out = tmp_path / "out"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    rows = {row["operator"]: row for row in read_json(out / "convergence.json")["rows"]}
    assert [rows["exp-optimal"][key]
            for key in ("elements", "nodes_per_element", "total_nodes")] == [6, 3, 18]
    assert rows["exp-optimal"]["error"] == "AssemblyError: operator has 3 nodes per element, not 4"
    assert "error_norm" not in rows["exp-optimal"]
    for label, row in rows.items():
        if label != "exp-optimal":
            assert row["total_nodes"] == 24 and row["error_norm"] > 0 and "error" not in row
    assert "exp-optimal,6,3,18,nan,nan\n" in (out / "convergence.csv").read_text()


def test_study_level_of_other_nodes_per_element_breaks_the_order():
    # the cubic's Gauss-Lobatto operator, but the quadratic's (3 nodes) on
    # 2 elements: that level is refused, the next one has no order
    study = cubic_gll_study(spec=lambda n_el, params: {
        "family": "monomial", "degree": 2 if n_el == 2 else 3, "interval": [0, 1]})
    rows = cli.convergence_study(study, PdeParams(a=1.0, final_time=0.1),
                                 MmsCase.advecting_wave(1.0), 0.1, [8, 16, 32])
    assert [(row["elements"], row["nodes_per_element"]) for row in rows] == [(2, 3), (4, 4),
                                                                            (8, 4)]
    assert rows[0]["error"] == "AssemblyError: operator has 3 nodes per element, not 4"
    assert "error_norm" not in rows[0] and "observed_order" not in rows[1]
    assert rows[1]["error_norm"] > rows[2]["error_norm"] > 0 and rows[2]["observed_order"] > 3


# the stages each command times, and a config it runs
TIMED_RUNS = {
    "rule": (("rule_solve_s", "output_write_s"), {"space": refcases.EXP3_SPEC}),
    "operator": (("operator_build_s", "output_write_s"), {"space": refcases.EXP3_SPEC}),
    "verify": (("verify_s", "output_write_s"),
               {"operator": "op/operator.json", "space": refcases.EXP3_SPEC}),
    "solve": (cli.TIMED_STAGES, SOLVE_CONFIGS["advdiff"]),
    "converge": (cli.TIMED_STAGES, {"study": "advection", "totals": [40, 80]}),
}


@pytest.mark.parametrize("command", sorted(TIMED_RUNS))
def test_manifest_times_the_stages_and_only_the_manifest(tmp_path, command):
    # wall seconds of each stage (a study sums them over its rows) go in
    # manifest.json only
    stages, payload = TIMED_RUNS[command]
    if command == "verify":
        op_cfg = write_config(tmp_path / "op.json", {"space": refcases.EXP3_SPEC})
        assert main(["operator", "--config", op_cfg, "--out", str(tmp_path / "op")]) == 0
    cfg = write_config(tmp_path / f"{command}.json", payload)
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main([command, "--config", cfg, "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    manifest = json.loads((out / "manifest.json").read_text())
    timings = manifest["timings"]
    assert sorted(timings) == sorted(stages)
    assert all(0.0 < seconds for seconds in timings.values())
    assert sum(timings.values()) <= min(manifest["wall_time_s"], elapsed)
    counters = {}
    if command == "solve":
        # the zero-data solve took the march without data columns
        counters = manifest["counters"]
        assert counters == {"data_columns": 0,
                            "march_blocks": -(-manifest["steps"] // BLOCK_STEPS)}
        assert counters["march_blocks"] > 1
    for path in out.iterdir():
        if path.name != "manifest.json":
            text = path.read_text()
            assert not any(word in text for word in ("timings", *stages, "counters", *counters)), \
                path.name


def test_csv_bytes_for_mixed_columns(tmp_path):
    # the columns of convergence.csv and solution.csv: a str label, ints,
    # floats in 17 significant digits and NaN for a missing value
    path = tmp_path / "mixed.csv"
    cli.write_csv(path, ["operator", "elements", "error_norm", "observed_order"],
                  iter([("gglq", 8, 0.1, float("nan")), ["gll-4", 16, 1.0 / 3.0, 2.0]]))
    assert path.read_bytes() == (b"operator,elements,error_norm,observed_order\n"
                                 b"gglq,8,0.10000000000000001,nan\n"
                                 b"gll-4,16,0.33333333333333331,2\n")
    cli.write_csv(path, ["element", "x", "u"], [])
    assert path.read_bytes() == b"element,x,u\n"


@pytest.mark.parametrize("count", [0, 1, cli.CSV_CHUNK - 1, cli.CSV_CHUNK, cli.CSV_CHUNK + 1,
                                   cli.CSV_CHUNK + 2, 3 * cli.CSV_CHUNK + 5])
def test_csv_chunks_match_the_row_by_row_oracle(tmp_path, count):
    # the columns of convergence.csv, streamed from a generator of tuples
    # and lists, against one value at a time: floats of every scale and
    # sign, signed zeros, NaN and infinities; at and around a chunk's end
    rng = np.random.default_rng(count)
    specials = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e300]
    values = rng.standard_normal((count, 2)) * 10.0 ** rng.integers(-300, 300, (count, 2))
    rows = [(f"op-{i % 3}", i + 1, 4, 4 * (i + 1), float(u),
             specials[i % 7] if i % 2 else float(v)) for i, (u, v) in enumerate(values)]
    header = ["operator", "elements", "nodes_per_element", "total_nodes", "error_norm",
              "observed_order"]
    path = tmp_path / "rows.csv"
    cli.write_csv(path, header, (list(row) if i % 3 else row for i, row in enumerate(rows)))
    assert path.read_text() == csv_text(header, rows)
    assert len(path.read_bytes().splitlines()) == count + 1


@pytest.mark.parametrize("command", ["solve", "converge"])
@pytest.mark.parametrize("key, value", [("a", 0), ("a", -1.5), ("eps", -0.1), ("eps", -1e-300),
                                        ("final_time", 0), ("final_time", -2)])
def test_out_of_range_params_exit_2_naming_their_key(tmp_path, capsys, command, key, value):
    # a > 0, eps >= 0 and final_time > 0 are read by the key table, before
    # PdeParams sees them
    config = ({**ADVECTION_SOLVE, "params": {key: value}} if command == "solve"
              else {"study": "advection", "params": {key: value}})
    cfg = write_config(tmp_path / "bad.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"validation error: invalid 'params.{key}' {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    report = read_every_json(out)["fixtures_report.json"]
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


PURE_RATE_20 = {"family": "exponential", "rates": [20.0], "poly_degree": 0, "interval": [0, 1]}
FULL_PERIOD_TRIG = {"family": "trig", "max_harmonic": 1, "freq_scale": 2.0, "interval": [0, 1]}


@pytest.mark.parametrize("command, config, flags, code", [
    ("operator", {"space": refcases.EXP3_SPEC}, ["--mode", "ggq"], 2),
    ("rule", {"space": refcases.EXP3_SPEC}, ["--mode", "sideways"], 2),
    ("rule", {"space": {"family": "trig", "max_harmonic": 2, "interval": [1, 1]}}, [], 2),
    ("operator", {**TRIG_OPERATOR, "node_mode": "classical-gll"}, [], 2),
    ("rule", {"space": FULL_PERIOD_TRIG}, [], 4),
    ("rule", {"space": PURE_RATE_20, "mode": "open"}, [], 3),
], ids=["unknown-node-mode", "unknown-rule-mode", "degenerate-interval", "gll-on-trig",
        "screen-failure", "failed-open-solve"])
def test_run_refused_before_its_first_write_makes_no_directory(tmp_path, capsys, command,
                                                               config, flags, code):
    cfg = write_config(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith(f"fsbp {command}: ")
    # an unknown mode is named
    assert all(repr(value) in err for value in flags[1::2])
    assert not out.exists()


@pytest.mark.parametrize("node_mode, n_nodes", [
    ("gglq", 9), ("equispaced", 4.0), ("equispaced", 1),
])
def test_pipeline_refuses_a_bad_node_budget(node_mode, n_nodes):
    # every caller is refused, not the command line alone
    with pytest.raises(ValueError, match="'n_nodes'"):
        build_study_operator(refcases.EXP3_SPEC, node_mode, n_nodes=n_nodes)


def test_march_past_the_step_bound_exits_2_before_it_allocates(tmp_path, capsys):
    # the gglq operator for {1, e^-s, e^s, e^2s} on 4 elements, advection to
    # t = 1 at cfl 1e-6: 16.5 million steps, 264 MB of step arrays were
    # they allocated
    cfg = write_config(tmp_path / "solve.json", {"pde": "advection", "cfl": 1e-6, "operator": {
        "space": {"family": "exponential", "rates": [-1.0, 1.0, 2.0], "interval": [0, 1]}}})
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main(["solve", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "the march needs 1.65e+07 steps" in err and "MAX_STEPS = 1000000" in err
    assert peak < 8e6
    assert not out.exists()


def test_study_records_a_march_past_the_step_bound_as_a_row_error():
    rows = cli.convergence_study(cubic_gll_study(), PdeParams(a=1.0, final_time=1.0),
                                 MmsCase.zero_data(), 1e-7, [8, 16])
    assert [row["error"].startswith("ValueError: the march needs") for row in rows] == [True] * 2
    # built, so each row reports the operator's nodes
    assert [(row["nodes_per_element"], row["total_nodes"]) for row in rows] == [(4, 8), (4, 16)]


def test_study_records_a_node_budget_outside_equispaced_in_every_row():
    study = cubic_gll_study(label="exp-gglq", spec=lambda n_el, params: refcases.EXP3_SPEC,
                      node_mode="gglq", n_nodes=9, nodes_per_element=5)
    rows = cli.convergence_study(study, PdeParams(a=1.0, final_time=0.1), MmsCase.zero_data(),
                                 0.1, [10, 20])
    assert len(rows) == 2
    for row in rows:
        assert row["error"].startswith("ValueError: 'n_nodes' is read by node mode 'equispaced'")
        assert "error_norm" not in row
    # failed before the build: the declared nodes
    assert [(row["nodes_per_element"], row["total_nodes"]) for row in rows] == [(5, 10), (5, 20)]


def test_linalg_error_exits_3(tmp_path, capsys, monkeypatch):
    # LinAlgError subclasses ValueError, yet it is a solver failure
    def no_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(pipeline, "orthonormalize", no_svd)
    cfg = write_config(tmp_path / "rule.json", {"space": refcases.EXP3_SPEC})
    out = tmp_path / "out"
    assert main(["rule", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "fsbp rule: solver error: LinAlgError: SVD did not converge\n"
    assert not out.exists()


EXIT_CODES = {"FamilyError": 2, "RankError": 3, "SolverError": 3, "ScreenFailure": 4,
              "IntegrationError": 3, "AssemblyError": 3, "BlowUpError": 3,
              "VerificationFailure": 4, "LinAlgError": 3}
FAILURES = [obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, Exception)] + [np.linalg.LinAlgError]


@pytest.mark.parametrize("failure", FAILURES, ids=lambda cls: cls.__name__)
def test_every_failure_exits_with_its_code(tmp_path, capsys, monkeypatch, failure):
    # each failure raised from the rule pipeline, as the command line calls it
    def failing(*args, **kwargs):
        raise failure("boom")

    monkeypatch.setattr(cli, "solve_rule_pipeline", failing)
    cfg = write_config(tmp_path / "rule.json", {"space": refcases.EXP3_SPEC})
    code = main(["rule", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == EXIT_CODES[failure.__name__]
    assert (code == 3) == (failure in errors.SOLVER_ERRORS)
    kind = {2: "validation error", 3: f"solver error: {failure.__name__}",
            4: "verification failure"}[code]
    err = capsys.readouterr().err
    assert err == f"fsbp rule: {kind}: boom\n"
    assert "Traceback" not in err
    assert failure is np.linalg.LinAlgError or failure.__module__ == "fsbp.errors"


def test_open_rule_file_exits_2_before_any_span(tmp_path, capsys, monkeypatch):
    # the open trig-3 rule has 6 nodes, enough for trig 1's 3 functions,
    # but an operator needs endpoint nodes
    cfg = write_config(tmp_path / "rule.json", {
        "space": {"family": "trig", "max_harmonic": 3, "interval": [0, 1]}, "mode": "open"})
    assert main(["rule", "--config", cfg, "--out", str(tmp_path / "rule")]) == 0
    assert len(json.loads((tmp_path / "rule" / "rule.json").read_text())["nodes"]) == 6
    capsys.readouterr()

    def no_span(*args, **kwargs):
        raise AssertionError("a span was built for an open rule")

    monkeypatch.setattr(pipeline, "product_derivative_space", no_span)
    op_cfg = write_config(tmp_path / "op.json", {
        "space": {"family": "trig", "max_harmonic": 1, "interval": [0, 1]},
        "rule": str(tmp_path / "rule" / "rule.json")})
    out = tmp_path / "op"
    assert main(["operator", "--config", op_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and "closed rule" in err
    assert not out.exists()
