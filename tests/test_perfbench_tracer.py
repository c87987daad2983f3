"""The benchmark's span tracer still fits the package's public names.

``perfbench/tracer.py`` looks up modules, classes and call signatures of
the package by name; a removed or renamed one would only show in a
traced benchmark run.  This installs the tracer, runs one small solve
through the CLI plus one direct adaptive integration (no CLI path
integrates adaptively) and uninstalls it again.  Nothing under
``perfbench/`` is written.
"""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import fsbp.integrate
from fsbp import cli, ibvp, pipeline

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_tracer_installs_and_uninstalls(tmp_path):
    originals = {(mod, name): getattr(mod, name)
                 for mod in (cli, pipeline, ibvp)
                 for name in ("build_study_operator", "run_case") if hasattr(mod, name)}
    tracer = load_tracer().Tracer()
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({
        "pde": "advection_diffusion",
        "params": {"a": 1.0, "eps": 0.1, "final_time": 0.05},
        "mms": "zero_data",
        "operator": {"space": {"family": "exponential", "rates": [2.5],
                               "poly_degree": 1, "interval": [0, 1]},
                     "node_mode": "gglq"},
        "elements": 2,
    }))
    tracer.install()
    try:
        assert all(getattr(mod, name) is not fn for (mod, name), fn in originals.items())
        assert cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert fsbp.integrate.integrate_vector(lambda x: x, 0.0, 1.0).converged
    finally:
        tracer.uninstall()
    assert all(getattr(mod, name) is fn for (mod, name), fn in originals.items())
    assert all(not hasattr(obj, "__wrapped__")
               for obj in vars(pipeline).values() if inspect.isfunction(obj))

    metrics = tracer.layer_metrics(1)
    assert metrics["pipeline.build_study_operator.calls"] == 1
    assert metrics["gauss.newton_solve.calls"] > 0
    assert metrics["gauss.homotopy_steps"] > 0
    assert metrics["integrate.integrate_vector.calls"] == 1
    assert metrics["operators.build_operator.calls"] == 1
    assert metrics["ibvp.rk4_steps"] > 0
    assert metrics["ibvp.time_integrate.s"] > 0
