"""Command-line front end.

Subcommands: ``rule`` (compute a generalised quadrature rule for a
function space), ``operator`` (assemble and verify a differentiation
operator), ``verify`` (re-check a stored operator), ``solve`` (run one
initial boundary value problem), ``converge`` (error-versus-resolution
study), ``fixtures`` (regenerate the frozen reference data).

Every command reads one JSON config, writes its outputs plus a run
manifest under --out, and is deterministic for identical config and
seed.  Exit codes: 0 success, 2 validation, 3 solver failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .integrate import Engine, IntegrationError
from .spaces import FamilyError, RankError, make_family, orthonormalize, product_derivative_space
from .gauss import (
    QuadratureRule,
    ScreenFailure,
    SolveOptions,
    SolverError,
    verify_exactness,
)
from .operators import (
    AssemblyError,
    build_operator,
    operator_from_dict,
    operator_to_dict,
    verify_sbp,
)
from .ibvp import BlowUpError, MmsCase, PdeParams, run_case
from .pipeline import build_study_operator, convergence_study, solve_rule_pipeline
from . import refcases

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFICATION = 4


class VerificationFailure(RuntimeError):
    """A requested check did not pass."""


def fmt(x: float) -> str:
    """17-significant-digit decimal rendering used in all CSV output."""
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj).__name__}")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Collects outputs and writes the manifest at the end of a command."""

    def __init__(self, command: str, args, config: dict):
        self.command = command
        self.args = args
        self.config = config
        self.out = Path(args.out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs: list[str] = []
        self.t0 = time.perf_counter()
        self.inputs = {}
        if getattr(args, "config", None):
            self.inputs[str(args.config)] = _sha256(Path(args.config))

    def path(self, name: str) -> Path:
        p = self.out / name
        self.outputs.append(str(p))
        return p

    def finish(self, extra: dict | None = None) -> None:
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "seed": int(getattr(self.args, "seed", 0)),
            "resolved_config": self.config,
            "input_fingerprints": self.inputs,
            "outputs": sorted(self.outputs),
            "wall_time_s": time.perf_counter() - self.t0,
        }
        if extra:
            manifest.update(extra)
        write_json(self.out / "manifest.json", manifest)


def load_config(args) -> dict:
    if not getattr(args, "config", None):
        return {}
    p = Path(args.config)
    if not p.exists():
        raise FamilyError(f"config file not found: {p}")
    try:
        config = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise FamilyError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise FamilyError("config must be a JSON object")
    return config


def load_input(runner: Runner, args, config: dict, key: str, loader):
    """``loader`` applied to the JSON file named by ``config[key]``.

    A relative path is taken from the config's directory; the file is
    fingerprinted in the manifest, and a missing or malformed one is a
    validation error.
    """
    if not isinstance(config[key], str):
        raise FamilyError(f"'{key}' must be a file path, got {config[key]!r}")
    path = Path(config[key])
    if not path.is_absolute() and args.config:
        path = Path(args.config).parent / path
    if not path.exists():
        raise FamilyError(f"{key} file not found: {path}")
    runner.inputs[str(path)] = _sha256(path)
    try:
        return loader(json.loads(path.read_text()))
    except (AttributeError, KeyError, TypeError, IndexError) as exc:
        raise FamilyError(f"malformed {key} file {path}: {exc!r}") from exc


def _table(config: dict, key: str, default=None) -> dict:
    """The JSON object under ``key``; anything else is a validation error."""
    value = config.get(key, {} if default is None else default)
    if not isinstance(value, dict):
        raise FamilyError(f"'{key}' must be a JSON object, got {value!r}")
    return value


def _number(kind, value, what: str):
    """``kind(value)`` with a wrongly typed value reported as a validation error."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise FamilyError(f"'{what}' must be a number, got {value!r}") from exc


def _n_nodes(config: dict) -> int | None:
    n = config.get("n_nodes")
    if n is not None and (type(n) is not int or n < 2):
        raise FamilyError(f"'n_nodes' must be an integer of at least 2, got {n!r}")
    return n


def solve_options(config: dict) -> SolveOptions:
    tol = _table(config, "tolerances")
    known = SolveOptions().__dict__.keys()
    unknown = set(tol) - set(known)
    if unknown:
        raise FamilyError(f"unknown tolerance keys: {sorted(unknown)}")
    return SolveOptions(**tol)


def engine_from(config: dict) -> Engine:
    eng = _table(config, "engine")
    unknown = set(eng) - {"abs_tol", "rel_tol", "max_subdivisions"}
    if unknown:
        raise FamilyError(f"unknown engine keys: {sorted(unknown)}")
    return Engine(**eng)


def rule_files(runner: Runner, tag: str, rule: QuadratureRule) -> None:
    write_json(runner.path(f"{tag}.json"), rule.to_dict())
    write_csv(
        runner.path(f"{tag}.csv"),
        ["node", "weight"],
        zip(rule.nodes.tolist(), rule.weights.tolist()),
    )


def operator_files(runner: Runner, tag: str, op) -> None:
    write_json(runner.path(f"{tag}.json"), operator_to_dict(op))
    write_csv(runner.path(f"{tag}_nodes.csv"), ["node", "p"],
              zip(op.nodes.tolist(), op.P.tolist()))
    write_csv(runner.path(f"{tag}_d.csv"), [f"c{j}" for j in range(op.size)],
              (row.tolist() for row in op.D))
    write_csv(runner.path(f"{tag}_q.csv"), [f"c{j}" for j in range(op.size)],
              (row.tolist() for row in op.Q))


# ---------------------------------------------------------------------------
# subcommands

def cmd_rule(args) -> int:
    config = load_config(args)
    if "space" not in config:
        raise FamilyError("rule config needs a 'space' family descriptor")
    mode = args.mode or config.get("mode", "closed")
    opts = solve_options(config)
    engine = engine_from(config)
    runner = Runner("rule", args, {**config, "mode": mode, "seed": args.seed})

    result = solve_rule_pipeline(
        config["space"], mode, opts, engine,
        force=args.force_tchebyshev, rng_seed=args.seed,
    )
    rule_files(runner, "rule", result.rule)
    ortho = result.orthonormal
    write_json(runner.path("basis.json"), {
        "parent_family": result.target.family_spec,
        "interval": list(ortho.interval),
        "coefficients": ortho.coeff_matrix.tolist(),
    })
    runner.finish({
        "dims": result.dims,
        "screen": result.screen,
        "certificate": result.rule.certificate.to_dict(),
    })
    if not result.rule.certificate.valid:
        raise VerificationFailure(
            f"exactness certificate invalid: {result.rule.certificate.max_abs_error:.3e}"
        )
    return EXIT_OK


def cmd_operator(args) -> int:
    config = load_config(args)
    if "space" not in config:
        raise FamilyError("operator config needs a 'space' family descriptor")
    opts = solve_options(config)
    engine = engine_from(config)
    runner = Runner("operator", args, {**config, "seed": args.seed})
    space = make_family(config["space"])

    if "rule" in config:
        rule = load_input(runner, args, config, "rule", QuadratureRule.from_dict)
        target = orthonormalize(product_derivative_space(space), engine)
        rule.certificate = verify_exactness(rule, target, None, engine,
                                            tol=opts.certificate_tol)
        op = build_operator(space, rule)
        verdict = verify_sbp(op, space, rng_seed=args.seed)
    else:
        node_mode = args.mode or config.get("node_mode", "gglq")
        op, rule, verdict = build_study_operator(
            config["space"], node_mode, opts, engine,
            force=args.force_tchebyshev, rng_seed=args.seed,
            n_nodes=_n_nodes(config),
        )
    operator_files(runner, "operator", op)
    rule_files(runner, "rule", rule)
    write_json(runner.path("verdict.json"), verdict.to_dict())
    runner.finish({"verdict": verdict.to_dict()})
    return EXIT_OK


def cmd_verify(args) -> int:
    config = load_config(args)
    for key in ("operator", "space"):
        if key not in config:
            raise FamilyError(f"verify config needs an '{key}' entry")
    runner = Runner("verify", args, {**config, "seed": args.seed})
    op = load_input(runner, args, config, "operator", operator_from_dict)
    space = make_family(config["space"])
    verdict = verify_sbp(op, space, rng_seed=args.seed)
    write_json(runner.path("verdict.json"), verdict.to_dict())
    runner.finish({"verdict": verdict.to_dict()})
    if not verdict.passed:
        raise VerificationFailure(
            f"operator failed verification (exactness defect "
            f"{verdict.max_exactness_error:.3e}, min weight {verdict.min_weight:.3e})"
        )
    return EXIT_OK


def _mms_case(name: str, params: PdeParams) -> MmsCase | None:
    if name == "oscillatory_wave":
        return MmsCase.advecting_wave(params.a)
    if name == "boundary_layer":
        if params.eps <= 0:
            raise FamilyError("boundary_layer case needs eps > 0")
        return MmsCase.boundary_layer(params.a, params.eps)
    if name == "zero_data":
        return MmsCase(
            exact=lambda x, t: np.zeros_like(np.asarray(x, dtype=float)),
            initial=lambda x: np.sin(np.pi * np.asarray(x, dtype=float)) ** 2,
            boundary_left=lambda t: 0.0,
            boundary_right=lambda t: 0.0,
        )
    raise FamilyError(f"unknown mms case {name!r}")


def _pde_params(p: dict) -> PdeParams:
    return PdeParams(
        a=_number(float, p.get("a", 1.0), "a"),
        eps=_number(float, p.get("eps", 0.0), "eps"),
        final_time=_number(float, p.get("final_time", 1.0), "final_time"),
    )


def cmd_solve(args) -> int:
    config = load_config(args)
    for key in ("pde", "operator"):
        if key not in config:
            raise FamilyError(f"solve config needs a '{key}' entry")
    pde = config["pde"]
    if pde not in ("advection", "advection_diffusion"):
        raise FamilyError(f"unknown pde {pde!r}")
    op_cfg = _table(config, "operator")
    if "space" not in op_cfg:
        raise FamilyError("solve 'operator' entry needs a 'space' family descriptor")
    params = _pde_params(_table(config, "params"))
    case = _mms_case(config.get("mms", "zero_data"), params)
    opts = solve_options(config)
    engine = engine_from(config)
    n_elements = _number(int, config.get("elements", 4), "elements")
    cfl = _number(float, config.get("cfl", 0.1), "cfl")
    runner = Runner("solve", args, {**config, "seed": args.seed,
                                    "elements": n_elements, "cfl": cfl})

    op, _, verdict = build_study_operator(
        op_cfg["space"], op_cfg.get("node_mode", "gglq"), opts, engine,
        force=args.force_tchebyshev, rng_seed=args.seed,
        n_nodes=_n_nodes(op_cfg),
    )
    result = run_case(pde, op, n_elements, params, case, cfl)
    grid, y, trace = result.grid, result.y, result.trace
    if trace.aux is not None:
        write_csv(runner.path("energy.csv"), ["time", "energy", "aux_dissipation"],
                  zip(trace.times.tolist(), trace.energy.tolist(), trace.aux.tolist()))
    else:
        write_csv(runner.path("energy.csv"), ["time", "energy"],
                  zip(trace.times.tolist(), trace.energy.tolist()))
    write_csv(
        runner.path("solution.csv"), ["element", "x", "u"],
        ((e, x, u) for e in range(grid.n_elements)
         for x, u in zip(grid.nodes[e].tolist(), y[e].tolist())),
    )
    runner.finish({
        "verdict": verdict.to_dict(),
        "sat_coefficients": dict(result.problem.sats.__dict__),
        "final_error_norm": result.error,
        "final_error_squared": result.error_sq,
        "steps": len(trace.times) - 1,
        "dt": result.dt,
        "max_energy_increase": float(np.max(np.diff(trace.energy)))
        if len(trace.energy) > 1 else 0.0,
    })
    return EXIT_OK


def _study_rows(study_name: str, config: dict, opts, engine, seed, force) -> list[dict]:
    frozen = (refcases.ADVECTION_STUDY if study_name == "advection"
              else refcases.ADVECTION_DIFFUSION_STUDY)
    p = _table(config, "params", frozen["params"])
    params = _pde_params(p)
    case = _mms_case(config.get("mms", frozen["mms"]), params)
    cfl = _number(float, config.get("cfl", frozen["cfl"]), "cfl")
    totals = config.get("totals")
    if totals is not None and not (
            isinstance(totals, list) and all(type(n) is int for n in totals)):
        raise FamilyError(f"'totals' must be a list of integers, got {totals!r}")
    if study_name == "advection":
        cfgs = refcases.advection_study_configs(totals)
    else:
        eps = _number(float, p.get("eps", 0.1), "eps")
        if eps <= 0:
            raise FamilyError("the advection_diffusion study needs eps > 0")
        cfgs = refcases.advection_diffusion_study_configs(totals, a=params.a, eps=eps)
    if any(n_el < 1 for cfg in cfgs for n_el in cfg["elements"]):
        raise FamilyError(f"totals {totals} leave a configuration without elements")
    return convergence_study(frozen["pde"], cfgs, params, case, cfl,
                             opts, engine, force, seed)


def cmd_converge(args) -> int:
    config = load_config(args)
    study = config.get("study")
    if study not in ("advection", "advection_diffusion"):
        raise FamilyError("converge config needs 'study': 'advection' or 'advection_diffusion'")
    opts = solve_options(config)
    engine = engine_from(config)
    runner = Runner("converge", args, {**config, "seed": args.seed})
    rows = _study_rows(study, config, opts, engine, args.seed, args.force_tchebyshev)
    header = ["operator", "elements", "nodes_per_element", "total_nodes",
              "error_norm", "observed_order"]
    write_csv(
        runner.path("convergence.csv"), header,
        ((r["operator"], r["elements"], r["nodes_per_element"], r["total_nodes"],
          float(r.get("error_norm", float("nan"))),
          float(r.get("observed_order", float("nan"))))
         for r in rows),
    )
    write_json(runner.path("convergence.json"), {"rows": rows})
    runner.finish({
        "n_rows": len(rows),
        "notes": "the polynomial baseline is the element Gauss-Lobatto operator "
                 "of degree 3 (fourth-order accurate)",
    })
    return EXIT_OK


def cmd_fixtures(args) -> int:
    config = load_config(args)
    opts = solve_options(config)
    engine = engine_from(config)
    runner = Runner("fixtures", args, {**config, "seed": args.seed})
    report = {}

    result = solve_rule_pipeline(refcases.EXP3_SPEC, "closed", opts, engine,
                                 rng_seed=args.seed)
    rule_files(runner, "exp3_closed_rule", result.rule)
    report["exp3_closed_nodes_delta"] = float(
        np.max(np.abs(result.rule.nodes - refcases.EXP3_CLOSED_NODES)))
    report["exp3_closed_weights_delta"] = float(
        np.max(np.abs(result.rule.weights - refcases.EXP3_CLOSED_WEIGHTS)))

    space = make_family(refcases.EXP3_SPEC)
    op = build_operator(space, result.rule)
    operator_files(runner, "exp3_closed_operator", op)
    report["exp3_closed_d_delta"] = float(np.max(np.abs(op.D - refcases.EXP3_CLOSED_D)))

    op5, rule5, _ = build_study_operator(refcases.EXP3_SPEC, "equispaced",
                                         opts, engine, rng_seed=args.seed)
    rule_files(runner, "exp3_equi5_rule", rule5)
    operator_files(runner, "exp3_equi5_operator", op5)
    report["exp3_equi5_weights_delta"] = float(
        np.max(np.abs(rule5.weights - refcases.EXP3_EQUI5_WEIGHTS)))

    uni = refcases.uniform4_operator()
    operator_files(runner, "exp3_uniform4_operator", uni)
    verdict = verify_sbp(uni, space, rng_seed=args.seed)
    write_json(runner.path("exp3_uniform4_verdict.json"), verdict.to_dict())
    report["uniform4_exactness_defect"] = verdict.max_exactness_error

    bessel_rule = refcases.bessel_reference_rule()
    rule_files(runner, "bessel25_rule", bessel_rule)

    write_json(runner.path("fixtures_report.json"), report)
    runner.finish({"report": report})
    ok = (
        report["exp3_closed_nodes_delta"] <= 1e-8
        and report["exp3_closed_weights_delta"] <= 1e-8
        and report["exp3_closed_d_delta"] <= 1e-6
        and report["exp3_equi5_weights_delta"] <= 1e-8
        and 1e-4 <= report["uniform4_exactness_defect"] <= 2e-4
    )
    if not ok:
        raise VerificationFailure(f"fixture regeneration drifted: {report}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsbp",
        description="Generalised Gauss/Lobatto rules and function-space SBP operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("rule", cmd_rule), ("operator", cmd_operator), ("verify", cmd_verify),
        ("solve", cmd_solve), ("converge", cmd_converge), ("fixtures", cmd_fixtures),
    ]:
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to the JSON config")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--mode", help="rule mode (open/closed) or operator node mode")
        p.add_argument("--force-tchebyshev", action="store_true",
                       help="proceed past a failing Tchebyshev screen")
        p.add_argument("--seed", type=int, default=0, help="seed for screens and checks")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FamilyError, json.JSONDecodeError) as exc:
        print(f"fsbp {args.command}: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, IntegrationError, AssemblyError, BlowUpError, RankError) as exc:
        print(f"fsbp {args.command}: solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ScreenFailure, VerificationFailure) as exc:
        print(f"fsbp {args.command}: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except np.linalg.LinAlgError as exc:   # a ValueError subclass: test it first
        print(f"fsbp {args.command}: solver error: LinAlgError: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        print(f"fsbp {args.command}: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
