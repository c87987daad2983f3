"""Command-line front end.

Subcommands: ``rule`` (compute a generalised quadrature rule for a
function space), ``operator`` (assemble and verify a differentiation
operator), ``verify`` (re-check a stored operator), ``solve`` (run one
initial boundary value problem), ``converge`` (error-versus-resolution
study, run by ``convergence_study`` on the pipeline's operators and the
PDE layer's solves), ``fixtures`` (regenerate the frozen reference data).

Every command reads one JSON config, writes its outputs plus a run
manifest under --out, and is deterministic: its outputs are a function
of the config (and the files it names) alone.  A command reads its
config through its key table (``RULE``, ``OPERATOR``, ``VERIFY``,
``SOLVE``, ``CONVERGE``, ``FIXTURES``; a family descriptor through its
family's in ``spaces.FAMILIES``) with ``spaces.check``, before any work:
a key outside the table exits 2, naming its path.  Exit codes, as
``fsbp.errors`` maps the failures: 0 success, 2 validation, 3 solver
failure, 4 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (REQUIRED, SOLVER_ERRORS, AssemblyError, FamilyError, ScreenFailure,
                     StageTimer, VerificationFailure, integer, items, number, string)
from .spaces import FAMILIES, check, make_family
from .gauss import QuadratureRule
from .operators import operator_from_dict, operator_to_dict, verify_sbp
from .ibvp import BLOCK_STEPS, MmsCase, PdeParams, run_case
from .pipeline import build_rule_operator, build_study_operator, solve_rule_pipeline
from . import pipeline, refcases

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERIFICATION = 4

# the stages whose wall seconds `solve` and `converge` record in the
# manifest's "timings" (summed over the rows of a study); `rule`,
# `operator` and `verify` record their own two
TIMED_STAGES = ("operator_build_s", "assembly_s", "march_s", "output_write_s")

# the key tables, read by ``spaces.check``: a None parser leaves the value
# to the layer that reads it; in CONVERGE a None default, and a null
# "totals", stand for the study's own value
PDE = string("advection", "advection_diffusion")
MMS = string("zero_data", "oscillatory_wave", "boundary_layer")
TOTALS = items(integer(strict=True), 1)
PARAMS = {"a": (number(0.0), 1.0), "eps": (number(0.0, inclusive=True), 0.0),
          "final_time": (number(0.0), 1.0)}
RULE = {"space": (FAMILIES, REQUIRED), "mode": (None, "closed")}
OPERATOR = {"space": (FAMILIES, REQUIRED), "rule": (string(), None),
            "node_mode": (None, "gglq"), "n_nodes": (None, None)}
VERIFY = {"operator": (string(), REQUIRED), "space": (FAMILIES, REQUIRED)}
SOLVE = {
    "pde": (PDE, REQUIRED),
    "mms": (MMS, "zero_data"),
    "elements": (integer(1, strict=True), 4),
    "cfl": (number(0.0), 0.1),
    "params": (PARAMS, {}),
    "operator": ({"space": (FAMILIES, REQUIRED), "node_mode": (None, "gglq"),
                  "n_nodes": (None, None)}, REQUIRED),
}
CONVERGE = {
    "study": (PDE, REQUIRED),
    "mms": (MMS, None),
    "cfl": (number(0.0), None),
    "params": ({key: (parse, None) for key, (parse, _) in PARAMS.items()}, {}),
    "totals": (lambda value: value if value is None else TOTALS(value), None),
}
FIXTURES = {}


# rows that ``write_csv`` formats and writes at once
CSV_CHUNK = 512


def write_csv(path: Path, header: list[str], rows) -> None:
    """CSV file of ``rows`` under ``header``: floats in 17 significant
    digits, every other value as ``str``.  The first row fixes each
    column's format, one %-format string per row; the rows are streamed
    in chunks of ``CSV_CHUNK``, so the file's text is never held whole."""
    rows = map(tuple, rows)
    first = next(rows, None)
    with path.open("w") as out:
        out.write(",".join(header) + "\n")
        if first is None:
            return
        fmt = ",".join(["%.17g" if isinstance(v, float) else "%s" for v in first]) + "\n"
        out.write(fmt % first)
        while text := "".join(map(fmt.__mod__, itertools.islice(rows, CSV_CHUNK))):
            out.write(text)


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path) -> tuple[object, str]:
    """The JSON value in ``path`` and the SHA-256 of the bytes parsed, read once."""
    raw = path.read_bytes()
    return json.loads(raw.decode()), hashlib.sha256(raw).hexdigest()


class Runner:
    """Collects outputs and writes the manifest at the end of a command;
    ``--out`` is made at the first write, so a refused run leaves none.
    ``inputs`` maps each file read to its fingerprint (``_read_json``)."""

    def __init__(self, command: str, args, config: dict, inputs: dict):
        self.command = command
        self.args = args
        self.config = config
        self.out = Path(args.out)
        self.outputs: list[str] = []
        self.t0 = time.perf_counter()
        self.inputs = dict(inputs)

    def path(self, name: str) -> Path:
        if not self.outputs:
            self.out.mkdir(parents=True, exist_ok=True)
        p = self.out / name
        self.outputs.append(str(p))
        return p

    def finish(self, extra: dict | None = None) -> None:
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "resolved_config": self.config,
            "input_fingerprints": self.inputs,
            "outputs": sorted(self.outputs),
            "wall_time_s": time.perf_counter() - self.t0,
        }
        if extra:
            manifest.update(extra)
        self.out.mkdir(parents=True, exist_ok=True)
        write_json(self.out / "manifest.json", manifest)


def load_config(args, table: dict) -> tuple[dict, dict, dict]:
    """The config file's object ({} without one), its values by ``table``
    and the ``Runner``'s inputs: the file's fingerprint, if there is one."""
    config, inputs = {}, {}
    if args.config:
        p = Path(args.config)
        if not p.is_file():
            raise FamilyError(f"config file not found: {p}")
        try:
            config, inputs[str(args.config)] = _read_json(p)
        except json.JSONDecodeError as exc:
            raise FamilyError(f"config is not valid JSON: {exc}") from exc
    return config, check(config, table), inputs


def load_input(runner: Runner, args, name: str, key: str, loader):
    """``loader`` applied to the JSON file ``name``, the config's ``key``.

    A relative path is taken from the config's directory; the file is
    fingerprinted in the manifest, and a missing or malformed one is a
    validation error.
    """
    path = Path(name)
    if not path.is_absolute() and args.config:
        path = Path(args.config).parent / path
    if not path.is_file():
        raise FamilyError(f"{key} file not found: {path}")
    value, runner.inputs[str(path)] = _read_json(path)
    try:
        return loader(value)
    except (AttributeError, KeyError, TypeError, IndexError) as exc:
        raise FamilyError(f"malformed {key} file {path}: {exc!r}") from exc


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
    config, values, inputs = load_config(args, RULE)
    mode = args.mode or values["mode"]
    runner = Runner("rule", args, {**config, "mode": mode}, inputs)

    timings = {}
    with StageTimer(timings, "rule_solve_s"):
        result = solve_rule_pipeline(values["space"], mode)
    with StageTimer(timings, "output_write_s"):
        rule_files(runner, "rule", result.rule)
        ortho = result.orthonormal
        write_json(runner.path("basis.json"), {
            "parent_family": ortho.parent.family_spec,
            "interval": list(ortho.interval),
            "coefficients": ortho.coeff_matrix.tolist(),
        })
    stages = result.rule.trace["stages"]
    runner.finish({
        "timings": timings,
        "dims": result.dims,
        "certificate": result.rule.certificate.to_dict(),
        "counters": {
            "homotopy_steps": sum(len(s["steps"]) for s in stages),
            "newton_iterations": sum(step["iterations"] for s in stages for step in s["steps"]),
            "rejected_blend_steps": sum(s["rejected"] for s in stages),
        },
    })
    if not result.rule.certificate.valid:
        raise VerificationFailure(
            f"exactness certificate invalid: {result.rule.certificate.max_abs_error:.3e}"
        )
    return EXIT_OK


def cmd_operator(args) -> int:
    config, values, inputs = load_config(args, OPERATOR)
    given = [f"--mode {args.mode}"] if args.mode else []
    given += [f"'{key}' {config[key]!r}" for key in ("node_mode", "n_nodes") if key in config]
    if values["rule"] is not None and given:
        raise FamilyError(f"the config names a 'rule' file and {given[0]}: "
                          "an operator takes its nodes from one of them")
    runner = Runner("operator", args, config, inputs)

    timings = {}
    with StageTimer(timings, "operator_build_s"):
        if values["rule"] is not None:
            space = make_family(values["space"])
            rule = load_input(runner, args, values["rule"], "rule", QuadratureRule.from_dict)
            op, rule, verdict = build_rule_operator(space, rule)
        else:
            op, rule, verdict = build_study_operator(
                values["space"], args.mode or values["node_mode"], n_nodes=values["n_nodes"],
            )
    with StageTimer(timings, "output_write_s"):
        operator_files(runner, "operator", op)
        rule_files(runner, "rule", rule)
        write_json(runner.path("verdict.json"), verdict.to_dict())
    runner.finish({"timings": timings, "verdict": verdict.to_dict()})
    return EXIT_OK


def cmd_verify(args) -> int:
    config, values, inputs = load_config(args, VERIFY)
    runner = Runner("verify", args, config, inputs)
    op = load_input(runner, args, values["operator"], "operator", operator_from_dict)
    space = make_family(values["space"])
    timings = {}
    with StageTimer(timings, "verify_s"):
        verdict = verify_sbp(op, space)
    with StageTimer(timings, "output_write_s"):
        write_json(runner.path("verdict.json"), verdict.to_dict())
    runner.finish({"timings": timings, "verdict": verdict.to_dict()})
    if not verdict.passed:
        raise VerificationFailure(
            f"operator failed verification (exactness defect "
            f"{verdict.max_exactness_error:.3e}, min weight {verdict.min_weight:.3e})"
        )
    return EXIT_OK


def _mms_case(name: str, pde: str, params: PdeParams) -> MmsCase:
    """The manufactured case ``name`` of ``pde``, checked before any build."""
    if name not in ("zero_data", {"advection": "oscillatory_wave",
                                  "advection_diffusion": "boundary_layer"}[pde]):
        raise FamilyError(f"mms case {name!r} does not solve the {pde} equation")
    if pde == "advection_diffusion" and params.eps <= 0:
        raise FamilyError("the advection_diffusion equation needs eps > 0")
    if name == "zero_data":
        return MmsCase.zero_data()
    if name == "oscillatory_wave":
        return MmsCase.advecting_wave(params.a)
    return MmsCase.boundary_layer(params.a, params.eps)


def cmd_solve(args) -> int:
    config, values, inputs = load_config(args, SOLVE)
    pde, op_cfg, n_elements, cfl = (values[key] for key in ("pde", "operator", "elements", "cfl"))
    params = PdeParams(**values["params"])
    case = _mms_case(values["mms"], pde, params)
    runner = Runner("solve", args, {**config, "elements": n_elements, "cfl": cfl}, inputs)

    timings = dict.fromkeys(TIMED_STAGES, 0.0)
    with StageTimer(timings, "operator_build_s"):
        op, _, verdict = build_study_operator(
            op_cfg["space"], op_cfg["node_mode"], n_nodes=op_cfg["n_nodes"],
        )
    result = run_case(pde, op, n_elements, params, case, cfl, timings=timings)
    grid, y, trace = result.grid, result.y, result.trace
    with StageTimer(timings, "output_write_s"):
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
    steps = len(trace.times) - 1
    runner.finish({
        "timings": timings,
        # which march ran: no data columns is the march of u <- R u alone
        "counters": {"data_columns": result.problem.C.shape[1],
                     "march_blocks": -(-steps // BLOCK_STEPS)},
        "verdict": verdict.to_dict(),
        "sat_coefficients": result.problem.sats,
        "final_error_norm": result.error,
        "final_error_squared": result.error_sq,
        "steps": steps,
        "dt": result.dt,
        "max_energy_increase": float(np.max(np.diff(trace.energy)))
        if len(trace.energy) > 1 else 0.0,
        "energy_certificate": result.problem.energy_certificate(),
    })
    return EXIT_OK


# The study runner uses both layers, so it sits above them, here; in
# ibvp.py, the largest module, its compile would raise the import's peak.
# Failures recorded in a study row; anything else (a failed Tchebyshev
# screen included) aborts the study:
STUDY_ERRORS = SOLVER_ERRORS + (ValueError,)


def convergence_study(
    study: dict,
    params: PdeParams,
    case: MmsCase,
    cfl: float,
    totals: list[int],
    timings: dict | None = None,
) -> list[dict]:
    """Error-versus-resolution rows of one study, an entry of
    ``refcases.STUDIES``: one row per operator and total node count.

    An operator's element count at a level is the total // its nodes per
    element; a total that leaves any operator without elements is refused
    before any build.  Operators are built once per distinct (spec, node
    mode, node budget), so a spec that does not depend on the element
    count is built once per study.  Rows report the nodes per element and
    total nodes of the operator built (the declared ones when the level
    failed before its build), the error norm, whether the operator
    passed verification and the observed order against the previous
    level.  A level whose operator has other than its declared nodes per
    element is not solved, so that every error compares matched totals.
    A failed level records its error and leaves the next level without
    an order.  With ``timings``, the wall seconds of the operator
    builds, assemblies and marches are summed into its
    ``operator_build_s``, ``assembly_s`` and ``march_s``; rows carry no
    timings.
    """
    levels = [[total // cfg["nodes_per_element"] for total in totals]
              for cfg in study["operators"]]
    if any(n_el < 1 for elements in levels for n_el in elements):
        raise FamilyError(f"totals {totals} leave a configuration without elements")
    built = {}      # (spec, node mode, node budget) -> (operator, verdict)
    rows = []
    for cfg, elements in zip(study["operators"], levels):
        prev = None
        for n_el in elements:
            row = {
                "operator": cfg["label"],
                "elements": n_el,
                "nodes_per_element": cfg["nodes_per_element"],
                "total_nodes": n_el * cfg["nodes_per_element"],
            }
            try:
                spec = cfg["spec"](n_el, params)
                key = (json.dumps(spec, sort_keys=True), cfg["node_mode"], cfg.get("n_nodes"))
                if key not in built:
                    with StageTimer(timings, "operator_build_s"):
                        op, _, verdict = pipeline.build_study_operator(
                            spec, cfg["node_mode"], n_nodes=cfg.get("n_nodes"),
                        )
                    built[key] = op, verdict
                op, verdict = built[key]
                row["nodes_per_element"], row["total_nodes"] = op.size, n_el * op.size
                if op.size != cfg["nodes_per_element"]:
                    raise AssemblyError(f"operator has {op.size} nodes per element, "
                                        f"not {cfg['nodes_per_element']}")
                err = run_case(study["pde"], op, n_el, params, case, cfl, dissipation=False,
                               timings=timings).error
                row["error_norm"] = err
                row["operator_exact"] = bool(verdict.passed)
                if prev is not None and err > 0 and prev["error_norm"] > 0:
                    row["observed_order"] = float(
                        np.log(prev["error_norm"] / err) / np.log(n_el / prev["elements"])
                    )
                prev = row
            except STUDY_ERRORS as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
                prev = None
            rows.append(row)
    return rows


def cmd_converge(args) -> int:
    config, values, inputs = load_config(args, CONVERGE)
    study = refcases.STUDIES[values["study"]]
    given = {key: value for key, value in values["params"].items() if value is not None}
    params = PdeParams(**{**study["params"], **given})
    case = _mms_case(values["mms"] or study["mms"], study["pde"], params)
    runner = Runner("converge", args, config, inputs)
    timings = dict.fromkeys(TIMED_STAGES, 0.0)
    rows = convergence_study(study, params, case, values["cfl"] or study["cfl"],
                             values["totals"] or study["matched_totals"], timings)
    header = ["operator", "elements", "nodes_per_element", "total_nodes",
              "error_norm", "observed_order"]
    with StageTimer(timings, "output_write_s"):
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
        "timings": timings,
        "notes": "the polynomial baseline is the element Gauss-Lobatto operator "
                 "of degree 3 (fourth-order accurate)",
    })
    return EXIT_OK


def cmd_fixtures(args) -> int:
    config, _, inputs = load_config(args, FIXTURES)
    runner = Runner("fixtures", args, config, inputs)
    report = {}

    op, rule, _ = build_study_operator(refcases.EXP3_SPEC, "gglq")
    rule_files(runner, "exp3_closed_rule", rule)
    report["exp3_closed_nodes_delta"] = float(
        np.max(np.abs(rule.nodes - refcases.EXP3_CLOSED_NODES)))
    report["exp3_closed_weights_delta"] = float(
        np.max(np.abs(rule.weights - refcases.EXP3_CLOSED_WEIGHTS)))
    operator_files(runner, "exp3_closed_operator", op)
    report["exp3_closed_d_delta"] = float(np.max(np.abs(op.D - refcases.EXP3_CLOSED_D)))

    op5, rule5, _ = build_study_operator(refcases.EXP3_SPEC, "equispaced")
    rule_files(runner, "exp3_equi5_rule", rule5)
    operator_files(runner, "exp3_equi5_operator", op5)
    report["exp3_equi5_weights_delta"] = float(
        np.max(np.abs(rule5.weights - refcases.EXP3_EQUI5_WEIGHTS)))

    uni = refcases.uniform4_operator()
    operator_files(runner, "exp3_uniform4_operator", uni)
    verdict = verify_sbp(uni, make_family(refcases.EXP3_SPEC))
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

@functools.cache
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
        # each flag only on the commands that read it
        if name in ("rule", "operator"):
            p.add_argument("--mode", help="rule mode (open/closed) or operator node mode")
        # parsed and never read: no output depends on a seed.  The
        # benchmark still passes --seed on every call; ROADMAP item 1, its
        # revision, removes this line, and --seed then exits 2
        p.add_argument("--seed", type=int, help=argparse.SUPPRESS)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code, as ``fsbp.errors`` maps
    the failures: a solver failure (``SOLVER_ERRORS``, LinAlgError
    included) exits 3, a failed screen or check (``ScreenFailure``,
    ``VerificationFailure``) 4, and any other ValueError 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SOLVER_ERRORS as exc:
        print(f"fsbp {args.command}: solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ScreenFailure, VerificationFailure) as exc:
        print(f"fsbp {args.command}: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except ValueError as exc:
        print(f"fsbp {args.command}: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
