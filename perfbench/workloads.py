"""Seeded workloads: the CLI calls of one pass and the check of each call.

A workload is an ordered list of :class:`Call`.  Building it writes every
call's JSON config under a work directory; running a call invokes
``fsbp.cli.main`` in process and then checks the files the call wrote.
A check returns ``None`` when the outputs are correct, otherwise a short
reason.  Exit codes other than 0 are failures too; a call that exits 0
with outputs that fail their check is a wrong answer.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# frozen Bessel space of the paper's long-interval case (refcases.BESSEL_SPEC)
BESSEL_SPEC = {"family": "bessel", "orders": list(range(10)), "interval": [0, 25]}

# n = 5 ... 25 Gauss-Lobatto nodes.  Degrees 19 and 22 fail in the
# classical-gll operator (RankError, exit 3); timed calls must not fail, so
# they are left to the KNOWN_FAILURES probes.
HIGH_ORDER_DEGREES = [d for d in range(4, 25) if d not in (19, 22)]

# Seed of the program's own randomness (the Tchebyshev screen's random
# grids, the test pairs of verify_sbp), passed to every timed call as
# --seed.  It is the same in every run: for some spaces the screen's
# Nelder-Mead refinement finds a degenerate grid under some seeds only (see
# the exp2445 probe), so a call's success would otherwise hinge on the
# workload seed, which chooses the inputs instead.
CLI_SEED = 0

# untimed probes of known failures:
# (name, subcommand, mode, config, --seed, expected exit)
KNOWN_FAILURES = (
    ("mono12_unit_closed", "rule", "closed",
     {"space": {"family": "monomial", "degree": 12, "interval": [0, 1]}}, CLI_SEED, 3),
    ("exp0599_closed", "rule", "closed",
     {"space": {"family": "exponential", "rates": [0.599], "poly_degree": 2,
                "interval": [0, 1]}}, CLI_SEED, 4),
    ("exp0599_open", "rule", "open",
     {"space": {"family": "exponential", "rates": [0.599], "poly_degree": 2,
                "interval": [0, 1]}}, CLI_SEED, 3),
    # passes under --seed 0; under 31337 the screen reports a minimum scaled
    # determinant of about 1e-304 and the rule exits 4
    ("exp2445_open_seed31337", "rule", "open",
     {"space": {"family": "exponential", "rates": [2.445], "poly_degree": 2,
                "interval": [0, 1]}}, 31337, 4),
    ("mono19_gll_operator", "operator", "classical-gll",
     {"space": {"family": "monomial", "degree": 19, "interval": [-1, 1]}}, CLI_SEED, 3),
    ("mono22_gll_operator", "operator", "classical-gll",
     {"space": {"family": "monomial", "degree": 22, "interval": [-1, 1]}}, CLI_SEED, 3),
)

Check = Callable[[Path], "str | None"]


@dataclass
class Call:
    """One CLI invocation: argv without --out/--seed, its output dir and check."""

    label: str
    argv: list
    out: Path
    check: Check
    seed: int = CLI_SEED

    def cli_args(self) -> list:
        return [*self.argv, "--out", str(self.out), "--seed", str(self.seed)]

    def clear(self) -> None:
        """Remove the previous outputs so the check only sees this call's."""
        shutil.rmtree(self.out, ignore_errors=True)


def _config(work: Path, label: str, payload: dict) -> tuple[Path, Path]:
    d = work / label
    d.mkdir(parents=True, exist_ok=True)
    cfg = d / "config.json"
    cfg.write_text(json.dumps(payload, indent=1, sort_keys=True))
    return cfg, d / "out"


def _load(path: Path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# checks

def check_rule(spec: dict, closed: bool) -> Check:
    """Certified exact, positive weights, increasing nodes inside the interval,
    and the generalised Gauss (Lobatto) node count for the target span."""
    a, b = (float(v) for v in spec["interval"])

    def check(out: Path):
        rule = _load(out / "rule.json")
        cert = rule.get("certificate")
        if not cert or not cert["valid"] or not cert["max_abs_error"] <= cert["tol"]:
            return f"certificate invalid: {cert and cert['max_abs_error']}"
        x, w = rule["nodes"], rule["weights"]
        if rule["interval"] != [a, b] or rule["closed"] != closed:
            return "rule interval or mode differs from the request"
        if len(x) != cert["target_dim"] // 2 + (1 if closed else 0):
            return f"{len(x)} nodes for a target span of dimension {cert['target_dim']}"
        if min(w) <= 0:
            return "non-positive weight"
        if any(q <= p for p, q in zip(x, x[1:])) or x[0] < a or x[-1] > b:
            return "nodes not increasing inside the interval"
        if closed and (x[0] != a or x[-1] != b):
            return "closed rule without both endpoints"
        return None

    return check


def _errors_by_label(rows: list) -> dict:
    errors: dict = {}
    for row in rows:
        errors.setdefault(row["operator"], []).append(row["error_norm"])
    return errors


def check_converge(study: str) -> Check:
    """No failed row, plus the orderings of acceptance criteria 7 and 8."""

    def check(out: Path):
        rows = _load(out / "convergence.json")["rows"]
        bad = [r for r in rows if "error" in r or "error_norm" not in r]
        if bad:
            return f"failed row: {bad[0]}"
        e = _errors_by_label(rows)
        levels = range(len(next(iter(e.values()))))
        if study == "advection":
            ordered = all(e["trig-optimal"][i] < e["trig-equispaced"][i] < e["poly-gll"][i]
                          for i in levels)
            monotone = all(s[i] > s[i + 1] for s in e.values() for i in levels[:-1])
            if not (ordered and monotone):
                return "criterion 7 ordering violated"
        else:
            best = all(e["exp-optimal"][i] < min(s[i] for k, s in e.items() if k != "exp-optimal")
                       for i in levels)
            if not (best and e["exp-optimal"][-1] <= 0.1 * e["poly-equispaced"][-1]):
                return "criterion 8 ordering violated"
        return None

    return check


def check_operator(n_nodes: int) -> Check:
    def check(out: Path):
        op = _load(out / "operator.json")
        if len(op["nodes"]) != n_nodes:
            return f"operator has {len(op['nodes'])} nodes, expected {n_nodes}"
        return None

    return check


def check_verify(out: Path):
    verdict = _load(out / "verdict.json")
    return None if verdict["pass"] else f"verdict failed: {verdict}"


def check_solve(out: Path):
    """Zero-data energy gate of acceptance criterion 6: no rise above 1e-10 E0."""
    manifest = _load(out / "manifest.json")
    e0 = float((out / "energy.csv").read_text().splitlines()[1].split(",")[1])
    if manifest["steps"] < 1:
        return "no time steps"
    if manifest["max_energy_increase"] > 1e-10 * e0:
        return f"energy rose by {manifest['max_energy_increase']:.3e} (E0 {e0:.3e})"
    return None


# ---------------------------------------------------------------------------
# workloads

def _rule_call(work: Path, label: str, spec: dict, mode: str) -> Call:
    cfg, out = _config(work, label, {"space": spec})
    return Call(label, ["rule", "--config", str(cfg), "--mode", mode], out,
                check_rule(spec, mode == "closed"))


# The rule solver fails for exponential spaces with poly_degree 2 and rates
# below about 0.7 (exit 3 or 4), and up to about 0.8 the cost of a call
# jumps between 1 and 9 s from one rate to the next.  Timed calls must not
# fail, and a pass's time must not hinge on whether a seed hit that band,
# so poly_degree-2 rates are drawn from [0.8, 4]; the band itself is
# covered on every traced run by the KNOWN_FAILURES probes.
PD2_RATE_FLOOR = 0.8

# Each drawn parameter is one of GRID_POINTS midpoints of its stratum, so
# the rules workload can draw only finitely many spaces; check_grid.py runs
# every one of them in both modes.
GRID_POINTS = 8


def _grid(lo: float, width: float) -> list:
    return [round(lo + (j + 0.5) * width / GRID_POINTS, 3) for j in range(GRID_POINTS)]


def _exponential(poly_degree: int, quarter: int) -> list:
    """Candidate spaces with one rate in a quarter of the rate range."""
    lo = 0.4 if poly_degree == 1 else PD2_RATE_FLOOR
    width = (4.0 - lo) / 4
    return [{"family": "exponential", "poly_degree": poly_degree, "interval": [0, 1],
             "rates": [rate]} for rate in _grid(lo + quarter * width, width)]


def _trig(harmonic: int, lo: float) -> list:
    """Candidate spaces with freq_scale in [lo, lo + 0.45]."""
    return [{"family": "trig", "max_harmonic": harmonic, "freq_scale": scale,
             "interval": [0, 1]} for scale in _grid(lo, 0.45)]


def _monomial(degree: int, interval: list) -> dict:
    return {"family": "monomial", "degree": degree, "interval": interval}


TRIG_STRATA = [(harmonic, lo) for harmonic in (1, 2) for lo in (0.1, 0.55)]
MONOMIAL_DEGREES = range(2, 7)


def rule_spaces() -> list:
    """Every space the rules workload can draw."""
    return ([s for pd in (1, 2) for q in range(4) for s in _exponential(pd, q)]
            + [s for h, lo in TRIG_STRATA for s in _trig(h, lo)]
            + [_monomial(d, i) for d in MONOMIAL_DEGREES for i in ([-1, 1], [0, 1])])


def rules(seed: int, work: Path) -> list:
    """13 seeded small spaces (target span dimension <= 12).  Draws are
    stratified and balanced (exponential polynomial degrees alternating over
    the rate quarters, both trig harmonics twice, every monomial degree
    once, modes and intervals alternating) so that the work per pass varies
    little from seed to seed."""
    rng = random.Random(seed)
    poly_degrees = (1, 2, 1, 2) if rng.random() < 0.5 else (2, 1, 2, 1)
    spaces = [rng.choice(_exponential(pd, q)) for q, pd in enumerate(poly_degrees)]
    spaces += [rng.choice(_trig(h, lo)) for h, lo in TRIG_STRATA]
    intervals = rng.sample(([-1, 1], [0, 1]), 2)
    spaces += [_monomial(d, intervals[d % 2]) for d in MONOMIAL_DEGREES]
    calls = []
    flip = rng.random() < 0.5
    for i, spec in enumerate(spaces):
        mode = ("closed", "open")[(i + flip) % 2]
        calls.append(_rule_call(work, f"rule{i:02d}-{spec['family']}-{mode}", spec, mode))
    return calls


def bessel(seed: int, work: Path) -> list:
    return [_rule_call(work, "rule-bessel-closed", BESSEL_SPEC, "closed")]


def converge(seed: int, work: Path) -> list:
    calls = []
    for study in ("advection", "advection_diffusion"):
        cfg, out = _config(work, f"converge-{study}", {"study": study})
        calls.append(Call(f"converge-{study}", ["converge", "--config", str(cfg)], out,
                          check_converge(study)))
    return calls


def high_order(seed: int, work: Path) -> list:
    calls = []
    for degree in HIGH_ORDER_DEGREES:
        spec = {"family": "monomial", "degree": degree, "interval": [-1, 1]}
        cfg, op_out = _config(work, f"operator-d{degree:02d}", {"space": spec})
        calls.append(Call(f"operator-d{degree:02d}",
                          ["operator", "--config", str(cfg), "--mode", "classical-gll"],
                          op_out, check_operator(degree + 1)))
        cfg, out = _config(work, f"verify-d{degree:02d}",
                           {"space": spec, "operator": str(op_out / "operator.json")})
        calls.append(Call(f"verify-d{degree:02d}", ["verify", "--config", str(cfg)], out,
                          check_verify))
        cfg, out = _config(work, f"solve-d{degree:02d}", {
            "pde": "advection", "mms": "zero_data", "elements": 4, "cfl": 0.1,
            "params": {"a": 1.0, "final_time": 1.0},
            "operator": {"space": spec, "node_mode": "classical-gll"},
        })
        calls.append(Call(f"solve-d{degree:02d}", ["solve", "--config", str(cfg)], out,
                          check_solve))
    return calls


WORKLOADS = {"rules": rules, "bessel": bessel, "converge": converge, "high_order": high_order}


def build(name: str, seed: int, work: Path) -> list:
    """The calls of one pass of workload ``name``; writes their configs."""
    return WORKLOADS[name](seed, work)


def probes(work: Path) -> list:
    """(Call, expected exit code) for each known failure; outputs are not checked."""
    out = []
    for label, command, mode, payload, seed, expected in KNOWN_FAILURES:
        cfg, out_dir = _config(work, f"probe-{label}", payload)
        call = Call(label, [command, "--config", str(cfg), "--mode", mode], out_dir,
                    lambda _out: None, seed)
        out.append((call, expected))
    return out
