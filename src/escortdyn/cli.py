"""Command-line front end: single runs, parameter sweeps, verification suite.

Runs are driven by a JSON config file, e.g.::

    {
      "escort": {"family": "power", "q": 2.0},
      "landscape": {"builtin": "rsp"},
      "x0": [0.5, 0.3, 0.2],
      "t_end": 100.0,
      "step": 0.001,
      "observe_every": 100,
      "refs": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333],
      "output": {"path": "out/run.csv", "format": "csv"}
    }

Numbers must be JSON numbers. An integer ``seed`` key is accepted and
ignored: no run is random.

``run`` writes the trajectory (header ``t,x_1,...,x_n,escort_mean_fitness``
plus ``lyapunov`` and ``integral`` columns when refs are set) and prints a
summary JSON object to stdout. Exit codes: 0 completed, 2 bad config,
3 domain error or boundary exit at t = 0, 4 termination mid-run.
"""

import argparse
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .analysis import monotone_nonincreasing
from .dynamics import Trajectory, _check_controls, integrate
from .errors import ConfigError, DomainError, EscortError
from .escorts import Constant, Escort, Exponential, Identity, Power, Scaled
from .landscapes import BUILTIN_LANDSCAPES, FitnessLandscape, builtin_landscape
from .simplex import SimplexPoint
from . import suite

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_MIDRUN = 4

# escort family -> (class, its parameters with their defaults; None marks a required one)
ESCORTS = {
    "identity": (Identity, {}),
    "scaled": (Scaled, {"beta": None}),
    "power": (Power, {"q": None}),
    "constant": (Constant, {"c": 1.0}),
    "exponential": (Exponential, {}),
}
CSV_BLOCK_ROWS = 512  # rows formatted per write: bounds the memory of a long trajectory


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration (JSON round-trippable)."""

    escort: dict
    landscape: dict
    x0: tuple
    t_end: float
    step: float
    observe_every: int = 1
    refs: Optional[tuple] = None
    output_path: str = "trajectory.csv"
    output_format: str = "csv"

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        try:
            return cls._from_dict(raw)
        except ConfigError:
            raise
        except (EscortError, ValueError, TypeError, KeyError) as err:
            raise ConfigError(f"invalid config: {err}") from None

    @classmethod
    def _from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        known = {"escort", "landscape", "x0", "t_end", "step", "observe_every", "refs", "seed", "output"}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("escort", "landscape", "x0", "t_end", "step"):
            if key not in raw:
                raise ConfigError(f"config is missing {key!r}")

        escort = _escort_spec(raw["escort"])
        landscape = _norm_landscape(raw["landscape"])
        x0 = tuple(_number(v, "x0") for v in raw["x0"])
        SimplexPoint(x0)  # validates
        t_end = _number(raw["t_end"], "t_end")
        step = _number(raw["step"], "step")
        # the integrator's own checks, including that the step divides the horizon
        observe_every = _integer(raw.get("observe_every", 1), "observe_every")
        _check_controls(t_end, step, observe_every)
        refs = raw.get("refs")
        if refs is not None:
            refs = tuple(_number(v, "refs") for v in refs)
            SimplexPoint(refs)
            if len(refs) != len(x0):
                raise ConfigError("refs must have the same length as x0")
        _integer(raw.get("seed", 0), "seed")  # accepted for old configs, read by nothing
        out = raw.get("output", {"path": "trajectory.csv", "format": "csv"})
        if not isinstance(out, dict) or not isinstance(out.get("path"), str):
            raise ConfigError("output must be an object with a 'path' string")
        if set(out) - {"path", "format"}:
            raise ConfigError(f"output takes only 'path' and 'format', got {sorted(out)}")
        fmt = out.get("format", "csv")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"output format must be csv or json, got {fmt!r}")
        config = cls(escort, landscape, x0, t_end, step, observe_every, refs, out["path"], fmt)
        # the family constructors reject values such as q = inf, the landscape bad matrices
        config.build_escort()
        config.build_landscape()
        return config

    def to_dict(self) -> dict:
        return {
            "escort": dict(self.escort),
            "landscape": {
                k: ([list(row) for row in v] if k == "matrix" else v)
                for k, v in self.landscape.items()
            },
            "x0": list(self.x0),
            "t_end": self.t_end,
            "step": self.step,
            "observe_every": self.observe_every,
            "refs": None if self.refs is None else list(self.refs),
            "output": {"path": self.output_path, "format": self.output_format},
        }

    def build_escort(self) -> Escort:
        cls, _ = ESCORTS[self.escort["family"]]
        return cls(**{k: v for k, v in self.escort.items() if k != "family"})

    def build_landscape(self) -> FitnessLandscape:
        if "builtin" in self.landscape:
            f = builtin_landscape(self.landscape["builtin"])
        else:
            A = np.array(self.landscape["matrix"], dtype=float)
            form = self.landscape.get("form", "linear")
            phi = self.build_escort()
            if form == "linear":
                f = FitnessLandscape.matrix_linear(A)
            elif form == "escort":
                f = FitnessLandscape.matrix_escort(A, phi)
            else:
                f = FitnessLandscape.matrix_escort_log(A, phi)
        try:
            f(np.full(len(self.x0), 1.0 / len(self.x0)))
        except EscortError as err:
            raise ConfigError(f"landscape incompatible with x0 of length {len(self.x0)}: {err}")
        return f


def _number(value, name) -> float:
    """A JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _integer(value, name) -> int:
    """A JSON integer (not bool), through operator.index."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _escort_spec(raw) -> dict:
    """The escort spec with every parameter of its family; range checks are the constructors'."""
    if not isinstance(raw, dict) or "family" not in raw:
        raise ConfigError("escort must be an object with a 'family'")
    fam = raw["family"]
    if fam not in ESCORTS:
        raise ConfigError(f"unknown escort family {fam!r} (have {tuple(ESCORTS)})")
    out = {"family": fam}
    for name, default in ESCORTS[fam][1].items():
        if name not in raw and default is None:
            raise ConfigError(f"{fam} escort needs {name!r}")
        out[name] = _number(raw.get(name, default), name)
    extra = set(raw) - set(out)
    if extra:
        raise ConfigError(f"unexpected escort keys: {sorted(extra)}")
    return out


def _norm_landscape(raw) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("landscape must be an object")
    if "builtin" in raw:
        name = raw["builtin"]
        if name not in BUILTIN_LANDSCAPES:
            raise ConfigError(f"unknown builtin landscape {name!r} (have {BUILTIN_LANDSCAPES})")
        if set(raw) - {"builtin"}:
            raise ConfigError("builtin landscapes take no other keys")
        return {"builtin": name}
    if "matrix" not in raw:
        raise ConfigError("landscape needs 'builtin' or 'matrix'")
    matrix = raw["matrix"]
    if matrix and not isinstance(matrix[0], (list, tuple)):
        n = math.isqrt(len(matrix))
        if n * n != len(matrix):
            raise ConfigError("flat matrix length must be a perfect square")
        matrix = [matrix[i * n : (i + 1) * n] for i in range(n)]
    rows = [tuple(_number(v, "matrix entry") for v in row) for row in matrix]
    if any(len(r) != len(rows) for r in rows):
        raise ConfigError("matrix must be square")
    form = raw.get("form", "linear")
    if form not in ("linear", "escort", "escort_log"):
        raise ConfigError(f"unknown landscape form {form!r}")
    if set(raw) - {"matrix", "form"}:
        raise ConfigError("landscape takes only 'matrix' and 'form'")
    return {"matrix": tuple(rows), "form": form}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def _columns(traj: Trajectory) -> tuple[list[str], list[np.ndarray]]:
    names = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["escort_mean_fitness"]
    cols = [traj.times] + [traj.states[:, i] for i in range(traj.n)] + [traj.mean_fitness]
    if traj.lyapunov is not None:
        names.append("lyapunov")
        cols.append(traj.lyapunov)
    if traj.integral_of_motion is not None:
        names.append("integral")
        cols.append(traj.integral_of_motion)
    return names, cols


def write_trajectory(traj: Trajectory, path: str, fmt: str) -> None:
    """Write a trajectory as CSV or JSON with round-trippable floats."""
    names, cols = _columns(traj)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    if fmt == "csv":
        with open(path, "w") as fh:
            fh.write(",".join(names) + "\n")
            for start in range(0, len(traj), CSV_BLOCK_ROWS):
                block = np.column_stack([c[start : start + CSV_BLOCK_ROWS] for c in cols])
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))
    else:
        rows = np.column_stack(cols).tolist()
        doc = {"columns": names, "rows": rows, "termination": traj.termination.kind}
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


def _json_float(v):
    return None if v is None or not math.isfinite(v) else float(v)


def summarize(traj: Trajectory) -> dict:
    """The run summary printed to stdout as one JSON object."""
    prods = np.prod(traj.states, axis=1)
    drift_product = None
    if prods[0] != 0.0:
        drift_product = float(np.max(np.abs(prods - prods[0])) / abs(prods[0]))
    drift_integral = None
    lyap_monotone = None
    if traj.integral_of_motion is not None:
        iom = traj.integral_of_motion
        if np.all(np.isfinite(iom)) and iom[0] != 0.0:
            drift_integral = float(np.max(np.abs(iom - iom[0])) / abs(iom[0]))
    if traj.lyapunov is not None:
        lyap = traj.lyapunov
        lyap_monotone = monotone_nonincreasing(lyap[np.isfinite(lyap)])
    return {
        "status": traj.termination.kind,
        "t_final": float(traj.times[-1]),
        "x_final": [float(v) for v in traj.states[-1]],
        "drift_product": _json_float(drift_product),
        "drift_integral": _json_float(drift_integral),
        "lyapunov_monotone": lyap_monotone,
    }


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}")
    return RunConfig.from_dict(raw)


def _integrate(config: RunConfig, ref) -> Optional[Trajectory]:
    """The config's trajectory; None when the dynamic is undefined at the initial state."""
    phi = config.build_escort()
    f = config.build_landscape()
    try:
        return integrate(
            phi, f, np.array(config.x0), config.t_end, config.step,
            observe_every=config.observe_every, ref=ref,
        )
    except DomainError:
        return None


def _execute(config: RunConfig) -> tuple[int, Optional[Trajectory]]:
    traj = _integrate(config, None if config.refs is None else np.array(config.refs))
    if traj is None:
        return EXIT_DOMAIN, None
    try:
        write_trajectory(traj, config.output_path, config.output_format)
    except OSError as err:
        raise ConfigError(f"cannot write output {config.output_path!r}: {err}") from None
    term = traj.termination
    if term.ok:
        return EXIT_OK, traj
    if term.kind == "boundary_exit" and (term.time or 0.0) <= 0.0:
        return EXIT_DOMAIN, traj
    return EXIT_MIDRUN, traj


def cmd_run(args) -> int:
    try:
        config = _load_config(args.config)
        code, traj = _execute(config)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    if traj is None:
        print("domain error: dynamic undefined at the initial state", file=sys.stderr)
        return code
    print(json.dumps(summarize(traj)))
    return code


def _sweep_value(config: RunConfig, param: str, value: float) -> RunConfig:
    """The validated config of one sweep value."""
    raw = config.to_dict()
    raw["escort"][param] = value
    root, ext = os.path.splitext(config.output_path)
    label = f"{value:g}"
    if float(label) != value:  # keep the short name only when it names this value alone
        label = repr(value)
    raw["output"]["path"] = f"{root}_{param}{label}{ext or '.csv'}"
    return RunConfig.from_dict(raw)


def cmd_sweep(args) -> int:
    try:
        config = _load_config(args.config)
        family = config.escort["family"]
        if args.param not in ESCORTS[family][1]:
            raise ConfigError(f"the {family} escort has no parameter {args.param!r} to sweep")
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError(f"sweep values must be numbers, got {args.values!r}") from None
        if not values:
            raise ConfigError("sweep needs at least one value")
        if len(set(values)) != len(values):
            raise ConfigError(f"sweep values must be distinct, got {args.values!r}")
        configs = [_sweep_value(config, args.param, v) for v in values]
        # the identity-escort reference of the deviation column, written nowhere
        ref_traj = _integrate(replace(config, escort={"family": "identity"}), None)
        outcomes = [_execute(cfg) for cfg in configs]
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    runs = []
    worst = EXIT_OK
    for value, cfg, (code, traj) in zip(values, configs, outcomes):
        deviation = None
        if traj is not None and ref_traj is not None:
            m = min(len(traj.states), len(ref_traj.states))
            deviation = float(np.max(np.abs(traj.states[:m] - ref_traj.states[:m])))
        runs.append(
            {
                "value": value,
                "status": traj.termination.kind if traj is not None else "domain_error",
                "exit_code": code,
                "sup_deviation_from_identity": deviation,
                "output": cfg.output_path,
            }
        )
        worst = max(worst, code)
    print(json.dumps({"param": args.param, "runs": runs, "ok": worst == EXIT_OK}))
    return worst


def cmd_paper_suite(args) -> int:
    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            print(f"config error: --only names no criterion: {args.only!r}", file=sys.stderr)
            return EXIT_CONFIG
        missing = [n for n in names if n not in suite.CRITERIA_BY_NAME]
        if missing:
            print(f"config error: unknown criteria {missing}", file=sys.stderr)
            return EXIT_CONFIG
        if len(set(names)) != len(names):
            print(f"config error: --only names must be distinct, got {args.only!r}", file=sys.stderr)
            return EXIT_CONFIG
    overrides = {}
    for item in args.override or []:
        name, _, value = item.partition("=")
        try:
            tol = float(value)
        except ValueError:
            tol = math.nan
        if name not in suite.CRITERIA_BY_NAME or not math.isfinite(tol):
            print(f"config error: bad override {item!r} (want NAME=finite number)", file=sys.stderr)
            return EXIT_CONFIG
        if names is not None and name not in names:
            print(f"config error: override {item!r} names a criterion --only does not select",
                  file=sys.stderr)
            return EXIT_CONFIG
        if name in overrides:
            print(f"config error: {name} is overridden twice", file=sys.stderr)
            return EXIT_CONFIG
        overrides[name] = tol
    plan = suite.integrate_runs(suite.plan(suite.select(names)))
    results = suite.run_suite(names=names, overrides=overrides)
    print(suite.format_report(results))
    print(plan)
    return EXIT_OK if all(r.passed for r in results) else EXIT_SUITE_FAIL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="escortdyn",
        description="Simulate escort replicator dynamics and verify their invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one configuration")
    p_run.add_argument("--config", required=True, help="path to a JSON run config")
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a grid of escort parameters")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--param", required=True, choices=("q", "beta"))
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_suite = sub.add_parser("paper-suite", help="run the built-in verification suite")
    p_suite.add_argument("--only", help="comma-separated criterion names (default: all)")
    p_suite.add_argument(
        "--override",
        action="append",
        metavar="NAME=TOL",
        help="replace a criterion tolerance (test hook)",
    )
    p_suite.set_defaults(fn=cmd_paper_suite)

    args = parser.parse_args(argv)
    return args.fn(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
