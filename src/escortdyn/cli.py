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
from dataclasses import MISSING, dataclass, fields, replace
from typing import Optional

import numpy as np

from .analysis import _rel_drift, monotone_nonincreasing
from .dynamics import BLOCK_ROWS, Run, Trajectory, _check_controls
from .errors import ConfigError, DomainError, EscortError
from .escorts import Constant, Escort, Exponential, Identity, Power, Scaled
from .landscapes import BUILTIN_LANDSCAPES, FitnessLandscape
from .simplex import SimplexPoint

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_MIDRUN = 4

# escort family -> class; a family's parameters and their defaults are the class's init fields
ESCORTS = {
    "identity": Identity,
    "scaled": Scaled,
    "power": Power,
    "constant": Constant,
    "exponential": Exponential,
}


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration: the run and where its trajectory goes."""

    run: Run
    output_path: str
    output_format: str

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
        # the family constructors reject values such as q = inf, the landscape bad matrices
        phi = ESCORTS[escort.pop("family")](**escort)
        run = Run(phi, landscape, x0, t_end, step, observe_every, refs)
        f = run.build_landscape()
        try:
            f(np.full(len(x0), 1.0 / len(x0)))
        except EscortError as err:
            raise ConfigError(f"landscape incompatible with x0 of length {len(x0)}: {err}")
        return cls(run, out["path"], fmt)

    def build_escort(self) -> Escort:
        return self.run.phi

    def build_landscape(self) -> FitnessLandscape:
        return self.run.build_landscape()


def _number(value, name) -> float:
    """A JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal beyond float range
        raise ConfigError(f"{name} is too large for a float") from None


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
    for field in (f for f in fields(ESCORTS[fam]) if f.init):  # Identity's q is fixed
        if field.name not in raw and field.default is MISSING:
            raise ConfigError(f"{fam} escort needs {field.name!r}")
        out[field.name] = _number(raw.get(field.name, field.default), field.name)
    extra = set(raw) - set(out)
    if extra:
        raise ConfigError(f"unexpected escort keys: {sorted(extra)}")
    return out


def _norm_landscape(raw):
    """The landscape as ``Run`` takes it: a builtin name or a ``(form, rows)`` spec."""
    if not isinstance(raw, dict):
        raise ConfigError("landscape must be an object")
    if "builtin" in raw:
        name = raw["builtin"]
        if name not in BUILTIN_LANDSCAPES:
            raise ConfigError(f"unknown builtin landscape {name!r} (have {BUILTIN_LANDSCAPES})")
        if set(raw) - {"builtin"}:
            raise ConfigError("builtin landscapes take no other keys")
        return name
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
    return form, tuple(rows)


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------


def write_trajectory(traj: Trajectory, path: str, fmt: str) -> None:
    """Write a trajectory as CSV or JSON with round-trippable floats, BLOCK_ROWS
    rows at a time; a non-finite value is ``inf``/``-inf``/``nan`` in CSV and
    ``null`` in JSON."""
    names = ["t"] + [f"x_{i + 1}" for i in range(traj.n)] + ["escort_mean_fitness"]
    cols = [traj.times] + [traj.states[:, i] for i in range(traj.n)] + [traj.mean_fitness]
    if traj.lyapunov is not None:
        names.append("lyapunov")
        cols.append(traj.lyapunov)
    if traj.integral_of_motion is not None:
        names.append("integral")
        cols.append(traj.integral_of_motion)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    as_csv = fmt == "csv"
    if as_csv:
        head, tail = ",".join(names) + "\n", ""
    else:  # the bytes of json.dump(doc, indent=1) with the rows spliced in
        head = json.dumps({"columns": names}, indent=1)[:-2] + ',\n "rows": [\n'
        tail = f'\n ],\n "termination": {json.dumps(traj.termination.kind)}\n}}\n'
    with open(path, "w") as fh:
        fh.write(head)
        for start in range(0, len(traj), BLOCK_ROWS):
            block = np.column_stack([c[start : start + BLOCK_ROWS] for c in cols])
            if as_csv:
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in block.tolist()))
            else:  # each row at depth 2 of the document
                text = (json.dumps([_json_float(v) for v in row], indent=1) for row in block.tolist())
                fh.write((",\n" if start else "") + ",\n".join("  " + t.replace("\n", "\n  ") for t in text))
        fh.write(tail)


def _json_float(v):
    return None if v is None or not math.isfinite(v) else float(v)


def summarize(traj: Trajectory) -> dict:
    """The run summary printed to stdout as one JSON object."""
    prods = np.prod(traj.states, axis=1)
    drift_product = _rel_drift(prods) if prods[0] != 0.0 else None
    drift_integral = None
    lyap_monotone = None
    if traj.integral_of_motion is not None:
        iom = traj.integral_of_motion
        if np.all(np.isfinite(iom)) and iom[0] != 0.0:
            drift_integral = _rel_drift(iom)
    if traj.lyapunov is not None:
        finite = traj.lyapunov[np.isfinite(traj.lyapunov)]
        if finite.size >= 2:  # fewer finite entries are no evidence either way
            lyap_monotone = monotone_nonincreasing(finite)
    term = traj.termination
    summary = {
        "status": term.kind,
        "t_final": float(traj.times[-1]),
        "x_final": [float(v) for v in traj.states[-1]],
        "drift_product": _json_float(drift_product),
        "drift_integral": _json_float(drift_integral),
        "lyapunov_monotone": lyap_monotone,
    }
    if not term.ok:
        summary["stop"] = {"time": term.time, "index": term.index, "reason": term.reason}
    return summary


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except (ValueError, RecursionError) as err:  # bad JSON, text that is not UTF-8, too deep a nesting
        raise ConfigError(f"config is not valid JSON: {err}")


def _load_config(path: str) -> RunConfig:
    return RunConfig.from_dict(_read_json(path))


def _execute(config: RunConfig) -> tuple[int, Trajectory]:
    """Integrate and write the config's run; DomainError when the dynamic or a
    diagnostic is undefined at the initial state."""
    traj = config.run.integrate()
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
    code, traj = _execute(_load_config(args.config))
    print(json.dumps(summarize(traj)))
    return code


def _sweep_value(raw: dict, config: RunConfig, param: str, value: float) -> RunConfig:
    """The validated config of one sweep value: the JSON ``raw`` of ``config``
    with ``value`` in its escort and the value's output path."""
    root, ext = os.path.splitext(config.output_path)
    label = f"{value:g}"
    if float(label) != value:  # keep the short name only when it names this value alone
        label = repr(value)
    ext = ext or "." + config.output_format  # a path without one takes its format's
    output = {"path": f"{root}_{param}{label}{ext}", "format": config.output_format}
    return RunConfig.from_dict({**raw, "escort": {**raw["escort"], param: value}, "output": output})


def cmd_sweep(args) -> int:
    raw = _read_json(args.config)
    config = RunConfig.from_dict(raw)
    escort = _escort_spec(raw["escort"])
    if args.param not in escort.keys() - {"family"}:
        raise ConfigError(f"the {escort['family']} escort has no parameter {args.param!r} to sweep")
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"sweep values must be numbers, got {args.values!r}") from None
    if not values:
        raise ConfigError("sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ConfigError(f"sweep values must be distinct, got {args.values!r}")
    configs = [_sweep_value(raw, config, args.param, v) for v in values]
    # the identity-escort reference of the deviation column, written nowhere
    try:
        ref_traj = replace(config.run, phi=Identity(), ref=None).integrate()
    except DomainError:
        ref_traj = None
    runs = [_sweep_run(value, cfg, ref_traj) for value, cfg in zip(values, configs)]
    worst = max(run["exit_code"] for run in runs)
    print(json.dumps({"param": args.param, "runs": runs, "ok": worst == EXIT_OK}))
    return worst


def _sweep_run(value: float, config: RunConfig, ref_traj: Optional[Trajectory]) -> dict:
    """Run one sweep value and summarize it; the summary holds no trajectory,
    so a sweep keeps one value's trajectory at a time."""
    try:
        code, traj = _execute(config)
    except DomainError:
        code, traj = EXIT_DOMAIN, None
    deviation = None
    if traj is not None and ref_traj is not None:
        m = min(len(traj.states), len(ref_traj.states))
        deviation = float(np.max(np.abs(traj.states[:m] - ref_traj.states[:m])))
    return {
        "value": value,
        "status": traj.termination.kind if traj is not None else "domain_error",
        "exit_code": code,
        "sup_deviation_from_identity": deviation,
        "output": config.output_path,
    }


def cmd_paper_suite(args) -> int:
    from . import suite  # only this command loads the suite and what it imports

    names = None
    if args.only:
        names = [n.strip() for n in args.only.split(",") if n.strip()]
        if not names:
            raise ConfigError(f"--only names no criterion: {args.only!r}")
        missing = [n for n in names if n not in suite.CRITERIA_BY_NAME]
        if missing:
            raise ConfigError(f"unknown criteria {missing}")
        if len(set(names)) != len(names):
            raise ConfigError(f"--only names must be distinct, got {args.only!r}")
    results, plan = suite.run_suite(names)
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
    p_sweep.add_argument("--param", required=True, help="an escort parameter to sweep")
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_suite = sub.add_parser("paper-suite", help="run the built-in verification suite")
    p_suite.add_argument("--only", help="comma-separated criterion names (default: all)")
    p_suite.set_defaults(fn=cmd_paper_suite)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as err:
        print(f"domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
