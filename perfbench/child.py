"""Code the benchmark runs inside a fresh interpreter (or, traced, in-process).

    python3 child.py setup <workload> <input.json>    prints set-up seconds
    python3 child.py calls <input.json> <output.json>  runs one library-call unit

``setup`` times importing escortdyn and building the workload's objects,
which every process pays once. ``calls`` makes timed ``escort_log``,
``escort_exp`` and ``escort_divergence`` calls and one ``integrate`` with a
reference point on the Custom escort phi(u) = u + u^2, as a library
user's script would, and writes each call's latency and result for the
benchmark to check.
"""

import json
import sys
import time


def plus_square(u):
    """The escort phi(u) = u + u^2 of the library-call workload."""
    return u + u * u


def setup(workload, path):
    t0 = time.perf_counter()
    with open(path) as fh:
        raw = json.load(fh)
    if workload == "paper_suite":
        import escortdyn.cli  # noqa: F401  (the command imports the suite through the CLI)
    elif workload == "custom_quadrature":
        import escortdyn as ed

        ed.Custom(plus_square, name="u+u^2")
    else:
        from escortdyn.cli import RunConfig

        config = RunConfig.from_dict(raw)
        config.build_escort()
        config.build_landscape()
    return time.perf_counter() - t0


def _timed(out, key, call, *args):
    t0 = time.perf_counter()
    try:
        value = call(*args)
    except (ArithmeticError, ValueError):  # every EscortError is one of these
        value = None
    out[key + "_ms"].append((time.perf_counter() - t0) * 1e3)
    out[key].append(value)


def calls(spec, fn=plus_square):
    """One library-call unit; the escortdyn names are looked up at call time."""
    import numpy as np

    import escortdyn as ed

    phi = ed.Custom(fn, name="u+u^2")
    out = {k: [] for k in ("log", "log_ms", "exp", "exp_ms", "div", "div_ms")}
    for u in spec["log_args"]:
        _timed(out, "log", ed.escort_log, phi, u)
    for w in spec["exp_args"]:
        _timed(out, "exp", ed.escort_exp, phi, w)
    for x, y in spec["divergences"]:
        _timed(out, "div", ed.escort_divergence, phi, np.array(x), np.array(y))

    run = spec["integrate"]
    f = ed.FitnessLandscape.matrix_escort(np.array(run["matrix"]), phi)
    traj = ed.integrate(phi, f, np.array(run["x0"]), run["t_end"], run["step"],
                        observe_every=run["observe_every"], ref=np.array(run["ref"]))
    iom = traj.integral_of_motion
    out["integrate"] = {
        "status": traj.termination.kind,
        "t_final": float(traj.times[-1]),
        "samples": len(traj),
        "drift_integral": float(np.max(np.abs(iom - iom[0])) / abs(iom[0])),
    }
    return out


def main(argv):
    if argv[0] == "setup":
        print(repr(setup(argv[1], argv[2])))
    elif argv[0] == "calls":
        with open(argv[1]) as fh:
            spec = json.load(fh)
        with open(argv[2], "w") as fh:
            json.dump(calls(spec), fh)
    else:
        raise SystemExit(f"unknown child command {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
