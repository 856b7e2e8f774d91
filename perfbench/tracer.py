"""Span tracing for the traced benchmark run, from outside the program.

The tracer replaces each traced function at the name its caller looks it
up by (module attributes and class attributes) with a wrapper that times
the call. Spans are aggregated in memory by (span, parent span) into a
call count, a total time and the time covered by child spans, so a
function called millions of times costs a few dict updates, not a record
per call. Each thread keeps its own span stack and its own aggregates;
they are merged when the run ends.

Span times are the calling thread's CPU time (``time.thread_time``), not
wall time: the sweep's pool threads take turns on the interpreter lock, and
a wall-clock span would also count the other thread's turns.

Span names are ``<layer>.<function>``, where the layer is the name of the
module that defines the function (``numerics.adaptive_simpson`` is one
span whether ``escorts`` or ``geometry`` calls it).
"""

import functools
import importlib
import inspect
import os
import threading
import time

LAYERS = ("cli", "dynamics", "escorts", "numerics", "landscapes", "geometry", "analysis", "suite")
PACKAGE = "escortdyn"


class _ThreadState(threading.local):
    def __init__(self):
        self.stack = []  # [span name, time covered by child spans]
        self.agg = None


class Tracer:
    """Installs span wrappers into the program and collects their aggregates."""

    def __init__(self):
        self._local = _ThreadState()
        self._tables = []  # one aggregate table per thread that recorded spans
        self._lock = threading.Lock()
        self._undo = []
        self.root_s = 0.0  # time inside outermost spans, summed over threads
        self.counters = {"rk4_steps": 0, "integrate_steps": 0, "rows_written": 0, "write_bytes": 0}

    # -- recording --------------------------------------------------------

    def _agg(self):
        agg = self._local.agg
        if agg is None:
            agg = self._local.agg = {}
            with self._lock:
                self._tables.append(agg)
        return agg

    def wrap(self, name, fn, after=None):
        """Wrap ``fn`` as span ``name`` (a string, or a function of the call's
        positional arguments); ``after(result, args, kwargs)`` updates counters."""
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args)
            stack = local.stack
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.thread_time() - t0
                stack.pop()
                agg = self._agg()
                rec = agg.get((span, parent))
                if rec is None:
                    rec = agg[(span, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    with self._lock:
                        self.root_s += dt
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def spans(self):
        """{span: [count, total_s, self_s]} merged over parents and threads."""
        out = {}
        for table in self._tables:
            for (span, _parent), (count, total, child) in table.items():
                rec = out.setdefault(span, [0, 0.0, 0.0])
                rec[0] += count
                rec[1] += total
                rec[2] += total - child
        return out

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the public functions of every layer module at each binding,
        plus the class attributes and private entry points the metrics need."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        package = importlib.import_module(PACKAGE)
        cli, dynamics, escorts = modules["cli"], modules["dynamics"], modules["escorts"]
        landscapes, suite = modules["landscapes"], modules["suite"]

        special = {
            dynamics.integrate: self._count_steps(dynamics.integrate, integrate=True),
            dynamics.integrate_formal_solution: self._count_steps(dynamics.integrate_formal_solution),
            cli.write_trajectory: self._after_write,
        }
        wrappers = {}
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(PACKAGE + ".") or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(f"{layer}.{obj.__name__}", obj, special.get(obj))
                self._set(module, attr, wrappers[obj])

        for cls in vars(escorts).values():
            if inspect.isclass(cls) and issubclass(cls, escorts.Escort):
                for attr in ("weights", "log", "exp"):
                    if attr in vars(cls):
                        self._set(cls, attr, self.wrap(f"escorts.{attr}", vars(cls)[attr]))
        self._set(landscapes.FitnessLandscape, "__call__",
                  self.wrap("landscapes.call", landscapes.FitnessLandscape.__call__))
        self._set(cli, "_load_config", self.wrap("cli.config", cli._load_config))
        self._set(cli, "_execute", self.wrap("cli.execute", cli._execute))
        for attr in ("build_escort", "build_landscape"):
            self._set(cli.RunConfig, attr, self.wrap("cli.config", getattr(cli.RunConfig, attr)))
        self._set(suite.Criterion, "run",
                  self.wrap(lambda args: f"suite.{args[0].name}", suite.Criterion.run))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- counters fed from return values ----------------------------------

    def _count_steps(self, fn, integrate=False):
        """Completed RK4 steps, from the returned trajectory's final time."""
        signature = inspect.signature(fn)

        def after(traj, args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            steps = int(round(float(traj.times[-1]) / float(bound.arguments["step"])))
            with self._lock:
                self.counters["rk4_steps"] += steps
                if integrate:
                    self.counters["integrate_steps"] += steps

        return after

    def _after_write(self, _result, args, kwargs):
        traj, path = args[0], args[1]
        size = 0 if path == os.devnull else os.path.getsize(path)
        with self._lock:
            self.counters["rows_written"] += len(traj)
            self.counters["write_bytes"] += size
