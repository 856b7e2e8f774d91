"""The escort replicator flow, its discrete map, and the formal solution.

The continuous dynamic is

    dx_i/dt = phi(x_i) * (f_i(x) - <f(x)>_phi)

with <.>_phi the escort expectation. The flow is tangent to the simplex
but not always forward-invariant (that holds iff phi(0) = 0), so the
integrator reports boundary exits instead of clamping.
"""

import math
import operator
import os
import pickle
import signal
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, PositivityError
from .escorts import Escort, _weighted_mean
from .geometry import divergence_profile
from .landscapes import FitnessLandscape, builtin_landscape
from .simplex import SimplexPoint, _as_interior, as_simplex

DEFAULT_STEP = 1e-3
DRIFT_TOL = 1e-13  # renormalize when |sum x - 1| exceeds this
HORIZON_TOL = 1e-9  # relative gap allowed between round(t_end/step) steps and t_end
BLOCK_ROWS = 512  # samples per diagnostics block and per CSV write: bounds their temporaries


@dataclass(frozen=True)
class Termination:
    """How an integration ended."""

    kind: str  # "completed" | "boundary_exit" | "step_failure"
    time: Optional[float] = None
    index: Optional[int] = None
    reason: Optional[str] = field(default=None, compare=False)  # why a run that did not complete stopped

    @classmethod
    def completed(cls):
        return cls("completed")

    @classmethod
    def boundary_exit(cls, t, index, reason):
        return cls("boundary_exit", time=t, index=index, reason=reason)

    @classmethod
    def step_failure(cls, t, reason):
        return cls("step_failure", time=t, reason=reason)

    @property
    def ok(self):
        return self.kind == "completed"


class Trajectory:
    """Time-ordered samples of an integration, with diagnostics.

    ``states`` is an (m, n) row-stochastic array. ``lyapunov`` and
    ``integral_of_motion`` are None unless a reference point was given;
    entries may be +-inf where the quantity diverges at the boundary.
    """

    __slots__ = ("times", "states", "mean_fitness", "lyapunov", "integral_of_motion", "termination")

    def __init__(self, times, states, mean_fitness, lyapunov, integral_of_motion, termination):
        self.times = np.asarray(times, dtype=float)
        self.states = np.asarray(states, dtype=float)
        self.mean_fitness = np.asarray(mean_fitness, dtype=float)
        self.lyapunov = None if lyapunov is None else np.asarray(lyapunov, dtype=float)
        self.integral_of_motion = (
            None if integral_of_motion is None else np.asarray(integral_of_motion, dtype=float)
        )
        self.termination = termination
        if np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("trajectory times must be strictly increasing")

    def __len__(self):
        return self.times.size

    @property
    def n(self):
        return self.states.shape[1]


# ---------------------------------------------------------------------------
# Vector field
# ---------------------------------------------------------------------------


def _make_field(phi: Escort, f: FitnessLandscape):
    """Build the raw RHS closure w * (f(x) - <f(x)>_phi), with w = phi(x).

    f = A phi(x) on this escort reuses the weights; either way ``_escort_mean``
    checks the mean. Each call leaves its state and that mean in ``field.sample``,
    so the integrator records them without evaluating phi and f again.
    """
    shared = f.kind == "matrix_escort" and f.escort == phi

    def field(x):
        w = phi.weights(x)
        if not shared:
            fx = f.evaluate(x)
        else:
            try:
                fx = f.matrix @ w
            except ValueError:  # a matrix of another size than x, for which evaluate raises DimensionError
                fx = f.evaluate(x)
        m = _escort_mean(f, w, fx)
        field.sample = (x, m)
        return w * (fx - m)

    return field


def _escort_mean(f: FitnessLandscape, w, fx):
    """<f(x)>_phi from the weights ``w`` and the unchecked fitness ``fx``.

    A non-finite entry of ``fx`` always makes the mean non-finite (at a zero
    weight it gives NaN), so ``fx`` is checked entry by entry only then,
    raising the landscape's own DomainError.
    """
    m = _weighted_mean(w, fx)
    if not math.isfinite(m):
        f.check_finite(fx)
    return m


def vector_field(phi: Escort, f: FitnessLandscape, x) -> np.ndarray:
    """Right-hand side of the escort replicator equation at a state.

    The components sum to zero (the field is tangent to the simplex).
    """
    xs = as_simplex(x)
    return _make_field(phi, f)(xs.coords)


def escort_mean_fitness(phi: Escort, f: FitnessLandscape, x) -> float:
    """<f(x)>_phi at a state."""
    xs = as_simplex(x)
    return float(_escort_mean(f, phi.weights(xs.coords), f.evaluate(xs.coords)))


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


def _check_controls(t_end, step, observe_every):
    """Validate the integration controls; returns (n_steps, observe_every).

    The step must divide the horizon: round(t_end/step) steps of size
    ``step`` must land on ``t_end`` to within HORIZON_TOL relative.
    """
    try:
        observe_every = int(operator.index(observe_every))
    except TypeError:
        raise ConfigError(f"observe_every must be an integer, got {observe_every!r}") from None
    if observe_every < 1:
        raise ConfigError(f"observe_every must be >= 1, got {observe_every!r}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ConfigError(f"step must be positive, got {step!r}")
    if not (t_end > 0.0 and math.isfinite(t_end)) or t_end < step:
        raise ConfigError(f"horizon must satisfy t_end >= step > 0, got t_end={t_end!r}")
    if t_end / step > 2.0**53:  # beyond it the float t_end / step names no unique step count
        raise ConfigError(f"horizon t_end={t_end!r} is too many steps of {step!r} (at most 2**53)")
    n_steps = round(t_end / step)
    if abs(n_steps * step - t_end) > HORIZON_TOL * t_end:
        raise ConfigError(f"step {step!r} does not divide the horizon t_end={t_end!r}")
    return n_steps, observe_every


def _diagnostics(phi, ref, states):
    """D_phi(ref || x) and sum_i ref_i log_phi(x_i) at every sample ``x``, BLOCK_ROWS
    samples at a time."""
    m = len(states)
    lyap, integral = np.empty(m), np.empty(m)
    for start in range(0, m, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        lyap[block] = divergence_profile(phi, ref, states[block])
        integral[block] = _safe_integral(phi, ref, states[block])
    return lyap, integral


def _safe_integral(phi, ref, states):
    """sum_i ref_i log_phi(x_i) per sample, with -inf markers at the boundary.

    One ``_log`` call over the block; a zero coordinate takes the limit
    log_phi(0+). The terms are added left to right.
    """
    with np.errstate(divide="ignore"):
        logs = phi._log(states)
    total = np.zeros(states.shape[0])
    for r, col in zip(ref, logs.T):
        if r != 0.0:
            total += r * col
    return total


def _rk4_step(rhs, y, h, k1):
    """One classical Runge-Kutta 4 step of dy/dt = rhs(y) from y, where k1 = rhs(y)."""
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(rhs, y, h, n_steps, observe_every, accept=None, sink=None):
    """Take ``n_steps`` RK4 steps of size ``h`` from ``y``; returns the samples
    at t = 0, at every ``observe_every``-th step and at the last accepted state
    as ``(times, states, means, termination)``, ``states`` an (m, n) array.
    ``sink(times, states, means)``, when given, is handed the lists of each
    block of BLOCK_ROWS samples as it fills, counted from sample 0, and the last
    partial block at the end; it is called outside the steps, so its errors
    propagate.

    ``rhs`` is evaluated once at each accepted state: that evaluation is the
    next step's first stage and leaves the state's ``(x, mean)`` in
    ``rhs.sample``, so ``s`` steps make at most 4s + 1 evaluations. ``accept(y_new,
    t_new)``, when given, may rescale ``y_new`` in place and returns None to
    accept it or a Termination that ends the run, and a DomainError while
    stepping ends the run with ``boundary_exit`` at the last accepted state;
    without it every step is accepted and errors propagate.

    An accepted state with the same bytes as the one it was stepped from is a
    fixed point of the step (``rhs`` is a function of the state alone), so
    every later step repeats it: the march records the remaining samples from
    the sample already taken there and stops. Comparing bytes keeps -0.0 and
    0.0 apart, so this is exact.
    """
    stops = () if accept is None else DomainError
    times, states, means = [], [], []

    def record(t, x, mean):
        times.append(t)
        states.append(x.copy())
        means.append(float(mean))
        if sink and len(times) % BLOCK_ROWS == 0:
            sink(times[-BLOCK_ROWS:], states[-BLOCK_ROWS:], means[-BLOCK_ROWS:])

    k1 = rhs(y)
    sample = rhs.sample
    record(0.0, *sample)
    t, termination = 0.0, None  # the time of the last accepted state; None while running
    for k in range(n_steps):
        t_new = (k + 1) * h
        try:
            y_new = _rk4_step(rhs, y, h, k1)
            termination = accept and accept(y_new, t_new)
            if termination:
                break
            fixed = y_new.tobytes() == y.tobytes()
            if not fixed:
                k1 = rhs(y_new)  # accepting y_new: the next step's first stage
        except stops as err:
            termination = Termination.boundary_exit(t, err.index, str(err))
            break
        if fixed:  # steps k + 1, ..., n_steps all end at y, whose sample is taken
            first = -(-(k + 1) // observe_every) * observe_every
            for j in range(first, n_steps + 1, observe_every):
                record(j * h, *sample)
            t = n_steps * h
            break
        y, t, sample = y_new, t_new, rhs.sample  # the next step's stages overwrite rhs.sample
        if (k + 1) % observe_every == 0:
            record(t, *sample)
    if times[-1] < t:
        record(t, *sample)
    if sink and (rest := len(times) % BLOCK_ROWS):
        sink(times[-rest:], states[-rest:], means[-rest:])
    return times, np.array(states), means, termination or Termination.completed()


def integrate(
    phi: Escort,
    f: FitnessLandscape,
    x0,
    t_end: float,
    step: float = DEFAULT_STEP,
    observe_every: int = 1,
    ref=None,
    *,
    sink=None,
) -> Trajectory:
    """Integrate the escort flow with fixed-step classical Runge-Kutta 4.

    Samples are recorded at t = 0 and every ``observe_every``-th step (the
    final state is always included). After each step the state is divided
    by its sum whenever the drift |sum x - 1| exceeds 1e-13; the field is
    analytically tangent, so this corrects rounding only. When a step
    leaves the escort's domain or produces a negative coordinate the
    trajectory ends with a ``boundary_exit`` termination; non-finite
    states end it with ``step_failure``. A state where the field raises
    DomainError is not accepted: the run ends with ``boundary_exit`` at the
    last accepted state, which is recorded. The termination's ``reason``
    says why; as every non-finite value ends the run, the steps do not warn.
    ``sink`` is handed the samples block by block as they are recorded (see
    ``_march``); it changes no bit of the result.
    """
    n_steps, observe_every = _check_controls(t_end, step, observe_every)
    x = as_simplex(x0).coords.copy()
    strict = phi.requires_positive
    ref = None if ref is None else as_simplex(ref).coords
    if ref is not None and ref.size != x.size:  # fail before the first step, not after
        raise DimensionError(f"states must have shape (m, {ref.size})")

    def accept(x_new, t_new):
        # one scalar test for the sign and one for finiteness; the
        # elementwise pass runs only when one fails, to tell which and where
        lo = np.fmin.reduce(x_new)  # skips NaN, which then makes the sum NaN
        outside = lo <= 0.0 if strict else lo < 0.0
        # summed only without -inf entries, so the sum cannot warn on inf - inf
        total = math.nan if outside else np.add.reduce(x_new)
        if not math.isfinite(total):
            if not np.isfinite(x_new).all():
                return Termination.step_failure(t_new, "non-finite state")
            if outside:
                bad = (x_new <= 0.0) if strict else (x_new < 0.0)
                i = int(bad.argmax())
                return Termination.boundary_exit(t_new, i, f"entry {float(x_new[i])!r} left the domain")
        if abs(total - 1.0) > DRIFT_TOL:
            x_new /= total

    field = _make_field(phi, f)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value ends the run
        times, states, means, termination = _march(field, x, float(step), n_steps, observe_every, accept, sink)
    lyap, integral = (None, None) if ref is None else _diagnostics(phi, ref, states)
    return Trajectory(times, states, means, lyap, integral, termination)


# ---------------------------------------------------------------------------
# Run descriptions and their executor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One trajectory as data: what ``run``, ``sweep`` and the suite integrate.

    The escort ``phi`` (the closed families are frozen dataclasses, so equal
    escorts make equal runs) on ``landscape``, a builtin name or a ``(form,
    rows)`` matrix spec: f = A x (``linear``), A phi(x) (``escort``) or A
    log_phi(x) (``escort_log``). ``ref`` adds the diagnostics against that
    point; a ``formal`` run integrates the formal solution exp_phi(v - G).
    """

    phi: Escort
    landscape: Union[str, tuple]
    x0: tuple
    t_end: float
    step: float = DEFAULT_STEP
    observe_every: int = 1
    ref: Optional[tuple] = None
    formal: bool = False

    @property
    def steps(self) -> int:
        return round(self.t_end / self.step)

    @property
    def samples(self) -> int:
        """The samples of the run if it completes: t = 0, every
        ``observe_every``-th step and the last (see ``_march``)."""
        return self.steps // self.observe_every + 1 + (self.steps % self.observe_every != 0)

    def build_landscape(self) -> FitnessLandscape:
        if isinstance(self.landscape, str):
            return builtin_landscape(self.landscape)
        form, rows = self.landscape
        if form == "linear":
            return FitnessLandscape.matrix_linear(rows)
        if form == "escort":
            return FitnessLandscape.matrix_escort(rows, self.phi)
        return FitnessLandscape.matrix_escort_log(rows, self.phi)

    def integrate(self, *, sink=None) -> Trajectory:
        """The run's trajectory; ``sink`` is ``integrate``'s, for a run that is not formal."""
        args = (self.phi, self.build_landscape(), np.array(self.x0), self.t_end, self.step)
        if self.formal:
            if sink is not None:
                raise ConfigError("a formal run takes no sink")
            return integrate_formal_solution(*args, observe_every=self.observe_every)
        ref = None if self.ref is None else np.array(self.ref)
        return integrate(*args, observe_every=self.observe_every, ref=ref, sink=sink)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_cpus() -> int:
    """The CPUs this process may share with forked helpers: 1 without ``os.fork``."""
    return _usable_cpus() if hasattr(os, "fork") else 1


class _Child:
    """A forked child that closes the descriptors ``close``, runs ``body()`` and
    pickles its return value back over a pipe; it never returns into the
    caller's frames. OSError when no pipe or process can be made."""

    def __init__(self, body, close=()):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:
            try:
                for fd in (r, *close):
                    os.close(fd)
                with os.fdopen(w, "wb") as out:
                    pickle.dump(body(), out, pickle.HIGHEST_PROTOCOL)
            finally:
                os._exit(0)  # the pipe, not the exit status, says whether the body returned
        os.close(w)
        self.pid, self.fd = pid, r

    def result(self):
        """The body's return value, waiting for it; None when the child died or
        sent something unreadable."""
        try:
            with os.fdopen(self.fd, "rb", closefd=False) as fh:
                return pickle.load(fh)
        except Exception:
            return None

    def reap(self):
        """Kill the child unless it has exited, wait for it and close the pipe;
        a second call does nothing."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)  # a no-op for a child that has exited
            os.waitpid(self.pid, 0)
            os.close(self.fd)
            self.pid = None


QUEUE_RECORD = 4  # bytes per run index in the queue pipe
QUEUE_WRITE = 512  # bytes per write to it: at most POSIX's PIPE_BUF, so each write is atomic


def _queue_order(runs) -> list:
    """The distinct ``runs``, most RK4 steps first and formal runs first among
    equal steps, else in order of first use: the order of ``run_all``'s queue."""
    return sorted(dict.fromkeys(runs), key=lambda r: (-r.steps, not r.formal))


def _feed(fd, indices):
    """Write ``indices`` to the queue pipe ``fd`` and close it. Each write holds
    whole records and is atomic, so every read of one record gets one index;
    the feed waits while the pipe is full and stops early when no child is left
    to read."""
    data = b"".join(i.to_bytes(QUEUE_RECORD, "little") for i in indices)
    try:
        for start in range(0, len(data), QUEUE_WRITE):
            os.write(fd, data[start:start + QUEUE_WRITE])
    except OSError:  # every reader has exited
        pass
    finally:
        os.close(fd)


def _take(fn, order, fd) -> dict:
    """{index: fn(order[index])} for the indices read from the queue ``fd``
    until it is empty and closed, leaving out the runs where ``fn`` raised."""
    done = {}
    while len(record := os.read(fd, QUEUE_RECORD)) == QUEUE_RECORD:
        i = int.from_bytes(record, "little")
        try:
            done[i] = fn(order[i])
        except Exception:
            pass
    return done


def run_all(fn, runs) -> tuple[list, int]:
    """``[fn(run) for run in runs]``, and the number of processes that took part.

    The distinct runs are queued in ``_queue_order``. k = min(usable CPUs,
    runs - 1) forked children (``_Child``) take all but the first from one pipe
    of run indices, which this process writes after the last fork before doing
    the first run itself, and each pickles its results back; with one CPU or
    without ``os.fork`` every run is done here, serially. Which runs this
    process does is fixed by the runs alone. A run whose ``fn`` raised, or
    whose child died or sent unreadable data, is done again here, in order, and
    raises as it would serially. Equal runs give one result.
    """
    order = _queue_order(runs)
    cpus = _fork_cpus()
    k = min(cpus, len(order) - 1) if cpus > 1 else 0
    done, children = {}, []
    try:
        if k > 0:
            r, w = os.pipe()
            try:
                for _ in range(k):
                    try:
                        children.append(_Child(lambda: _take(fn, order, r), close=(w,)))
                    except OSError:  # its runs are done by the other processes
                        pass
            finally:
                os.close(r)  # with no child left to read, the feed stops
                _feed(w, range(1, len(order)))
        if children:
            try:
                done[order[0]] = fn(order[0])
            except Exception:
                pass
            for child in children:
                done.update((order[i], result) for i, result in (child.result() or {}).items())
    finally:
        for child in children:
            child.reap()
    results = []
    for run in runs:
        if run not in done:
            done[run] = fn(run)
        results.append(done[run])
    return results, min(len(order), 1) + len(children)


# ---------------------------------------------------------------------------
# Discrete escort replicator map
# ---------------------------------------------------------------------------


def discrete_step(phi: Escort, f: FitnessLandscape, x) -> SimplexPoint:
    """One step of the discrete escort replicator map.

    x'_i = phi(x_i) f_i(x) / sum_j phi(x_j) f_j(x); the normalization makes
    x' a simplex point. Fitness must be strictly positive.
    """
    xs = as_simplex(x)
    fx = f(xs.coords)
    if np.any(fx <= 0.0):
        i = int(np.argmin(fx))
        raise PositivityError(f"discrete map needs positive fitness; f_{i} = {fx[i]!r}")
    w = phi.weights(xs.coords) * fx
    return SimplexPoint(w / w.sum())


# ---------------------------------------------------------------------------
# Formal solution through the escort exponential
# ---------------------------------------------------------------------------


def integrate_formal_solution(
    phi: Escort,
    f: FitnessLandscape,
    x0,
    t_end: float,
    step: float = DEFAULT_STEP,
    observe_every: int = 1,
) -> Trajectory:
    """Integrate the augmented system dv_i/dt = f_i(x), dG/dt = <f(x)>_phi.

    The state is reconstructed as x_i = exp_phi(v_i - G) with
    v_i(0) = log_phi(x0_i) and G(0) = 0. Raises RangeError when v_i - G
    leaves the attainable range of exp_phi.

    The samples are the reconstructed states and their mean fitness, recorded
    as they are (their sum drifts from 1 by the integration error).
    """
    n_steps, observe_every = _check_controls(t_end, step, observe_every)
    xs = _as_interior(x0, "the formal solution")
    n = xs.n

    def rhs(z):
        x = phi.exp(z[:n] - z[n])
        w = phi.weights(x)
        fx = f.evaluate(x)
        m = _escort_mean(f, w, fx)
        rhs.sample = (x, m)
        out = np.empty(n + 1)
        out[:n] = fx
        out[n] = m
        return out

    z = np.empty(n + 1)
    z[:n] = phi.log(xs.coords)
    z[n] = 0.0

    times, states, means, termination = _march(rhs, z, float(step), n_steps, observe_every)
    return Trajectory(times, states, means, None, None, termination)
