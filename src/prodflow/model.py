"""Core value types: productivity functions, time series, and recorded runs.

A productivity function is the kernel of a production process seen as a
dynamic system: the process output is the convolution of this kernel with
the process input.  The kernels handled here are a direct-feedthrough
(impulse) term plus a sum of real exponential modes, which is the family
observed in practice for project-driven processes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np


class ModelFormatError(ValueError):
    """Malformed model text; ``line`` is the 1-based offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


@dataclass(frozen=True)
class ExponentialMode:
    """One exponential term gain*exp(-decay_rate*t).

    A positive decay_rate is a decaying mode; a negative one grows without
    bound.  A zero rate is not representable (it would be a constant, not
    an exponential) and is rejected.
    """

    gain: float
    decay_rate: float

    def __post_init__(self):
        if not math.isfinite(self.gain):
            raise ValueError(f"mode gain must be finite, got {self.gain!r}")
        if not math.isfinite(self.decay_rate) or self.decay_rate == 0.0:
            raise ValueError(
                f"decay rate must be finite and nonzero, got {self.decay_rate!r}"
            )
        # plain floats, so that format_model writes literals parse_model reads
        object.__setattr__(self, "gain", float(self.gain))
        object.__setattr__(self, "decay_rate", float(self.decay_rate))


@dataclass(frozen=True)
class ProductivityFunction:
    """Production kernel: impulse feedthrough plus exponential modes.

    ``impulse_gain`` passes the input straight through to the output
    (a Dirac term in the kernel); it is 0 when the kernel has no
    feedthrough.  An empty mode list is only meaningful together with a
    nonzero impulse gain.
    """

    impulse_gain: float = 0.0
    modes: tuple[ExponentialMode, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.impulse_gain):
            raise ValueError(f"impulse gain must be finite, got {self.impulse_gain!r}")
        object.__setattr__(self, "impulse_gain", float(self.impulse_gain))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes and self.impulse_gain == 0.0:
            raise ValueError("empty model: needs an impulse term or at least one mode")


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Strictly time-ordered, finite samples of one signal."""

    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.ndim != 1 or t.shape != v.shape:
            raise ValueError("t and values must be 1-d arrays of equal length")
        if len(t) < 2:
            raise ValueError("a time series needs at least 2 samples")
        if not np.isfinite(t).all():
            raise ValueError("timestamps must be finite")
        if not np.isfinite(v).all():
            raise ValueError("values must be finite")
        if not (np.diff(t) > 0).all():
            raise ValueError("timestamps must be strictly increasing")
        t, v = t.copy(), v.copy()
        t.flags.writeable = False
        v.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return len(self.t)

    @property
    def span(self) -> float:
        return float(self.t[-1] - self.t[0])


@dataclass(frozen=True)
class ProcessRun:
    """A recorded run: input and output series plus the total process time."""

    input: TimeSeries
    output: TimeSeries
    total_time: float

    def __post_init__(self):
        if not (math.isfinite(self.total_time) and self.total_time > 0):
            raise ValueError(f"total_time must be positive, got {self.total_time!r}")
        if self.total_time < self.input.t[-1]:
            raise ValueError("total_time must cover the last input timestamp")


def grid_count(t0: float, t1: float, dt: float) -> int:
    """Number of samples of ``uniform_grid(t0, t1, dt)``, whose sample i is t0 + dt * i."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    count = (t1 - t0) / dt * (1.0 + 1e-12) + 1e-9
    if not math.isfinite(count):
        raise ValueError(f"sample count ({t1!r} - {t0!r}) / {dt!r} is not finite")
    return int(math.floor(count)) + 1


def uniform_grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """Sample times t0, t0+dt, ... up to (and not beyond) t1.

    The endpoint is included when t1 - t0 is an integer multiple of dt,
    within rounding.
    """
    return t0 + dt * np.arange(grid_count(t0, t1, dt))


def resample(ts: TimeSeries, grid: np.ndarray) -> np.ndarray:
    """Linearly interpolate a series onto new sample times."""
    return np.interp(grid, ts.t, ts.values)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(1-based line number, stripped text) of each line that is not blank once its '#' comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse_model(text: str) -> ProductivityFunction:
    """Parse model text into a ProductivityFunction.

    Line-oriented UTF-8 format, '#' starts a comment::

        impulse 1.699            # at most one line; feedthrough gain
        exp -0.04910796 -0.07004 # one line per mode: gain, decay rate

    A positive decay rate decays, a negative one grows; zero is rejected.
    """
    impulse: float | None = None
    modes: list[ExponentialMode] = []
    for lineno, line in content_lines(text):
        parts = line.split()
        if parts[0] == "impulse":
            if len(parts) != 2:
                raise ModelFormatError("impulse takes exactly one value", lineno)
            if impulse is not None:
                raise ModelFormatError("duplicate impulse line", lineno)
            impulse = _parse_real(parts[1], lineno)
        elif parts[0] == "exp":
            if len(parts) != 3:
                raise ModelFormatError("exp takes a gain and a decay rate", lineno)
            gain = _parse_real(parts[1], lineno)
            rate = _parse_real(parts[2], lineno)
            try:
                modes.append(ExponentialMode(gain, rate))
            except ValueError as exc:
                raise ModelFormatError(str(exc), lineno) from None
        else:
            raise ModelFormatError(f"unknown directive {parts[0]!r}", lineno)
    try:
        return ProductivityFunction(0.0 if impulse is None else impulse, tuple(modes))
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None


def _parse_real(token: str, lineno: int) -> float:
    try:
        x = float(token)
    except ValueError:
        raise ModelFormatError(f"not a number: {token!r}", lineno) from None
    if not math.isfinite(x):
        raise ModelFormatError(f"non-finite literal: {token!r}", lineno)
    return x


def format_model(pf: ProductivityFunction) -> str:
    """Render a model in the parse_model format.

    Literals use the shortest decimal form that round-trips exactly, so
    parse(format(pf)) always reproduces pf bit for bit.
    """
    lines = []
    if pf.impulse_gain != 0.0:
        lines.append(f"impulse {pf.impulse_gain!r}")
    for m in pf.modes:
        lines.append(f"exp {m.gain!r} {m.decay_rate!r}")
    return "\n".join(lines) + "\n"


def is_stable(pf: ProductivityFunction) -> bool:
    """True when every mode decays (no growing terms)."""
    return all(m.decay_rate > 0 for m in pf.modes)


def steady_state_gain(pf: ProductivityFunction) -> float | None:
    """Final value of the unit-step response; None when the model grows.

    For a stable model the step response settles at
    impulse_gain + sum(gain/decay_rate) over the modes.
    """
    if not is_stable(pf):
        return None
    return pf.impulse_gain + sum(m.gain / m.decay_rate for m in pf.modes)
