"""Scenario configuration: flat ``key = value`` text with dotted sections.

Example::

    lattice.dims = 256
    lattice.h = 1.0
    lattice.boundary = periodic
    initial.kind = gaussian
    initial.center = 0
    initial.width = 8
    potential.kind = zero
    step.dt = 0.1
    run.mode = meanfield
    run.duration = 20
    run.seed = 1
    output.every = 10

Blank lines and lines whose first non-blank character is ``#`` are
ignored.  A ``#`` after a value is part of the value, so a file path may
contain one.  Parse errors name the offending line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import StepParams
from .errors import ConfigError
from .frames import read_frame
from .lattice import FieldGrid, LatticeSpec, PotentialField, cell_index, relax_to_green
from .oracle import ComplexField

MODES = ("meanfield", "stochastic", "oracle")
INITIAL_KINDS = ("delta", "gaussian", "plane_wave", "file")
POTENTIAL_KINDS = ("zero", "harmonic", "box", "coulomb_relaxed", "file")


def parse_config(text: str, name: str = "<config>") -> dict[str, str]:
    """Parse the flat key = value format into a dict."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{name}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError(f"{name}:{lineno}: empty key")
        if key in out:
            raise ConfigError(f"{name}:{lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class Scenario:
    """A fully parsed simulation scenario."""

    lattice: LatticeSpec
    initial_kind: str
    initial_params: dict
    potential_kind: str
    potential_params: dict
    step: StepParams
    mode: str
    seed: int
    steps: int
    samples: int
    output_every: int
    output_types: bool = False
    output_pgm: bool = False


REQUIRED = object()  # the default of a key every scenario must set


def _number(minimum=-math.inf, strict=False, whole=False):
    """The parser of a finite number of at least ``minimum`` (``strict``:
    above it); a ``whole`` number parses to an int."""
    def parse(v: str):
        try:
            x = float(v)
        except ValueError:
            raise ValueError(f"expected a number, got {v!r}") from None
        if not math.isfinite(x):
            raise ValueError(f"expected a finite number, got {v!r}")
        if whole and x != int(x):
            raise ValueError(f"expected an integer, got {x!r}")
        if x < minimum or strict and x == minimum:
            raise ValueError(f"must be {'>' if strict else '>='} {minimum}, got {x!r}")
        return int(x) if whole else x
    return parse


def _numbers(v: str) -> tuple[float, ...]:
    try:
        xs = tuple(float(x) for x in v.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"expected numbers, got {v!r}") from None
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"expected finite numbers, got {v!r}")
    return xs


def _dims(v: str) -> tuple[int, ...]:
    dims = _numbers(v)
    if any(d != int(d) for d in dims):
        raise ValueError(f"expected integers, got {dims}")
    return tuple(int(d) for d in dims)


def _boolean(v: str) -> bool:
    if v.lower() in ("true", "yes", "1", "on"):
        return True
    if v.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {v!r}")


def _choice(choices):
    def parse(v: str) -> str:
        if v not in choices:
            raise ValueError(f"expected one of {choices}, got {v!r}")
        return v
    return parse


# Every key a scenario may set: its parser and its default.  A key's
# section and field name the argument it fills (``step.dt`` is
# ``StepParams.dt``, ``potential.charge`` is ``potential_params["charge"]``).
# A centre or momentum of None is 0 on every axis of the lattice.
KEYS = {
    "lattice.dims": (_dims, REQUIRED),
    "lattice.h": (_number(), 1.0),
    "lattice.boundary": (str, "periodic"),
    "initial.kind": (_choice(INITIAL_KINDS), REQUIRED),
    "initial.center": (_numbers, None),
    "initial.width": (_number(0, strict=True), 4.0),
    "initial.momentum": (_numbers, None),
    "initial.file": (str, None),
    "potential.kind": (_choice(POTENTIAL_KINDS), "zero"),
    "potential.strength": (_number(), 1.0),
    "potential.width": (_number(0, strict=True), None),
    "potential.v0": (_number(), 0.0),
    "potential.charge": (_number(), 1.0),
    "potential.stay_prob": (_number(), 0.5),
    "potential.relax_steps": (_number(whole=True), 20000),
    "potential.file": (str, None),
    "step.dt": (_number(), REQUIRED),
    "step.dt_phot": (_number(), None),
    "step.A": (_number(), None),
    "run.mode": (_choice(MODES), "meanfield"),
    "run.duration": (_number(0), None),
    "run.steps": (_number(0, whole=True), None),
    "run.seed": (_number(0, whole=True), 0),
    "run.samples": (_number(1, whole=True), 100000),
    "output.every": (_number(1, whole=True), 1),
    "output.types": (_boolean, False),
    "output.pgm": (_boolean, False),
}
_REQUIRED_KEYS = tuple(key for key, (_, default) in KEYS.items() if default is REQUIRED)
# the defaults by section, {section: {field: default}}, copied by every load
_DEFAULTS: dict[str, dict] = {}
for _key, (_, _default) in KEYS.items():
    _section, _, _field = _key.partition(".")
    _DEFAULTS.setdefault(_section, {})[_field] = _default


def load_scenario(text: str, name: str = "<config>") -> Scenario:
    cfg = parse_config(text, name)
    unknown = [key for key in cfg if key not in KEYS]
    if unknown:
        raise ConfigError(f"{name}: unknown key(s): {', '.join(sorted(unknown))}")
    for key in _REQUIRED_KEYS:
        if key not in cfg:
            raise ConfigError(f"{name}: missing required key {key!r}")
    sections = {section: dict(fields) for section, fields in _DEFAULTS.items()}
    for key, value in cfg.items():
        section, _, field = key.partition(".")
        try:
            sections[section][field] = KEYS[key][0](value)
        except ValueError as exc:
            raise ConfigError(f"{name}: key {key!r}: {exc}") from None
    initial, potential = sections["initial"], sections["potential"]
    run, output = sections["run"], sections["output"]

    spec = LatticeSpec(**sections["lattice"])
    for key in ("center", "momentum"):
        if initial[key] is None:
            initial[key] = (0.0,) * spec.ndim
        elif len(initial[key]) != spec.ndim:
            raise ConfigError(
                f"{name}: key 'initial.{key}': expected {spec.ndim} coordinate(s), "
                f"got {initial[key]}"
            )
    if output["pgm"] and spec.ndim != 2:
        raise ConfigError(f"{name}: output.pgm = true needs a 2D lattice, got {spec.ndim}D")
    step = StepParams(**sections["step"])
    steps = run["steps"]
    if steps is None:
        steps = 0 if run["duration"] is None else int(round(run["duration"] / step.dt))
    elif run["duration"] is not None:
        raise ConfigError(f"{name}: run.steps and run.duration exclude each other; set one")
    return Scenario(
        lattice=spec, initial_kind=initial.pop("kind"), initial_params=initial,
        potential_kind=potential.pop("kind"), potential_params=potential, step=step,
        mode=run["mode"], seed=run["seed"], steps=steps, samples=run["samples"],
        output_every=output["every"], output_types=output["types"], output_pgm=output["pgm"],
    )


def load_scenario_file(path) -> Scenario:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config ({exc.strerror})") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: config is not text ({exc.reason})") from exc
    return load_scenario(text, name=str(path))


def _grid(spec: LatticeSpec) -> list[np.ndarray]:
    """Cell-center coordinates of every axis, shaped to broadcast together."""
    return np.meshgrid(*(spec.coordinates(a) for a in range(spec.ndim)),
                       indexing="ij", sparse=True)


def _frame_values(section: str, path, spec: LatticeSpec) -> np.ndarray:
    """The values of the FRAME file named by ``<section>.file``, on ``spec``."""
    if not path:
        raise ConfigError(f"{section}.kind = file needs {section}.file")
    fr = read_frame(path)
    if fr.dims != spec.dims:
        raise ConfigError(f"{section} file dims {fr.dims} do not match lattice {spec.dims}")
    return fr.values


def build_initial(s: Scenario) -> ComplexField:
    """The scenario's initial wave function, L2-normalized."""
    spec = s.lattice
    kind = s.initial_kind
    p = s.initial_params
    if kind in ("gaussian", "plane_wave"):  # the phase k*x is largest at an axis's end
        for k, n in zip(p["momentum"], spec.dims):
            if not math.isfinite(abs(k) * ((n - 1) / 2.0 * spec.h)):
                raise ConfigError(f"key 'initial.momentum': {k!r} overflows the phase k*x")
    if kind == "file":
        psi = _frame_values("initial", p["file"], spec).astype(complex)
    elif kind == "delta":
        psi = np.zeros(spec.dims, dtype=complex)
        # half a cell rounds up, so the default centre is cell n // 2 for every n,
        # the cell of the point source of a relaxed potential
        pos = [math.floor(c / spec.h + (n - 1) / 2.0 + 0.5)
               for c, n in zip(p["center"], spec.dims)]
        psi.flat[cell_index(pos, spec)] = 1.0
    elif kind == "gaussian":
        if not 1e-150 < p["width"] < 1e150:  # 4*width^2 a positive finite float
            raise ConfigError(f"key 'initial.width': {p['width']!r} is outside (1e-150, 1e150)")
        with np.errstate(over="ignore"):  # a square past the float range is an amplitude of 0
            psi = math.prod(
                np.exp(-((x - c) ** 2) / (4.0 * p["width"] ** 2) + 1j * k * x)
                for x, c, k in zip(_grid(spec), p["center"], p["momentum"])
            )
    elif kind == "plane_wave":
        psi = math.prod(np.exp(1j * k * x) for x, k in zip(_grid(spec), p["momentum"]))
    else:  # pragma: no cover
        raise ConfigError(f"unknown initial kind {kind!r}")
    n = np.linalg.norm(psi)
    if n == 0:
        raise ConfigError("initial wave function is identically zero")
    return ComplexField(spec, psi / n)


def build_potential(s: Scenario) -> PotentialField:
    spec = s.lattice
    kind = s.potential_kind
    p = s.potential_params
    if kind == "zero":
        return PotentialField.zero(spec)
    if kind == "file":
        return PotentialField(FieldGrid(spec, _frame_values("potential", p["file"], spec)))
    if kind == "harmonic":
        half = [(n - 1) / 2.0 * spec.h for n in spec.dims]  # each axis's largest |x|
        if not math.isfinite(abs(p["strength"]) * sum(x * x for x in half)):
            raise ConfigError(f"key 'potential.strength': {p['strength']!r} overflows V")
        return PotentialField(FieldGrid(spec, p["strength"] * sum(x**2 for x in _grid(spec))))
    if kind == "box":
        # flat well of the given full width around the center, walls at v0
        width = p["width"] if p["width"] is not None else min(spec.dims) * spec.h / 2
        inside = np.ones(spec.dims, dtype=bool)
        for x in _grid(spec):
            inside &= np.abs(x) <= width / 2
        return PotentialField(FieldGrid(spec, np.where(inside, 0.0, p["v0"])))
    if kind == "coulomb_relaxed":
        source = np.zeros(spec.dims)
        source[tuple(n // 2 for n in spec.dims)] = 1.0
        res = relax_to_green(
            FieldGrid(spec, source),
            FieldGrid(spec),
            p["stay_prob"],
            p["relax_steps"],
        )
        if not res.converged:
            raise ConfigError(
                f"coulomb_relaxed potential did not converge in potential.relax_steps = "
                f"{p['relax_steps']} sweeps (last relative change {res.last_change:.3g}, "
                f"{spec.boundary.value} boundary; only an absorbing one has a fixed point)"
            )
        if not math.isfinite(abs(p["charge"]) * float(res.field.values.max())):  # field >= 0
            raise ConfigError(f"key 'potential.charge': {p['charge']!r} overflows V")
        return PotentialField(FieldGrid(spec, -p["charge"] * res.field.values))
    raise ConfigError(f"unknown potential kind {kind!r}")  # pragma: no cover
