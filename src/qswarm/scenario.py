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


class _Reader:
    """Typed access to the flat key dict, tracking unknown keys."""

    def __init__(self, cfg: dict[str, str], name: str):
        self.cfg = cfg
        self.name = name
        self.used: set[str] = set()

    def get(self, key, default=None, required=False):
        if key in self.cfg:
            self.used.add(key)
            return self.cfg[key]
        if required:
            raise ConfigError(f"{self.name}: missing required key {key!r}")
        return default

    def get_float(self, key, default=None, required=False):
        v = self.get(key, default, required)
        if v is None or isinstance(v, (int, float)):
            return v
        try:
            x = float(v)
        except ValueError:
            raise ConfigError(f"{self.name}: key {key!r}: expected a number, got {v!r}")
        if not math.isfinite(x):
            raise ConfigError(f"{self.name}: key {key!r}: expected a finite number, got {v!r}")
        return x

    def get_int(self, key, default=None, required=False, minimum=None):
        v = self.get_float(key, default, required)
        if v is None:
            return None
        if v != int(v):
            raise ConfigError(f"{self.name}: key {key!r}: expected an integer, got {v!r}")
        if minimum is not None and v < minimum:
            raise ConfigError(f"{self.name}: key {key!r}: must be >= {minimum}, got {v!r}")
        return int(v)

    def get_bool(self, key, default=False):
        v = self.get(key, None)
        if v is None:
            return default
        if v.lower() in ("true", "yes", "1", "on"):
            return True
        if v.lower() in ("false", "no", "0", "off"):
            return False
        raise ConfigError(f"{self.name}: key {key!r}: expected a boolean, got {v!r}")

    def get_floats(self, key, default=None):
        v = self.get(key, None)
        if v is None:
            return default
        try:
            xs = tuple(float(x) for x in v.replace(",", " ").split())
        except ValueError:
            raise ConfigError(f"{self.name}: key {key!r}: expected numbers, got {v!r}")
        if not all(map(math.isfinite, xs)):
            raise ConfigError(f"{self.name}: key {key!r}: expected finite numbers, got {v!r}")
        return xs

    def get_choice(self, key, choices, default=None, required=False):
        v = self.get(key, default, required)
        if v is not None and v not in choices:
            raise ConfigError(
                f"{self.name}: key {key!r}: expected one of {choices}, got {v!r}"
            )
        return v

    def check_unknown(self):
        unknown = set(self.cfg) - self.used
        if unknown:
            raise ConfigError(
                f"{self.name}: unknown key(s): {', '.join(sorted(unknown))}"
            )


def load_scenario(text: str, name: str = "<config>") -> Scenario:
    cfg = parse_config(text, name)
    r = _Reader(cfg, name)

    dims = r.get_floats("lattice.dims")
    if dims is None:
        raise ConfigError(f"{name}: missing required key 'lattice.dims'")
    if any(d != int(d) for d in dims):
        raise ConfigError(f"{name}: key 'lattice.dims': expected integers, got {dims}")
    spec = LatticeSpec(
        tuple(int(d) for d in dims),
        h=r.get_float("lattice.h", 1.0),
        boundary=r.get("lattice.boundary", "periodic"),
    )

    initial_kind = r.get_choice("initial.kind", INITIAL_KINDS, required=True)
    initial_params = {
        "center": r.get_floats("initial.center", (0.0,) * spec.ndim),
        "width": r.get_float("initial.width", 4.0),
        "momentum": r.get_floats("initial.momentum", (0.0,) * spec.ndim),
        "file": r.get("initial.file"),
    }
    if initial_params["width"] <= 0:
        raise ConfigError(
            f"{name}: key 'initial.width': must be > 0, got {initial_params['width']!r}"
        )
    for key in ("center", "momentum"):
        if len(initial_params[key]) != spec.ndim:
            raise ConfigError(
                f"{name}: key 'initial.{key}': expected {spec.ndim} coordinate(s), "
                f"got {initial_params[key]}"
            )

    potential_kind = r.get_choice("potential.kind", POTENTIAL_KINDS, default="zero")
    potential_params = {
        "strength": r.get_float("potential.strength", 1.0),
        "width": r.get_float("potential.width"),
        "v0": r.get_float("potential.v0", 0.0),
        "charge": r.get_float("potential.charge", 1.0),
        "stay_prob": r.get_float("potential.stay_prob", 0.5),
        "relax_steps": r.get_int("potential.relax_steps", 20000),
        "file": r.get("potential.file"),
    }

    step = StepParams(
        dt=r.get_float("step.dt", required=True),
        dt_phot=r.get_float("step.dt_phot"),
        A=r.get_float("step.A"),
        max_population=r.get_float("step.max_population"),
    )

    mode = r.get_choice("run.mode", MODES, default="meanfield")
    duration = r.get_float("run.duration")
    if duration is not None and duration < 0:
        raise ConfigError(f"{name}: key 'run.duration': must be >= 0, got {duration!r}")
    steps = r.get_int("run.steps", minimum=0)
    if steps is None:
        steps = 0 if duration is None else int(round(duration / step.dt))

    scenario = Scenario(
        lattice=spec,
        initial_kind=initial_kind,
        initial_params=initial_params,
        potential_kind=potential_kind,
        potential_params=potential_params,
        step=step,
        mode=mode,
        seed=r.get_int("run.seed", 0, minimum=0),
        steps=steps,
        samples=r.get_int("run.samples", 100000, minimum=1),
        output_every=r.get_int("output.every", 1, minimum=1),
        output_types=r.get_bool("output.types", False),
        output_pgm=r.get_bool("output.pgm", False),
    )
    r.check_unknown()
    return scenario


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
        return PotentialField(FieldGrid(spec, -p["charge"] * res.field.values))
    raise ConfigError(f"unknown potential kind {kind!r}")  # pragma: no cover
