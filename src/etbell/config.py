"""Run-configuration parsing and validation.

Configs are layered key-value files with one section per subsystem,
parsed with :mod:`configparser`; a JSON mirror with the same nesting is
accepted for files ending in ``.json``.  Keys outside :data:`SCHEMA` are
refused, among them ``[run] n_pairs`` (``etbell lhv`` takes the pair
count from its command line) and ``[source] pump_power_mw`` and
``wavelength_nm``, which nothing reads.  The ``[channel]``, ``[detector]``
and ``[arms]`` keys and the PID keys of ``[lock]`` are the fields, types
and defaults of the subsystem dataclasses; each section is built as
``Params(**section)`` and each object checks its own invariants.
:func:`build_config` tags such a violation with its section and adds the
cross-field checks, among them a non-negative ``[run] seed``,
``0 < sync_bin < sync_search_span`` and a ``[lock] duration`` of at least
two loop samples.  The resolved configuration is serialized back out
verbatim so a run directory always carries exactly what was simulated.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigurationError, ContractViolation, StrategyGeometryError
from .lhv import get_strategy
from .lockbox import DriftProcess, PidParams, ReferenceSignal
from .photonics import ChannelParams, DetectorParams, SourceParams
from .qmodel import DIFFERENCE, PHASE_CONVENTIONS, SettingsQuad, canonical_quad, validate_visibility
from .tagger import CoincidenceConfig
from .topology import ArmConfig, Geometry

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _as_bool(raw: Any, where: str) -> bool:
    if isinstance(raw, bool):
        return raw
    s = str(raw).strip().lower()
    if s in _BOOL_TRUE:
        return True
    if s in _BOOL_FALSE:
        return False
    raise ConfigurationError(f"{where}: expected a boolean, got {raw!r}")


def _as_float(raw: Any, where: str) -> float:
    try:
        v = float(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(v):
        raise ConfigurationError(f"{where}: value must be finite, got {raw!r}")
    return v


def _as_int(raw: Any, where: str) -> int:
    try:
        return int(str(raw), 0)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"{where}: expected an integer, got {raw!r}") from exc


def _as_str(raw: Any, where: str) -> str:
    return str(raw).strip()


# The subsystem modules postpone annotations, so a field's type is its name.
_CONVERTERS = {"bool": _as_bool, "float": _as_float, "int": _as_int, "str": _as_str}


def _fields_of(cls: type) -> dict[str, tuple[Any, Any]]:
    """Schema entries of a subsystem dataclass: field -> (converter, default)."""
    return {f.name: (_CONVERTERS[f.type], f.default) for f in fields(cls)}


# section -> key -> (converter, default).
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "run": {
        "mode": (_as_str, "quantum"),  # quantum | lhv:<strategy>
        "geometry": (_as_str, "hug"),  # hug | franson
        "seed": (_as_int, 1),
        "phase_convention": (_as_str, DIFFERENCE),
        "settings": (_as_str, "canonical"),  # canonical | "a0,a1,b0,b1" in radians
        "duration_per_setting": (_as_float, 0.1),  # seconds
        "save_timetags": (_as_bool, False),
        "sweep": (_as_bool, False),
        "sweep_points": (_as_int, 16),
        "sweep_phi_b": (_as_float, math.pi / 4),
        "sweep_duration_per_point": (_as_float, 0.05),
    },
    "source": {"pair_rate": (_as_float, 4.1e7)},
    "channel": _fields_of(ChannelParams),
    "detector": _fields_of(DetectorParams),
    "arms": _fields_of(ArmConfig),
    "coincidence": {
        "window": (_as_float, 1e-9),
        "bob_link_delay": (_as_float, 18.5e-6),
        "sync": (_as_bool, True),
        "sync_search_span": (_as_float, 100e-6),
        "sync_bin": (_as_float, 100e-12),
        "sync_max_pulses": (_as_int, 20_000),
    },
    "dephasing": {
        "source_visibility": (_as_float, 1.0),
        "alice_phase_sigma": (_as_float, 0.0),  # rad, Gaussian blur of the unlocked side
    },
    "lock": {
        "enabled": (_as_bool, False),
        "drift_model": (_as_str, "random-walk"),
        "diffusion": (_as_float, 2.0),
        "reversion_rate": (_as_float, 0.0),
        "duration": (_as_float, 1.0),
        "setpoint": (_as_float, -math.pi / 4),
        **_fields_of(PidParams),
    },
}


@dataclass
class RunConfig:
    """Fully validated configuration: the subsystem objects plus the run-level keys."""

    raw: dict[str, dict[str, Any]]
    geometry: Geometry
    convention: str
    quad: SettingsQuad
    source: SourceParams  # duration 0: each block sets its own duration and seed
    channel: ChannelParams
    detector: DetectorParams
    arms: ArmConfig
    drift: DriftProcess
    reference: ReferenceSignal
    pid: PidParams
    lock_enabled: bool
    lock_duration: float
    lock_setpoint: float
    # the remaining [run] keys
    mode: str
    seed: int
    duration_per_setting: float
    save_timetags: bool
    sweep: bool
    sweep_points: int
    sweep_phi_b: float
    sweep_duration_per_point: float
    # the [coincidence] and [dephasing] keys
    window: float
    bob_link_delay: float
    sync: bool
    sync_search_span: float
    sync_bin: float
    sync_max_pulses: int
    source_visibility: float
    alice_phase_sigma: float


def _read_sections(path: Path) -> dict[str, dict[str, Any]]:
    if path.suffix.lower() == ".json":
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(data, dict) or not all(isinstance(v, dict) for v in data.values()):
            raise ConfigurationError(f"{path}: JSON config must map sections to key/value maps")
        return {str(k): dict(v) for k, v in data.items()}
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def resolve_sections(sections: dict[str, dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Validate sections against the schema and fill in defaults."""
    for section, entries in sections.items():
        if section not in SCHEMA:
            raise ConfigurationError(
                f"unknown config section [{section}]; expected one of {sorted(SCHEMA)}"
            )
        for key in entries:
            if key not in SCHEMA[section]:
                raise ConfigurationError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(SCHEMA[section])}"
                )
    resolved = {}
    for section, keys in SCHEMA.items():
        got = sections.get(section, {})
        resolved[section] = {
            key: conv(got[key], f"[{section}] {key}") if key in got else default
            for key, (conv, default) in keys.items()
        }
    return resolved


def _parse_settings(spec: str, convention: str) -> SettingsQuad:
    if spec.strip().lower() == "canonical":
        return canonical_quad(convention)
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != 4:
        raise ConfigurationError(
            f"[run] settings: expected 'canonical' or four comma-separated radians, got {spec!r}"
        )
    try:
        phases = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigurationError(f"[run] settings: non-numeric phase in {spec!r}") from exc
    if not all(math.isfinite(p) for p in phases):
        raise ConfigurationError(f"[run] settings: phases must be finite, got {spec!r}")
    return SettingsQuad(*phases)


#: Bytes each emitted pair holds for the whole block: its int64 emission time.
_EMISSION_BYTES = 8


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None  # not reported on this platform


def _check_emission_memory(r: dict[str, dict[str, Any]]) -> None:
    """Refuse a pair rate whose longest block cannot hold its emission times."""
    run = r["run"]
    longest = run["duration_per_setting"]
    if run["sweep"]:
        longest = max(longest, run["sweep_duration_per_point"])
    need = _EMISSION_BYTES * r["source"]["pair_rate"] * longest
    have = _physical_memory_bytes()
    if have is not None and need > have:
        raise ConfigurationError(
            f"[source] pair_rate = {r['source']['pair_rate']:g} over a {longest:g} s block "
            f"needs about {need / 1e9:.3g} GB for emission times, more than this "
            f"machine's {have / 1e9:.3g} GB of physical memory"
        )


def _build(section: str, make: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """``make(*args, **kwargs)``, a contract violation reported against ``[section]``."""
    try:
        return make(*args, **kwargs)
    except ContractViolation as exc:
        raise ConfigurationError(f"[{section}] {exc}") from exc


def build_config(sections: dict[str, dict[str, Any]]) -> RunConfig:
    r = resolve_sections(sections)
    run = r["run"]
    cc = r["coincidence"]
    lock = r["lock"]

    mode = run["mode"]
    if mode != "quantum" and not mode.startswith("lhv:"):
        raise ConfigurationError(f"[run] mode must be 'quantum' or 'lhv:<strategy>', got {mode!r}")
    try:
        geometry = Geometry(run["geometry"])
    except ValueError as exc:
        raise ConfigurationError(
            f"[run] geometry must be 'franson' or 'hug', got {run['geometry']!r}"
        ) from exc
    convention = run["phase_convention"]
    if convention not in PHASE_CONVENTIONS:
        raise ConfigurationError(
            f"[run] phase_convention must be one of {PHASE_CONVENTIONS}, got {convention!r}"
        )
    if mode.startswith("lhv:"):
        try:
            get_strategy(mode.split(":", 1)[1], convention).check_geometry(geometry)
        except (ContractViolation, StrategyGeometryError) as exc:
            raise ConfigurationError(f"[run] mode {mode!r}: {exc}") from exc
    quad = _parse_settings(run["settings"], convention)
    if run["seed"] < 0:
        raise ConfigurationError(f"[run] seed must be a non-negative integer, got {run['seed']}")

    source = _build("source", SourceParams, duration=0.0, **r["source"])
    channel = _build("channel", ChannelParams, **r["channel"])
    detector = _build("detector", DetectorParams, **r["detector"])
    arms = _build("arms", ArmConfig, **r["arms"])
    pid = _build("lock", PidParams, **{f.name: lock[f.name] for f in fields(PidParams)})
    drift = _build(
        "lock",
        DriftProcess,
        model=lock["drift_model"],
        diffusion=lock["diffusion"],
        reversion_rate=lock["reversion_rate"],
        sample_rate=pid.loop_rate,
    )
    window = cc["window"]
    delay = cc["bob_link_delay"]
    _build("coincidence", CoincidenceConfig.from_seconds, window, delay, arms.delta_t)
    _build("dephasing", validate_visibility, r["dephasing"]["source_visibility"])

    if detector.jitter_sigma > window:
        raise ConfigurationError(
            f"[detector] jitter_sigma ({detector.jitter_sigma:g} s) exceeds the "
            f"coincidence window ({window:g} s); matched pairs would be lost"
        )
    if not 0.0 <= r["dephasing"]["alice_phase_sigma"] <= 2.0 * math.pi:
        raise ConfigurationError(
            "[dephasing] alice_phase_sigma must be in [0, 2 pi] rad: at 2 pi the "
            "dephasing factor exp(-sigma^2 / 2) = exp(-2 pi^2) ~ 3e-9 is already full"
        )
    for key in ("duration_per_setting", "sweep_duration_per_point"):
        if not run[key] > 0:
            raise ConfigurationError(f"[run] {key} must be positive")
    _check_emission_memory(r)
    if cc["sync_max_pulses"] < 1:
        raise ConfigurationError("[coincidence] sync_max_pulses must be at least 1")
    if not 0.0 < cc["sync_bin"] < cc["sync_search_span"]:
        raise ConfigurationError(
            f"[coincidence] need 0 < sync_bin < sync_search_span, got sync_bin = "
            f"{cc['sync_bin']:g} s and sync_search_span = {cc['sync_search_span']:g} s"
        )
    if run["sweep"] and run["sweep_points"] < 5:
        raise ConfigurationError("[run] sweep_points must be at least 5")
    if not lock["duration"] * pid.loop_rate >= 2.0:
        raise ConfigurationError(
            f"[lock] duration ({lock['duration']:g} s) must span at least two loop "
            f"samples of 1 / loop_rate = {1.0 / pid.loop_rate:g} s"
        )

    return RunConfig(
        raw=r,
        geometry=geometry,
        convention=convention,
        quad=quad,
        source=source,
        channel=channel,
        detector=detector,
        arms=arms,
        drift=drift,
        reference=ReferenceSignal(),
        pid=pid,
        lock_enabled=lock["enabled"],
        lock_duration=lock["duration"],
        lock_setpoint=lock["setpoint"],
        **{k: v for k, v in run.items() if k not in ("geometry", "phase_convention", "settings")},
        **cc,
        **r["dephasing"],
    )


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    return build_config(_read_sections(path))


def bundled_config_path(name: str) -> Path:
    """Path of a bundled config; ``name`` may omit the .cfg suffix."""
    fname = name if name.endswith(".cfg") else f"{name}.cfg"
    ref = resources.files("etbell").joinpath("configs", fname)
    with resources.as_file(ref) as p:
        if not p.exists():
            available = sorted(c.name for c in resources.files("etbell").joinpath("configs").iterdir())
            raise ConfigurationError(f"no bundled config {fname!r}; available: {available}")
        return Path(p)


def bundled_config_names() -> list[str]:
    folder = resources.files("etbell").joinpath("configs")
    return sorted(p.name for p in folder.iterdir() if p.name.endswith(".cfg"))


def serialize_resolved(resolved: dict[str, dict[str, Any]]) -> str:
    """Deterministic INI rendering of a resolved configuration."""
    lines = []
    for section in sorted(resolved):
        lines.append(f"[{section}]")
        for key in sorted(resolved[section]):
            value = resolved[section][key]
            if isinstance(value, bool):
                value = "on" if value else "off"
            lines.append(f"{key} = {value}")
        lines.append("")
    return "\n".join(lines)
