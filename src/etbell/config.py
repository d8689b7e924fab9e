"""Run-configuration parsing and validation.

Configs are layered key-value files with one section per subsystem,
parsed with :mod:`configparser`; a JSON mirror with the same nesting is
accepted for files ending in ``.json``.  Every key is validated against
the schema below, cross-field physics checks run after parsing, and the
resolved configuration can be serialized back out verbatim so a run
directory always carries exactly what was simulated.
"""

from __future__ import annotations

import configparser
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .errors import ConfigurationError, ContractViolation, StrategyGeometryError
from .lhv import get_strategy
from .lockbox import DriftProcess, PidParams, ReferenceSignal
from .photonics import ChannelParams, DetectorParams, SourceParams
from .qmodel import DIFFERENCE, PHASE_CONVENTIONS, SettingsQuad, canonical_quad
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


# section -> key -> (converter, default).  None default means required.
SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "run": {
        "mode": (str, "quantum"),  # quantum | lhv:<strategy>
        "geometry": (str, "hug"),  # hug | franson
        "seed": (_as_int, 1),
        "phase_convention": (str, DIFFERENCE),
        "settings": (str, "canonical"),  # canonical | "a0,a1,b0,b1" in radians
        "duration_per_setting": (_as_float, 0.1),  # seconds, quantum mode
        "n_pairs": (_as_int, 1_000_000),  # lhv mode
        "save_timetags": (_as_bool, False),
        "sweep": (_as_bool, False),
        "sweep_points": (_as_int, 16),
        "sweep_phi_b": (_as_float, math.pi / 4),
        "sweep_duration_per_point": (_as_float, 0.05),
    },
    "source": {
        "pair_rate": (_as_float, 4.1e7),
        "pump_power_mw": (_as_float, 4.0),
        "wavelength_nm": (_as_float, 806.0),
    },
    "channel": {
        "loss_a_db": (_as_float, 3.0),
        "loss_b_db": (_as_float, 17.0),
        "coupling_loss_db": (_as_float, 15.0),
        "filter_transmission": (_as_float, 0.9),
    },
    "detector": {
        "efficiency": (_as_float, 0.6),
        "dark_rate": (_as_float, 100.0),
        "jitter_sigma": (_as_float, 350e-12),
        "dead_time": (_as_float, 1e-6),
    },
    "arms": {
        "delta_t": (_as_float, 10e-9),
        "imbalance": (_as_float, 0.0),
        "coherence_length": (_as_float, 1e-3),
    },
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
        "drift_model": (str, "random-walk"),
        "diffusion": (_as_float, 2.0),
        "reversion_rate": (_as_float, 0.0),
        "duration": (_as_float, 1.0),
        "kp": (_as_float, 0.6),
        "ki": (_as_float, 20_000.0),
        "kd": (_as_float, 2e-6),
        "loop_rate": (_as_float, 50_000.0),
        "bandwidth": (_as_float, 5_000.0),
        "actuator_range": (_as_float, 60.0),
        "highpass_cutoff": (_as_float, 20.0),
        "setpoint": (_as_float, -math.pi / 4),
    },
}


@dataclass
class RunConfig:
    """Fully validated configuration, typed per subsystem."""

    raw: dict[str, dict[str, Any]]
    mode: str
    geometry: Geometry
    seed: int
    convention: str
    quad: SettingsQuad
    duration_per_setting: float
    n_pairs: int
    save_timetags: bool
    sweep: bool
    sweep_points: int
    sweep_phi_b: float
    sweep_duration_per_point: float
    channel: ChannelParams
    detector: DetectorParams
    arms: ArmConfig
    pair_rate: float
    pump_power_mw: float
    wavelength_nm: float
    window: float
    bob_link_delay: float
    sync: bool
    sync_search_span: float
    sync_bin: float
    sync_max_pulses: int
    source_visibility: float
    alice_phase_sigma: float
    lock_enabled: bool
    lock_duration: float
    drift: DriftProcess
    reference: ReferenceSignal
    pid: PidParams
    lock_setpoint: float

    def source_params(self, duration: float, seed: int) -> SourceParams:
        return SourceParams(
            pair_rate=self.pair_rate,
            duration=duration,
            seed=seed,
            pump_power_mw=self.pump_power_mw,
            signal_wavelength_nm=self.wavelength_nm,
        )


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
    resolved: dict[str, dict[str, Any]] = {}
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
    for section, keys in SCHEMA.items():
        got = sections.get(section, {})
        out: dict[str, Any] = {}
        for key, (conv, default) in keys.items():
            if key in got:
                out[key] = conv(got[key], f"[{section}] {key}") if conv is not str else str(
                    got[key]
                ).strip()
            else:
                out[key] = default
        resolved[section] = out
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


def build_config(sections: dict[str, dict[str, Any]]) -> RunConfig:
    r = resolve_sections(sections)
    run = r["run"]

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

    try:
        channel = ChannelParams(
            loss_a_db=r["channel"]["loss_a_db"],
            loss_b_db=r["channel"]["loss_b_db"],
            coupling_loss_db=r["channel"]["coupling_loss_db"],
            filter_transmission=r["channel"]["filter_transmission"],
        )
        detector = DetectorParams(
            efficiency=r["detector"]["efficiency"],
            dark_rate=r["detector"]["dark_rate"],
            jitter_sigma=r["detector"]["jitter_sigma"],
            dead_time=r["detector"]["dead_time"],
        )
        arms = ArmConfig(
            delta_t=r["arms"]["delta_t"],
            imbalance=r["arms"]["imbalance"],
            coherence_length=r["arms"]["coherence_length"],
        )
        drift = DriftProcess(
            model=r["lock"]["drift_model"],
            diffusion=r["lock"]["diffusion"],
            reversion_rate=r["lock"]["reversion_rate"],
            sample_rate=r["lock"]["loop_rate"],
        )
        pid = PidParams(
            kp=r["lock"]["kp"],
            ki=r["lock"]["ki"],
            kd=r["lock"]["kd"],
            loop_rate=r["lock"]["loop_rate"],
            bandwidth=r["lock"]["bandwidth"],
            actuator_range=r["lock"]["actuator_range"],
            highpass_cutoff=r["lock"]["highpass_cutoff"],
        )
    except Exception as exc:
        raise ConfigurationError(str(exc)) from exc

    window = r["coincidence"]["window"]
    if not window > 0:
        raise ConfigurationError("[coincidence] window must be positive")
    if 2.0 * window >= arms.delta_t:
        raise ConfigurationError(
            f"[coincidence] window ({window:g} s) must be below half of "
            f"[arms] delta_t ({arms.delta_t:g} s) or slots are unresolvable"
        )
    if detector.jitter_sigma > window:
        raise ConfigurationError(
            f"[detector] jitter_sigma ({detector.jitter_sigma:g} s) exceeds the "
            f"coincidence window ({window:g} s); matched pairs would be lost"
        )
    vis = r["dephasing"]["source_visibility"]
    if not 0.0 <= vis <= 1.0:
        raise ConfigurationError("[dephasing] source_visibility must be in [0, 1]")
    if not 0.0 <= r["dephasing"]["alice_phase_sigma"] <= 2.0 * math.pi:
        raise ConfigurationError(
            "[dephasing] alice_phase_sigma must be in [0, 2 pi] rad: at 2 pi the "
            "dephasing factor exp(-sigma^2 / 2) = exp(-2 pi^2) ~ 3e-9 is already full"
        )
    if not r["source"]["pair_rate"] > 0:
        raise ConfigurationError("[source] pair_rate must be positive")
    for key in ("duration_per_setting", "sweep_duration_per_point"):
        if not run[key] > 0:
            raise ConfigurationError(f"[run] {key} must be positive")
    _check_emission_memory(r)
    if r["coincidence"]["sync_max_pulses"] < 1:
        raise ConfigurationError("[coincidence] sync_max_pulses must be at least 1")
    if run["n_pairs"] <= 0:
        raise ConfigurationError("[run] n_pairs must be positive")
    if run["sweep"] and run["sweep_points"] < 5:
        raise ConfigurationError("[run] sweep_points must be at least 5")

    return RunConfig(
        raw=r,
        mode=mode,
        geometry=geometry,
        seed=run["seed"],
        convention=convention,
        quad=quad,
        duration_per_setting=run["duration_per_setting"],
        n_pairs=run["n_pairs"],
        save_timetags=run["save_timetags"],
        sweep=run["sweep"],
        sweep_points=run["sweep_points"],
        sweep_phi_b=run["sweep_phi_b"],
        sweep_duration_per_point=run["sweep_duration_per_point"],
        channel=channel,
        detector=detector,
        arms=arms,
        pair_rate=r["source"]["pair_rate"],
        pump_power_mw=r["source"]["pump_power_mw"],
        wavelength_nm=r["source"]["wavelength_nm"],
        window=window,
        bob_link_delay=r["coincidence"]["bob_link_delay"],
        sync=r["coincidence"]["sync"],
        sync_search_span=r["coincidence"]["sync_search_span"],
        sync_bin=r["coincidence"]["sync_bin"],
        sync_max_pulses=r["coincidence"]["sync_max_pulses"],
        source_visibility=vis,
        alice_phase_sigma=r["dephasing"]["alice_phase_sigma"],
        lock_enabled=r["lock"]["enabled"],
        lock_duration=r["lock"]["duration"],
        drift=drift,
        reference=ReferenceSignal(),
        pid=pid,
        lock_setpoint=r["lock"]["setpoint"],
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
