"""Experiment orchestration and run-directory persistence.

A run walks the full chain: (optional) stabilization-loop simulation to
get the dephasing factor, event generation per setting block, clock-offset
recovery from the synchronization pulses, windowed coincidence matching,
matched-slot post-selection, and finally the correlation/Bell estimators.
Every block draws its randomness from a substream of the run seed, so a
run is reproduced byte-for-byte by its config plus seed, and nothing
wall-clock-dependent is ever written into the artifacts.  When time tags
are saved, each quad block writes the tags and coincidence records it has
just analysed before the next block starts; nothing is simulated twice.

Bell values are always computed from raw counts; the accidental estimate
is reported next to a measured control-window rate but never subtracted.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, serialize_resolved
from .errors import ConfigurationError, ReportError
from .estimators import (
    BellResult,
    FringePoint,
    FringeScan,
    estimate_E,
    estimate_S,
    fit_fringe,
    normalized_fringe_rows,
)
from .lhv import LhvStrategy, get_strategy
from .lockbox import run_lock, residual_to_visibility
from .photonics import CHANNELS, simulate_experiment
from .qmodel import DIFFERENCE
from .tagger import (
    CoincidenceConfig,
    CoincidenceSet,
    CountsMatrix,
    accidental_rate,
    count_in_window,
    franson_postselect,
    match,
    recover_offset,
    write_coincidences_csv,
    write_timetags_binary,
)
from .topology import ALICE, BOB, indistinguishability_factor

_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass
class BlockResult:
    """Tagger-level outcome of one setting block."""

    phi_a: float
    phi_b: float
    duration: float
    counts: CountsMatrix  # matched-slot (post-selected) coincidences
    full_counts: CountsMatrix  # all-slot coincidences (matched + LS + SL)
    discarded_ls: int
    discarded_sl: int
    alice_rate: float
    bob_rate: float
    accidental_estimate_hz: float
    accidental_measured_hz: float
    offset_recovered_s: float


@dataclass
class VisibilityChain:
    source: float
    indistinguishability: float
    alice_dephasing: float
    lock: float
    lock_locked: bool | None
    lock_residual_rms: float | None

    @property
    def effective(self) -> float:
        return self.source * self.indistinguishability * self.alice_dephasing * self.lock


def resolve_visibility(cfg: RunConfig) -> VisibilityChain:
    """Compose the effective fringe visibility from its configured pieces."""
    indist = indistinguishability_factor(cfg.arms)
    alice = math.exp(-0.5 * cfg.alice_phase_sigma**2)
    lock_factor = 1.0
    locked = None
    rms = None
    if cfg.lock_enabled:
        result = run_lock(
            cfg.drift,
            cfg.reference,
            cfg.pid,
            cfg.lock_duration,
            seed=cfg.seed,
            setpoint=cfg.lock_setpoint,
        )
        locked = result.report.locked
        rms = result.report.residual_rms
        acq = result.report.lock_acquisition_time
        if math.isfinite(acq):
            start = int(np.searchsorted(result.time_s, acq))
            lock_factor = residual_to_visibility(result.residual[start:])
        else:
            lock_factor = residual_to_visibility(result.residual)
    return VisibilityChain(
        source=cfg.source_visibility,
        indistinguishability=indist,
        alice_dephasing=alice,
        lock=lock_factor,
        lock_locked=locked,
        lock_residual_rms=rms,
    )


def _block_seed(seed: int, stage: int, index: int) -> int:
    # Stable 63-bit block seed derived from the run seed.
    ss = np.random.SeedSequence([int(seed), stage, index])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def run_setting_block(
    cfg: RunConfig,
    phi_a: float,
    phi_b: float,
    duration: float,
    seed: int,
    strategy: LhvStrategy | None,
    v_eff: float,
    save_to: tuple[Path, Path] | None = None,
) -> BlockResult:
    """Simulate one setting pair and reduce it to coincidence counts.

    With ``save_to`` = (time-tag file, coincidence CSV), the block's tags
    and coincidence records are written there from the arrays it analysed.
    """
    sim = simulate_experiment(
        cfg.geometry,
        strategy if strategy is not None else "quantum",
        phi_a,
        phi_b,
        replace(cfg.source, duration=duration, seed=seed),
        cfg.channel,
        cfg.detector,
        cfg.arms,
        v_eff=v_eff,
        convention=cfg.convention,
    )

    delay_ps = int(round(cfg.bob_link_delay * 1e12))
    alice = {d: sim.channel(ALICE, d).t_ps for d in (1, 2)}
    bob = {d: sim.channel(BOB, d).t_ps + delay_ps for d in (1, 2)}

    if cfg.sync:
        pulses = np.sort(np.concatenate([alice[1], alice[2]]))[: cfg.sync_max_pulses]
        received = pulses + delay_ps
        offset_s = recover_offset(pulses, received, cfg.sync_search_span, cfg.sync_bin)
    else:
        offset_s = cfg.bob_link_delay
    cc_cfg = CoincidenceConfig.from_seconds(cfg.window, offset_s, cfg.arms.delta_t)

    post_counts = {}
    full_counts = {}
    n_ls = 0
    n_sl = 0
    accidental_pairs = 0
    sets = []
    control_center = cc_cfg.delta_t_ps // 2  # between the matched and LS slots
    for x, y in _PAIRS:
        coinc = match(alice[x], bob[y], cc_cfg, alice_detector=x, bob_detector=y)
        post = franson_postselect(coinc)
        post_counts[(x, y)] = len(post.kept)
        full_counts[(x, y)] = len(coinc)
        n_ls += post.discarded_ls
        n_sl += post.discarded_sl
        accidental_pairs += count_in_window(
            alice[x], bob[y], control_center, cc_cfg.window_ps, cc_cfg.offset_ps
        )
        if save_to is not None:
            sets.append(coinc)
    if save_to is not None:
        _write_block_tags(save_to, alice, bob, sets)

    alice_rate = sim.singles_rate(ALICE)
    bob_rate = sim.singles_rate(BOB)
    return BlockResult(
        phi_a=phi_a,
        phi_b=phi_b,
        duration=duration,
        counts=CountsMatrix(
            post_counts[(1, 1)], post_counts[(1, 2)], post_counts[(2, 1)], post_counts[(2, 2)]
        ),
        full_counts=CountsMatrix(
            full_counts[(1, 1)], full_counts[(1, 2)], full_counts[(2, 1)], full_counts[(2, 2)]
        ),
        discarded_ls=n_ls,
        discarded_sl=n_sl,
        alice_rate=alice_rate,
        bob_rate=bob_rate,
        accidental_estimate_hz=accidental_rate(alice_rate, bob_rate, cfg.window),
        accidental_measured_hz=accidental_pairs / duration,
        offset_recovered_s=offset_s,
    )


def _write_block_tags(
    save_to: tuple[Path, Path],
    alice: dict[int, np.ndarray],
    bob: dict[int, np.ndarray],
    sets: list[CoincidenceSet],
) -> None:
    """One block's time tags, merged in time order, and its coincidence records.

    Tags are numbered by their channel's position in ``CHANNELS``; Bob's
    carry the link delay.  The stable sort keeps channel order among ties.
    """
    tags_path, coincidences_path = save_to
    streams = [(alice if party == ALICE else bob)[d] for party, d in CHANNELS]
    channel = np.concatenate([np.full(len(t), i, dtype=np.uint8) for i, t in enumerate(streams)])
    t = np.concatenate(streams)
    order = np.argsort(t, kind="stable")
    write_timetags_binary(tags_path, channel[order], t[order].astype(np.uint64))
    write_coincidences_csv(coincidences_path, sets)


@dataclass
class QuadResult:
    blocks: list[BlockResult]
    bell: BellResult
    bell_full: BellResult


def run_quad(
    cfg: RunConfig, v_eff: float, strategy: LhvStrategy | None, out: Path | None = None
) -> QuadResult:
    """Four disjoint setting blocks plus the CHSH estimates.

    With a run directory ``out``, block k saves its tags to
    ``timetags/quad{k}.bin`` and ``coincidences_quad{k}.csv`` there.
    """
    blocks = []
    for k, (phi_a, phi_b) in enumerate(cfg.quad.pairs()):
        save_to = None
        if out is not None:
            save_to = (out / "timetags" / f"quad{k}.bin", out / f"coincidences_quad{k}.csv")
        blocks.append(
            run_setting_block(
                cfg,
                phi_a,
                phi_b,
                cfg.duration_per_setting,
                _block_seed(cfg.seed, 10, k),
                strategy,
                v_eff,
                save_to=save_to,
            )
        )
    bell = estimate_S(*[estimate_E(b.counts) for b in blocks])
    bell_full = estimate_S(*[estimate_E(b.full_counts) for b in blocks])
    return QuadResult(blocks=blocks, bell=bell, bell_full=bell_full)


@dataclass
class SweepResult:
    scan: FringeScan
    blocks: list[BlockResult]
    s_three_term: float
    s_three_term_err: float
    average_visibility: float
    average_visibility_std: float
    fit_per_pair: dict


def run_sweep(cfg: RunConfig, v_eff: float, strategy: LhvStrategy | None) -> SweepResult:
    """Phase scan at fixed phi_b, the fixed-analyzer measurement procedure.

    The grid is uniform over one period and contains the two phases whose
    effective gaps are pi/4 and 3 pi/4; the symmetry-assumption estimator
    S = 3 E(gap pi/4) - E(gap 3 pi/4) is evaluated from those two blocks.
    """
    n = cfg.sweep_points
    phi_b = cfg.sweep_phi_b
    phases = [2.0 * math.pi * k / n for k in range(n)]
    blocks = []
    for k, phi_a in enumerate(phases):
        blocks.append(
            run_setting_block(
                cfg,
                phi_a,
                phi_b,
                cfg.sweep_duration_per_point,
                _block_seed(cfg.seed, 20, k),
                strategy,
                v_eff,
            )
        )
    points = tuple(
        FringePoint(b.phi_a, b.counts, b.duration) for b in blocks
    )
    scan = FringeScan(points=points, phi_b=phi_b)
    fit = fit_fringe(scan)

    sign = 1.0 if cfg.convention == DIFFERENCE else -1.0
    target_quarter = _wrap(phi_b + sign * math.pi / 4)
    target_three = _wrap(phi_b + sign * 3.0 * math.pi / 4)
    b_quarter = min(blocks, key=lambda b: abs(_wrap(b.phi_a - target_quarter)))
    b_three = min(blocks, key=lambda b: abs(_wrap(b.phi_a - target_three)))
    e_q = estimate_E(b_quarter.counts)
    e_t = estimate_E(b_three.counts)
    s3 = 3.0 * e_q.e_hat - e_t.e_hat
    s3_err = math.sqrt(9.0 * e_q.std_err**2 + e_t.std_err**2)
    return SweepResult(
        scan=scan,
        blocks=blocks,
        s_three_term=s3,
        s_three_term_err=s3_err,
        average_visibility=fit.average_visibility,
        average_visibility_std=fit.average_visibility_std,
        fit_per_pair=fit.per_pair,
    )


def _wrap(phi: float) -> float:
    """Wrap to (-pi, pi]."""
    out = math.fmod(phi + math.pi, 2.0 * math.pi)
    if out <= 0:
        out += 2.0 * math.pi
    return out - math.pi


# ---------------------------------------------------------------------------
# Persistence


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _block_row(index: int, stage: str, b: BlockResult) -> dict:
    return {
        "stage": stage,
        "index": index,
        "phi_a": b.phi_a,
        "phi_b": b.phi_b,
        "integration_time": b.duration,
        "n11": b.counts.n11,
        "n12": b.counts.n12,
        "n21": b.counts.n21,
        "n22": b.counts.n22,
        "discarded_ls": b.discarded_ls,
        "discarded_sl": b.discarded_sl,
        "alice_singles_hz": b.alice_rate,
        "bob_singles_hz": b.bob_rate,
    }


_COUNTS_FIELDS = [
    "stage",
    "index",
    "phi_a",
    "phi_b",
    "integration_time",
    "n11",
    "n12",
    "n21",
    "n22",
    "discarded_ls",
    "discarded_sl",
    "alice_singles_hz",
    "bob_singles_hz",
]


def _bell_dict(r: BellResult) -> dict:
    return {
        "s_hat": r.s_hat,
        "std_err": r.std_err,
        "sigmas_above_2": r.sigmas_above_2 if math.isfinite(r.sigmas_above_2) else None,
        "raw": r.raw,
        "correlations": [
            {"e_hat": c.e_hat, "std_err": c.std_err, "n_total": c.n_total}
            for c in r.correlations
        ],
    }


def run_experiment(cfg: RunConfig, out_dir: str | Path, force: bool = False) -> Path:
    """Execute a configured run and persist its artifacts.

    Writes the resolved config, a version/seed manifest, per-setting counts,
    the Bell summary (and fringe tables in sweep mode) and, when configured,
    the raw time-tag streams.  Outputs are byte-identical across repeat runs
    of the same config and seed.
    """
    out = Path(out_dir)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigurationError(f"output directory {out} exists and is not empty")
    out.mkdir(parents=True, exist_ok=True)

    strategy = None
    if cfg.mode.startswith("lhv:"):
        strategy = get_strategy(cfg.mode.split(":", 1)[1], cfg.convention)

    chain = resolve_visibility(cfg) if strategy is None else None
    v_eff = chain.effective if chain is not None else 1.0

    if cfg.save_timetags:
        (out / "timetags").mkdir(exist_ok=True)
    quad = run_quad(cfg, v_eff, strategy, out if cfg.save_timetags else None)
    sweep = run_sweep(cfg, v_eff, strategy) if cfg.sweep else None

    (out / "resolved.cfg").write_text(serialize_resolved(cfg.raw), encoding="utf-8")
    _write_json(
        out / "manifest.json",
        {
            "format": "etbell-run v1",
            "version": __version__,
            "mode": cfg.mode,
            "geometry": cfg.geometry.value,
            "seed": cfg.seed,
            "phase_convention": cfg.convention,
        },
    )

    with open(out / "counts.csv", "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_COUNTS_FIELDS, lineterminator="\n")
        writer.writeheader()
        for i, b in enumerate(quad.blocks):
            writer.writerow(_block_row(i, "quad", b))
        if sweep is not None:
            for i, b in enumerate(sweep.blocks):
                writer.writerow(_block_row(i, "sweep", b))

    total_matched = sum(b.counts.total for b in quad.blocks)
    total_all = sum(b.full_counts.total for b in quad.blocks)
    discarded = sum(b.discarded_ls + b.discarded_sl for b in quad.blocks)
    bell_payload = {
        "mode": cfg.mode,
        "geometry": cfg.geometry.value,
        "raw_counts_policy": "S computed from raw counts; accidentals reported, never subtracted",
        "bell": _bell_dict(quad.bell),
        "bell_full_sample": _bell_dict(quad.bell_full),
        "per_setting": [_block_row(i, "quad", b) for i, b in enumerate(quad.blocks)],
        "discards": {
            "ls": sum(b.discarded_ls for b in quad.blocks),
            "sl": sum(b.discarded_sl for b in quad.blocks),
            "fraction_of_records": discarded / total_all if total_all else 0.0,
            "matched_records": total_matched,
            "all_records": total_all,
        },
        "accidentals": {
            "window_s": cfg.window,
            "estimate_hz": float(np.mean([b.accidental_estimate_hz for b in quad.blocks])),
            "measured_hz": float(np.mean([b.accidental_measured_hz for b in quad.blocks])),
        },
        "singles": {
            "alice_hz": float(np.mean([b.alice_rate for b in quad.blocks])),
            "bob_hz": float(np.mean([b.bob_rate for b in quad.blocks])),
        },
        "sync": {
            "enabled": cfg.sync,
            "configured_delay_s": cfg.bob_link_delay,
            "recovered_offsets_s": [b.offset_recovered_s for b in quad.blocks],
        },
    }
    if chain is not None:
        bell_payload["visibility_chain"] = {
            "source": chain.source,
            "indistinguishability": chain.indistinguishability,
            "alice_dephasing": chain.alice_dephasing,
            "lock": chain.lock,
            "lock_locked": chain.lock_locked,
            "lock_residual_rms": chain.lock_residual_rms,
            "effective": chain.effective,
        }
    if sweep is not None:
        bell_payload["sweep"] = {
            "phi_b": cfg.sweep_phi_b,
            "points": cfg.sweep_points,
            "s_three_term": sweep.s_three_term,
            "s_three_term_err": sweep.s_three_term_err,
            "average_visibility": sweep.average_visibility,
            "average_visibility_std": sweep.average_visibility_std,
        }
    _write_json(out / "bell.json", bell_payload)

    if sweep is not None:
        rows = normalized_fringe_rows(sweep.scan)
        with open(out / "fringe.csv", "w", newline="\n", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=["phi_a", "n11", "n12", "n21", "n22", "f11", "f12", "f21", "f22"],
                lineterminator="\n",
            )
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        _write_json(
            out / "fringe_fit.json",
            {
                f"{x}{y}": {
                    "visibility": f.visibility,
                    "visibility_err": f.visibility_err,
                    "phase_offset": f.phase_offset,
                    "baseline": f.baseline,
                }
                for (x, y), f in sweep.fit_per_pair.items()
            },
        )

    (out / "summary.txt").write_text(render_summary(out), encoding="utf-8")
    return out


_REQUIRED_ARTIFACTS = ("manifest.json", "resolved.cfg", "counts.csv", "bell.json")


def _read_artifact(path: Path) -> dict:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ReportError(f"unreadable run artifact {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ReportError(f"run artifact {path} is not a JSON object")
    return data


def render_summary(run_dir: str | Path) -> str:
    """Human-readable digest of a run directory's Bell statistics."""
    run_dir = Path(run_dir)
    missing = [name for name in _REQUIRED_ARTIFACTS if not (run_dir / name).exists()]
    if missing:
        raise ReportError(f"run directory {run_dir} is missing artifacts: {missing}")
    manifest = _read_artifact(run_dir / "manifest.json")
    bell = _read_artifact(run_dir / "bell.json")
    try:
        return _summary_text(manifest, bell)
    except (KeyError, TypeError) as exc:
        raise ReportError(
            f"run directory {run_dir}: manifest.json or bell.json lacks or "
            f"mistypes an entry ({type(exc).__name__}: {exc})"
        ) from exc


def _summary_text(manifest: dict, bell: dict) -> str:
    lines = []
    lines.append(f"run: mode={manifest['mode']} geometry={manifest['geometry']} seed={manifest['seed']}")
    lines.append(f"toolkit version: {manifest['version']}")
    lines.append(f"data policy: {bell['raw_counts_policy']}")
    lines.append("")
    if "visibility_chain" in bell:
        vc = bell["visibility_chain"]
        lines.append(
            "visibility chain: source {source:.4f} x indistinguishability "
            "{indistinguishability:.4f} x alice dephasing {alice_dephasing:.4f} "
            "x lock {lock:.4f} = {effective:.4f}".format(**vc)
        )
    b = bell["bell"]
    sig = b["sigmas_above_2"]
    sig_text = f"{sig:.2f}" if sig is not None else "inf"
    lines.append(
        f"S (post-selected, raw) = {b['s_hat']:.4f} +/- {b['std_err']:.4f}"
        f"  [{sig_text} standard deviations above 2]"
    )
    bf = bell["bell_full_sample"]
    lines.append(f"S (full sample, no discarding) = {bf['s_hat']:.4f} +/- {bf['std_err']:.4f}")
    for i, c in enumerate(b["correlations"]):
        lines.append(
            f"  E{i} = {c['e_hat']:+.4f} +/- {c['std_err']:.4f}  (N = {c['n_total']})"
        )
    d = bell["discards"]
    lines.append(
        f"discarded LS/SL records: {d['ls']} + {d['sl']} "
        f"({d['fraction_of_records']:.4f} of all coincidence records)"
    )
    a = bell["accidentals"]
    lines.append(
        f"accidentals: estimate {a['estimate_hz']:.3f}/s vs control-window measured "
        f"{a['measured_hz']:.3f}/s (window {a['window_s']:.2e} s); not subtracted"
    )
    s = bell["singles"]
    lines.append(f"singles: alice {s['alice_hz']:.0f}/s, bob {s['bob_hz']:.0f}/s")
    if bell["sync"]["enabled"]:
        rec = bell["sync"]["recovered_offsets_s"]
        err = max(abs(r - bell["sync"]["configured_delay_s"]) for r in rec)
        lines.append(
            f"sync: configured delay {bell['sync']['configured_delay_s']:.3e} s, "
            f"recovered within {err:.2e} s"
        )
    if "sweep" in bell:
        sw = bell["sweep"]
        lines.append("")
        lines.append(
            f"sweep ({sw['points']} phases at phi_b = {sw['phi_b']:.4f}): "
            f"S_three_term = {sw['s_three_term']:.4f} +/- {sw['s_three_term_err']:.4f}"
        )
        lines.append(
            f"average visibility = {sw['average_visibility']:.4f} "
            f"+/- {sw['average_visibility_std']:.4f}"
        )
    lines.append("")
    return "\n".join(lines)


def report(run_dir: str | Path) -> str:
    """Validate a run directory and return (re-rendering) its summary."""
    run_dir = Path(run_dir)
    text = render_summary(run_dir)
    (run_dir / "summary.txt").write_text(text, encoding="utf-8")
    return text
