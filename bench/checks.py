"""Output checks on a finished run directory, one per workload.

Each check returns a list of failure messages (empty when the run passes)
and holds on any seed: statistical checks are set several of the run's own
standard errors wide, never from one chosen seed.  ``digest`` hashes a run
directory, so repeat runs of one commit at one seed can be compared.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Raw time-tag file: one header line, then (u8 channel, u64le ps) records.
TIMETAG_HEADER = b"timetags v1 record=(channel:u8,timestamp:u64le[ps])\n"
TIMETAG_RECORD = np.dtype([("channel", "u1"), ("t_ps", "<u8")])


def digest(run_dir: Path) -> str:
    """SHA-256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(q for q in run_dir.rglob("*") if q.is_file()):
        h.update(p.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _bell(run_dir: Path) -> dict:
    return json.loads((run_dir / "bell.json").read_text(encoding="utf-8"))


def _resolved(run_dir: Path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(interpolation=None)
    cfg.read_string((run_dir / "resolved.cfg").read_text(encoding="utf-8"))
    return cfg


def check_paper(run_dir: Path) -> list[str]:
    bell = _bell(run_dir)
    cfg = _resolved(run_dir)
    fails = []
    t_quad = 4 * cfg.getfloat("run", "duration_per_setting")
    matched = bell["discards"]["matched_records"]

    # Raw S is diluted by the uncorrelated accidentals in the matched slot
    # (about 10% of paper's coincidences); the control-window measurement
    # estimates that share.
    b = bell["bell"]
    acc_share = bell["accidentals"]["measured_hz"] * t_quad / matched if matched else 1.0
    target = 2.0 * math.sqrt(2.0) * bell["visibility_chain"]["effective"] * (1.0 - acc_share)
    if not abs(b["s_hat"] - target) <= 4.0 * b["std_err"]:
        fails.append(
            f"S = {b['s_hat']:.4f} +/- {b['std_err']:.4f} is more than 4 sigma from "
            f"2*sqrt(2)*V_eff*(1 - accidental share) = {target:.4f}"
        )

    # Criterion 7 rate budget: 300k/9k singles, 40 coincidences per second.
    alice = bell["singles"]["alice_hz"]
    bob = bell["singles"]["bob_hz"]
    cc_rate = matched / t_quad
    if not abs(alice - 300_000.0) < 50_000.0:
        fails.append(f"alice singles {alice:.0f}/s outside 300,000 +/- 50,000")
    if not 4_500.0 <= bob <= 18_000.0:
        fails.append(f"bob singles {bob:.0f}/s outside [4,500, 18,000]")
    if not 20.0 <= cc_rate <= 80.0:
        fails.append(f"coincidences {cc_rate:.1f}/s outside [20, 80]")

    # Compared in whole picoseconds, the resolution at which the matcher
    # applies the offset.
    delay_ps = round(bell["sync"]["configured_delay_s"] * 1e12)
    half_bin_ps = round(cfg.getfloat("coincidence", "sync_bin") * 1e12) / 2
    for k, r in enumerate(bell["sync"]["recovered_offsets_s"]):
        if abs(round(r * 1e12) - delay_ps) > half_bin_ps:
            fails.append(f"block {k}: recovered offset {r:.6e} s is over half a sync bin off")
    return fails


def check_loophole(run_dir: Path) -> list[str]:
    bell = _bell(run_dir)
    b = bell["bell"]
    bf = bell["bell_full_sample"]
    frac = bell["discards"]["fraction_of_records"]
    fails = []
    if not b["s_hat"] >= 2.8:
        fails.append(f"post-selected S = {b['s_hat']:.4f} below 2.8")
    if not bf["s_hat"] <= 2.0 + 3.0 * bf["std_err"]:
        fails.append(f"full-sample S = {bf['s_hat']:.4f} above 2 + 3 sigma")
    if not abs(frac - (1.0 - 2.0 / math.pi)) <= 0.01:
        fails.append(f"discard fraction {frac:.4f} not within 0.01 of 1 - 2/pi")
    return fails


def read_timetags(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if not data.startswith(TIMETAG_HEADER):
        raise ValueError(f"{path.name}: unrecognised header")
    body = data[len(TIMETAG_HEADER) :]
    if len(body) % TIMETAG_RECORD.itemsize:
        raise ValueError(f"{path.name}: truncated record")
    return np.frombuffer(body, dtype=TIMETAG_RECORD)


def check_persist(run_dir: Path) -> list[str]:
    with open(run_dir / "counts.csv", newline="", encoding="utf-8") as fh:
        quad = [row for row in csv.DictReader(fh) if row["stage"] == "quad"]
    fails = []
    for i, row in enumerate(quad):
        try:
            rec = read_timetags(run_dir / "timetags" / f"quad{i}.bin")
        except (OSError, ValueError) as exc:
            fails.append(str(exc))
            continue
        if np.any(np.diff(rec["t_ps"].astype(np.int64)) < 0):
            fails.append(f"quad{i}.bin is not time-sorted")
        t = float(row["integration_time"])
        want = round((float(row["alice_singles_hz"]) + float(row["bob_singles_hz"])) * t)
        if len(rec) != want:
            fails.append(f"quad{i}.bin holds {len(rec)} records, singles say {want}")

    rows = 0
    for i in range(len(quad)):
        with open(run_dir / f"coincidences_quad{i}.csv", encoding="utf-8") as fh:
            rows += sum(1 for _ in fh) - 1
    all_records = _bell(run_dir)["discards"]["all_records"]
    if rows != all_records:
        fails.append(f"coincidence CSVs hold {rows} rows, bell.json all_records = {all_records}")
    return fails


def check_lock(run_dir: Path) -> list[str]:
    runs = json.loads((run_dir / "lock.json").read_text(encoding="utf-8"))["runs"]
    good = sum(1 for r in runs if r["locked"] and r["residual_rms"] < 0.1)
    if not runs or good / len(runs) < 0.95:
        return [f"{good}/{len(runs)} lock runs locked with residual rms < 0.1 rad (need 95%)"]
    return []


CHECKS = {
    "paper": check_paper,
    "loophole-dense": check_loophole,
    "persist": check_persist,
    "lock": check_lock,
}


def check(name: str, run_dir: Path) -> list[str]:
    """Run the workload's check; an unreadable run directory fails it."""
    try:
        return CHECKS[name](run_dir)
    except (OSError, KeyError, ValueError, TypeError, configparser.Error) as exc:
        return [f"unreadable run directory: {exc!r}"]
