"""Golden SHA-256 digests of the bundled configs' run directories.

``run_digests.json`` beside this script records, per config, the SHA-256
of every file a run at the bundled seed writes, plus the numpy and Python
versions that produced them.  ``tests/test_golden_digests.py`` re-runs the
configs and compares, so a change that moves any artifact byte shows up
against the commit that wrote the file.  ``demo``, ``loophole`` and
``hug-lhv`` run as shipped; ``paper`` runs with ``duration_per_setting``
and ``sweep_duration_per_point`` divided by ``PAPER_SHORTEN`` and no other
key changed, which keeps the lock, sync, sweep and fringe-fit paths at a
few seconds.

A change that alters an RNG stream or an artifact format on purpose
regenerates the file and says which configs and files moved:

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "run_digests.json"
CONFIGS = ("demo", "hug-lhv", "loophole", "paper")
PAPER_SHORTEN = 25


def golden_config(name: str):
    """The RunConfig a golden digest is taken from."""
    from etbell.config import build_config, bundled_config_path, load_config

    cfg = load_config(bundled_config_path(name))
    if name != "paper":
        return cfg
    sections = {k: dict(v) for k, v in cfg.raw.items()}
    for key in ("duration_per_setting", "sweep_duration_per_point"):
        sections["run"][key] /= PAPER_SHORTEN
    return build_config(sections)


def run_digests(name: str, out: Path) -> dict[str, str]:
    """Run one golden config into ``out``; relative path -> SHA-256."""
    from etbell.runner import run_experiment

    run_dir = run_experiment(golden_config(name), out)
    return {
        p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*"))
        if p.is_file()
    }


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: run_digests(name, Path(tmp) / name) for name in CONFIGS}
    payload = {**versions(), "paper_shorten": PAPER_SHORTEN, "runs": runs}
    GOLDEN.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN} ({sum(len(r) for r in runs.values())} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
