"""One workload run in a fresh process: set up, run, report.

``run.py`` starts this script once per measured run, so each run's peak
resident memory belongs to that run alone:

    python3 bench/workload.py NAME --spawned T --result FILE [--seed N]
        [--out DIR] [--setup-only] [--trace]

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, which makes ``setup_s`` include interpreter start.  The
result file gets ``setup_s`` and, for a full run, ``wall_s`` (config ready
to artifacts written), ``sim_s``, ``peak_rss_mb`` and, when traced, the
spans.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# name -> (bundled config, overrides by [section] key).  The sizes make one
# run take a few seconds, so a 15 s measurement holds several runs; paper
# is the bundled reproduction and stays unchanged.
WORKLOADS = {
    "paper": ("paper", {}),
    "loophole-dense": ("loophole", {"run": {"duration_per_setting": 1.0}}),
    "persist": (
        "demo",
        {"run": {"duration_per_setting": 1.5}, "source": {"pair_rate": 1e6}},
    ),
    "lock": ("paper", {}),
}
LOCK_SEEDS = 40  # consecutive lock-loop seeds per lock run, from the run seed


def build(name: str, seed: int | None):
    """The workload's RunConfig, built the way ``etbell run --seed`` does."""
    from etbell.config import build_config, bundled_config_path, load_config

    bundled, overrides = WORKLOADS[name]
    cfg = load_config(bundled_config_path(bundled))
    if overrides or seed is not None:
        sections = {k: dict(v) for k, v in cfg.raw.items()}
        for section, values in overrides.items():
            sections[section].update(values)
        if seed is not None:
            sections["run"]["seed"] = seed
        cfg = build_config(sections)
    if cfg.mode.startswith("lhv:"):
        from etbell.lhv import get_strategy

        get_strategy(cfg.mode.split(":", 1)[1], cfg.convention)
    return cfg


def run(name: str, cfg, out: Path) -> float:
    """Run the workload into ``out``; returns the simulated seconds."""
    if name == "lock":
        from etbell import lockbox

        rows = []
        for k in range(LOCK_SEEDS):
            r = lockbox.run_lock(
                cfg.drift,
                cfg.reference,
                cfg.pid,
                cfg.lock_duration,
                seed=cfg.seed + k,
                setpoint=cfg.lock_setpoint,
            ).report
            rows.append(
                {
                    "seed": cfg.seed + k,
                    "locked": r.locked,
                    "residual_rms": r.residual_rms,
                    "acquisition_s": r.lock_acquisition_time,
                    "saturation_fraction": r.saturation_fraction,
                }
            )
        out.mkdir(parents=True)
        (out / "lock.json").write_text(
            json.dumps({"duration_s": cfg.lock_duration, "runs": rows}, indent=1) + "\n"
        )
        return LOCK_SEEDS * cfg.lock_duration

    from etbell import runner

    runner.run_experiment(cfg, out)
    sim_s = 4 * cfg.duration_per_setting
    if cfg.sweep:
        sim_s += cfg.sweep_points * cfg.sweep_duration_per_point
    return sim_s


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=sorted(WORKLOADS))
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--result", type=Path, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", type=Path)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(SRC))

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(f"{args.workload}:{args.seed}")
        tracer.install()
    cfg = build(args.workload, args.seed)
    ready = time.monotonic()
    result = {"seed": cfg.seed, "setup_s": ready - args.spawned}
    if not args.setup_only:
        with tracer.span("workload") if tracer else contextlib.nullcontext():
            sim_s = run(args.workload, cfg, args.out)
        result["wall_s"] = time.monotonic() - ready
        from spans import peak_rss_mb  # after the set-up clock stopped

        result["sim_s"] = sim_s
        result["peak_rss_mb"] = peak_rss_mb()
    if tracer:
        tracer.restore()
        result["spans"] = tracer.dump()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
