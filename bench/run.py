"""etbell benchmark: end-to-end host metrics per workload, or a traced run.

    python3 bench/run.py                    # every workload at its bundled seed
    python3 bench/run.py --workload paper --seed 3 --seconds 15 --trace 0

Each measured run is a fresh ``workload.py`` process (see there).  Runs
repeat until ``--seconds`` have passed, at least once; several set-up-only
processes time ``setup_s`` on their own.  Every run's directory goes
through its workload's output check, and all runs of one workload at one
seed must give the same run-directory digest, within this invocation and
across invocations in the same checkout.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
runs.  With ``--trace 1`` one more run is traced and the metrics are the
per-layer ones from its spans, plus the tracing overhead (traced minus
untraced ``wall_s``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is 1 when any run failed and 2 when there is no source tree to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from spans import layer_metrics
from workload import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_PROBES = 7
BUDGET_S = 170.0  # each invocation ends within 180 s
END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_per_host": "s/s",
}


def tree_key() -> str:
    """Hash of the program and benchmark sources, keying the digest store."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".py", ".cfg"):
                h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def percentile_line(values: list[float]) -> str:
    """Median plus the highest percentile with at least 10 runs beyond it."""
    n = len(values)
    s = sorted(values)
    parts = [f"median {statistics.median(s):.6g}"]
    best = [p for p in (50, 90, 95, 99, 99.9) if n * (1 - p / 100) >= 10]
    if best:
        p = best[-1]
        parts.append(f"p{p:g} {s[math.ceil(p / 100 * n) - 1]:.6g}")
    else:
        parts.append("no percentile has 10 runs beyond it")
    return f"{'; '.join(parts)} (n={n})"


class Bench:
    def __init__(self, name: str, seed: int | None, seconds: int, work: Path) -> None:
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.store = ROOT / ".bench_build" / "digests" / tree_key()

    def spawn(self, tag: str, setup_only: bool = False, trace: bool = False) -> dict | None:
        """Start one workload process, check its run directory; None on failure."""
        self.attempted += 1
        run_dir = self.work / tag
        result_file = self.work / f"{tag}.json"
        cmd = [sys.executable, str(BENCH / "workload.py"), self.name]
        cmd += ["--result", str(result_file), "--out", str(run_dir)]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        cmd += ["--spawned", repr(time.monotonic())]
        try:
            proc = subprocess.run(
                cmd,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=max(self.deadline - time.monotonic(), 1.0),
            )
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                return self._fail(f"{tag}: exit {proc.returncode}: {tail[0]}")
            result = json.loads(result_file.read_text())
            if not setup_only:
                errors = checks.check(self.name, run_dir)
                if errors:
                    return self._fail(f"{tag}: " + "; ".join(errors))
                result["digest"] = checks.digest(run_dir)
                if not self._same_digest(result["seed"], result["digest"]):
                    return self._fail(f"{tag}: run directory differs from an earlier run")
            return result
        except subprocess.TimeoutExpired:
            return self._fail(f"{tag}: timed out")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def _fail(self, message: str) -> None:
        self.failures.append(message)
        print(f"FAILED {self.name} {message}", file=sys.stderr)
        return None

    def _same_digest(self, seed: int, digest: str) -> bool:
        path = self.store / f"{self.name}-{seed}.sha256"
        if path.exists():
            return path.read_text() == digest
        self.store.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}")
        tmp.write_text(digest)
        os.replace(tmp, path)
        return True

    def measure(self) -> list[dict]:
        """Untraced runs for ``seconds`` (at least one), leaving time to trace."""
        runs = []
        start = time.monotonic()
        longest = 0.0
        while not runs or (
            time.monotonic() - start < self.seconds
            and time.monotonic() + 2.5 * longest < self.deadline
        ):
            t0 = time.monotonic()
            r = self.spawn(f"run{self.attempted}")
            longest = max(longest, time.monotonic() - t0)
            if r is None:
                break
            runs.append(r)
        return runs

    def end_to_end(self) -> dict[str, list[float]]:
        probes = [self.spawn(f"setup{i}", setup_only=True) for i in range(SETUP_PROBES)]
        setups = [r["setup_s"] for r in probes if r]
        runs = self.measure()
        return {
            "wall_s": [r["wall_s"] for r in runs],
            "setup_s": setups + [r["setup_s"] for r in runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            "sim_per_host": [r["sim_s"] / r["wall_s"] for r in runs],
        }

    def per_layer(self) -> dict[str, tuple[float, str]]:
        runs = self.measure()
        traced = self.spawn("traced", trace=True) if runs else None
        if traced is None:
            return {}
        metrics = layer_metrics(traced["spans"])
        untraced = statistics.median(r["wall_s"] for r in runs)
        metrics["trace.wall_s"] = (traced["wall_s"], "s")
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced, "s")
        return metrics


def bench_workload(name: str, seed: int | None, seconds: int, trace: bool, work: Path) -> bool:
    b = Bench(name, seed, seconds, work)
    shown = seed if seed is not None else "bundled"
    print(f"== workload {name}, seed {shown}, {seconds} s{', traced' if trace else ''}")
    metrics: dict[str, dict] = {}
    if trace:
        for key, (value, unit) in b.per_layer().items():
            metrics[key] = {"value": value, "unit": unit}
            print(f"  {key:40s} {value:14.6g} {unit}")
    else:
        samples = b.end_to_end()
        for key, unit in END_TO_END.items():
            values = samples[key]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
                print(f"  {key:14s} [{unit}] {percentile_line(values)}")
    failed = len(b.failures)
    correct = failed == 0 and b.attempted > 0
    print(f"  fail_frac      {failed}/{b.attempted} = {failed / max(b.attempted, 1):.3g}")
    print(
        json.dumps(
            {"correct": correct, "attempted": b.attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return correct


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, help="workload seed (default: each config's bundled seed)")
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "etbell" / "__init__.py").is_file():
        print(f"no etbell source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = ROOT / ".bench_build" / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        ok = [bench_workload(n, args.seed, args.seconds, bool(args.trace), work) for n in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
