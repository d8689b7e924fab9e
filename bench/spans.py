"""Span tracing of etbell's public layer functions, applied from outside.

The tracer wraps module attributes in place (for example
``etbell.runner.match`` and ``etbell.photonics.generate_pairs``), so no
file under ``src/`` carries tracing code.  A function imported by name into
another etbell module is wrapped under every such alias, because the caller
looks it up in its own namespace.  Spans are kept in memory and written out
once, when the workload has finished; :meth:`Tracer.restore` puts every
original function back.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import asdict, dataclass, field


def _len2(args) -> int:
    return len(args[0]) + len(args[1])


def _bytes_written(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, function, counter) for every wrapped layer boundary.  The counter
# maps (args, kwargs, result) to the counts recorded on the span.
TARGETS = (
    ("config", "load_config", None),
    ("runner", "run_experiment", None),
    ("runner", "run_setting_block", None),
    (
        "photonics",
        "simulate_experiment",
        lambda a, k, r: {"tags_out": sum(len(c) for c in r.channels)},
    ),
    ("photonics", "generate_pairs", lambda a, k, r: {"pairs": len(r)}),
    ("tagger", "match", lambda a, k, r: {"tags_in": _len2(a), "records_out": len(r)}),
    ("tagger", "recover_offset", lambda a, k, r: {"pulses_in": _len2(a)}),
    ("tagger", "count_in_window", None),
    (
        "tagger",
        "franson_postselect",
        lambda a, k, r: {"kept": len(r.kept), "discarded": r.discarded},
    ),
    ("tagger", "write_timetags_binary", _bytes_written),
    ("tagger", "write_coincidences_csv", _bytes_written),
    (
        "lockbox",
        "run_lock",
        lambda a, k, r: {"steps": len(r.residual), "locked": int(r.report.locked)},
    ),
    ("estimators", "estimate_E", None),
    ("estimators", "estimate_S", None),
    ("estimators", "fit_fringe", None),
)


def peak_rss_mb() -> float:
    """Peak resident memory of this process image (VmHWM), in MB.

    ``getrusage`` is no use here: its ``ru_maxrss`` keeps the parent's peak
    across fork and exec, so a small child would report its parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    run: str
    start: float
    end: float = 0.0
    rss_rise_mb: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records one span per wrapped call; single-threaded."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rss0 = peak_rss_mb()
        s = Span(len(self.spans), parent, name, self.run_id, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.rss_rise_mb = peak_rss_mb() - rss0
            self._stack.pop()

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if counter is not None:
                s.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Wrap every target under each etbell module attribute bound to it."""
        for module, func, counter in targets:
            original = getattr(importlib.import_module(f"etbell.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, counter)
            for mod in [m for n, m in sys.modules.items() if n.startswith("etbell")]:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# Span arithmetic


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Read-only view over a list of span dicts (as written by ``dump``)."""

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)

    def ancestors(self, s: dict):
        while s["parent"] is not None:
            s = self.by_id[s["parent"]]
            yield s

    def self_time(self, s: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        kids = [(c["start"], c["end"]) for c in self.children.get(s["id"], [])]
        return (s["end"] - s["start"]) - covered(kids, s["start"], s["end"])

    def named(self, names) -> list[dict]:
        names = {names} if isinstance(names, str) else set(names)
        return [s for s in self.spans if s["name"] in names]

    def busy(self, names) -> float:
        """Wall time inside any span of ``names``, nested ones counted once."""
        names = {names} if isinstance(names, str) else set(names)
        return sum(
            s["end"] - s["start"]
            for s in self.named(names)
            if not any(a["name"] in names for a in self.ancestors(s))
        )

    def total_self(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def count(self, name: str, key: str) -> float:
        return sum(s["counts"].get(key, 0) for s in self.named(name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


ESTIMATORS = ("estimators.estimate_E", "estimators.estimate_S", "estimators.fit_fringe")
WRITERS = ("tagger.write_timetags_binary", "tagger.write_coincidences_csv")


def layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``name -> (value, unit)`` from one traced run."""
    t = SpanTree(spans)
    sim = "photonics.simulate_experiment"
    pairs = t.count("photonics.generate_pairs", "pairs")
    tags_out = t.count(sim, "tags_out")
    match_busy = t.busy("tagger.match")
    match_in = t.count("tagger.match", "tags_in")
    kept = t.count("tagger.franson_postselect", "kept")
    discarded = t.count("tagger.franson_postselect", "discarded")
    lock_busy = t.busy("lockbox.run_lock")
    lock_steps = t.count("lockbox.run_lock", "steps")
    lock_calls = len(t.named("lockbox.run_lock"))
    resim = [
        s
        for s in t.named(sim)
        if not any(a["name"] == "runner.run_setting_block" for a in t.ancestors(s))
    ]
    return {
        "config.load_config.busy_s": (t.busy("config.load_config"), "s"),
        "runner.run_setting_block.calls": (len(t.named("runner.run_setting_block")), "count"),
        "runner.run_setting_block.busy_s": (t.busy("runner.run_setting_block"), "s"),
        "runner.self_s": (t.total_self("runner.run_experiment"), "s"),
        "runner.resimulated_blocks": (len(resim), "count"),
        f"{sim}.calls": (len(t.named(sim)), "count"),
        f"{sim}.busy_s": (t.busy(sim), "s"),
        f"{sim}.self_s": (t.total_self(sim), "s"),
        f"{sim}.rss_rise_mb": (sum(s["rss_rise_mb"] for s in t.named(sim)), "MB"),
        "photonics.generate_pairs.busy_s": (t.busy("photonics.generate_pairs"), "s"),
        "photonics.pairs_emitted": (pairs, "count"),
        "photonics.tags_out": (tags_out, "count"),
        "photonics.yield": (_ratio(tags_out, pairs), "tags/pair"),
        "tagger.match.calls": (len(t.named("tagger.match")), "count"),
        "tagger.match.busy_s": (match_busy, "s"),
        "tagger.match.tags_in": (match_in, "count"),
        "tagger.match.records_out": (t.count("tagger.match", "records_out"), "count"),
        "tagger.match.tags_per_s": (_ratio(match_in, match_busy), "1/s"),
        "tagger.recover_offset.calls": (len(t.named("tagger.recover_offset")), "count"),
        "tagger.recover_offset.busy_s": (t.busy("tagger.recover_offset"), "s"),
        "tagger.recover_offset.pulses_in": (t.count("tagger.recover_offset", "pulses_in"), "count"),
        "tagger.count_in_window.busy_s": (t.busy("tagger.count_in_window"), "s"),
        "tagger.franson_postselect.busy_s": (t.busy("tagger.franson_postselect"), "s"),
        "tagger.postselect.kept_frac": (_ratio(kept, kept + discarded), "frac"),
        "tagger.write.busy_s": (t.busy(WRITERS), "s"),
        "tagger.write.bytes": (sum(t.count(w, "bytes") for w in WRITERS), "bytes"),
        "lockbox.run_lock.calls": (lock_calls, "count"),
        "lockbox.run_lock.busy_s": (lock_busy, "s"),
        "lockbox.run_lock.steps": (lock_steps, "count"),
        "lockbox.run_lock.steps_per_s": (_ratio(lock_steps, lock_busy), "1/s"),
        "lockbox.locked_frac": (_ratio(t.count("lockbox.run_lock", "locked"), lock_calls), "frac"),
        "estimators.busy_s": (t.busy(ESTIMATORS), "s"),
    }
