"""Coincidence analysis over picosecond-resolution time tags.

All timestamps are integer picoseconds from the run origin so window
arithmetic is exact; no floating-point drift accumulates over km-scale
delays.  The matcher works on one Alice and one Bob detector stream at a
time: each Bob tag, in time order, takes the earliest unused eligible
Alice tag, so within that detector pair each tag enters at most one
record.  One-to-one holds per detector pair only: an Alice tag can enter
one record per Bob detector, and a Bob tag one per Alice detector.  The
matcher resolves in bulk, with numpy, every Bob tag whose candidate Alice
tags no other Bob tag can reach, and walks only the contended rest in a
scalar loop.  A deliberately naive reference matcher (``match_bruteforce``)
implements the same eligibility rule from scratch and exists only to
cross-check it.

File formats: time tags as a binary stream of (channel u8, timestamp u64
ps) records behind a one-line versioned header, and coincidence records as
a plain ``alice_detector,bob_detector,delta_ps,slot`` CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolation, SyncRecoveryError
from .topology import SlotClass, classify_slot_ps

SLOT_CODES = {
    SlotClass.MATCHED: 0,
    SlotClass.LS: 1,
    SlotClass.SL: 2,
    SlotClass.ACCIDENTAL: 3,
}
CODE_SLOTS = {v: k for k, v in SLOT_CODES.items()}


@dataclass(frozen=True)
class CoincidenceConfig:
    """Window, clock offset and slot spacing, all in integer picoseconds.

    ``window_ps`` is the full acceptance width (a slot claims
    |delta - center| <= window / 2), matching the R_A * R_B * w accidental
    formula.  ``offset_ps`` is the Bob-minus-Alice clock/channel delay.
    """

    window_ps: int
    offset_ps: int = 0
    delta_t_ps: int = 10_000

    def __post_init__(self) -> None:
        if self.window_ps <= 0:
            raise ContractViolation("window must be positive")
        if 2 * self.window_ps >= self.delta_t_ps:
            raise ContractViolation(
                f"window ({self.window_ps} ps) must be below delta_t / 2 "
                f"({self.delta_t_ps / 2:.0f} ps) or slots are unresolvable"
            )

    @classmethod
    def from_seconds(
        cls, window: float, offset: float = 0.0, delta_t: float = 10e-9
    ) -> "CoincidenceConfig":
        """Each time rounded to the nearest picosecond, which must fit in an int64."""
        ps = [x * 1e12 for x in (window, offset, delta_t)]
        if not all(abs(x) < 2.0**63 for x in ps):
            raise ContractViolation(
                f"window ({window:g} s), offset ({offset:g} s) and delta_t ({delta_t:g} s) "
                "must fit in int64 picoseconds"
            )
        window_ps, offset_ps, delta_t_ps = (int(round(x)) for x in ps)
        return cls(window_ps=window_ps, offset_ps=offset_ps, delta_t_ps=delta_t_ps)


@dataclass
class CoincidenceSet:
    """Columnar batch of coincidence records for one channel pair."""

    alice_detector: int
    bob_detector: int
    alice_index: np.ndarray
    bob_index: np.ndarray
    delta_ps: np.ndarray
    slot_code: np.ndarray

    def __len__(self) -> int:
        return len(self.delta_ps)


@dataclass(frozen=True)
class CountsMatrix:
    """Coincidence counts for one setting pair, indexed by detector pair."""

    n11: int
    n12: int
    n21: int
    n22: int

    @property
    def total(self) -> int:
        return self.n11 + self.n12 + self.n21 + self.n22

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n11, self.n12, self.n21, self.n22)


def _check_sorted(t: np.ndarray, name: str) -> np.ndarray:
    t = np.asarray(t, dtype=np.int64)
    if t.ndim != 1:
        raise ContractViolation(f"{name} must be one-dimensional")
    if t.size > 1 and np.any(np.diff(t) < 0):
        raise ContractViolation(f"{name} timestamps must be sorted")
    return t


def match(
    t_alice_ps: np.ndarray,
    t_bob_ps: np.ndarray,
    cfg: CoincidenceConfig,
    alice_detector: int = 1,
    bob_detector: int = 1,
) -> CoincidenceSet:
    """Windowed matcher over two sorted tag streams.

    Bob tags are taken in time order; each is paired with the earliest
    not-yet-used Alice tag whose delta = t_A - (t_B - offset) falls within
    window/2 of a slot center in {0, +delta_t, -delta_t}.  One-to-one:
    no tag appears in two records.

    Every eligible Alice tag of a Bob tag lies in its hull, the Alice tags
    with |delta| <= delta_t + window/2.  A Bob tag whose hull shares no
    Alice tag with another Bob tag's hull cannot lose a candidate to
    anyone, so its record is the first eligible tag of its hull; those are
    found for all such Bob tags at once, one candidate per round.  Only
    the contended Bob tags, whose hulls overlap a neighbour's, walk their
    hull one by one in Bob order against the Alice tags already used.
    """
    a = _check_sorted(t_alice_ps, "alice")
    b = _check_sorted(t_bob_ps, "bob")
    dt = cfg.delta_t_ps
    half = cfg.window_ps // 2  # |2 d| <= window  <=>  |d| <= window // 2 for integer d
    tb = b - cfg.offset_ps
    hull_lo = np.searchsorted(a, tb - (dt + half), side="left")
    hull_hi = np.searchsorted(a, tb + (dt + half), side="right")
    # Hull bounds are nondecreasing, so a hull overlaps an earlier one
    # exactly when it starts before its predecessor's end.
    overlap = hull_lo[1:] < hull_hi[:-1]
    contended = np.zeros(len(b), dtype=bool)
    contended[1:] |= overlap
    contended[:-1] |= overlap

    chosen = np.full(len(b), -1, dtype=np.int64)  # Alice index per Bob tag, -1 if none
    ib = np.flatnonzero(~contended & (hull_lo < hull_hi))
    j = hull_lo[ib]
    while ib.size:
        # Inside the hull, a tag is eligible unless it falls between slots.
        dist = np.abs(a[j] - tb[ib])
        hit = (dist <= half) | (dist >= dt - half)
        chosen[ib[hit]] = j[hit]
        j += 1
        more = ~hit & (j < hull_hi[ib])
        ib, j = ib[more], j[more]

    ib_c = np.flatnonzero(contended)
    chosen[ib_c] = _match_contended(
        a, tb[ib_c].tolist(), hull_lo[ib_c].tolist(), hull_hi[ib_c].tolist(), dt, half
    )

    ib = np.flatnonzero(chosen >= 0)
    ia = chosen[ib]
    delta = a[ia] - tb[ib]
    code = np.where(np.abs(delta) <= half, 0, np.where(delta > 0, 1, 2)).astype(np.uint8)
    return CoincidenceSet(
        alice_detector=alice_detector,
        bob_detector=bob_detector,
        alice_index=ia,
        bob_index=ib,
        delta_ps=delta,
        slot_code=code,
    )


def _match_contended(
    a: np.ndarray, tb: list[int], lo: list[int], hi: list[int], dt: int, half: int
) -> list[int]:
    """Earliest unused eligible Alice index per contended Bob tag, -1 if none.

    Contended tags come in Bob order with their hulls ``[lo, hi)``.  Groups
    of overlapping hulls share no Alice tag with each other, so one
    ``used`` set serves them all.
    """
    used: set[int] = set()
    out = []
    for t, i0, i1 in zip(tb, lo, hi):
        pick = -1
        for i, ta in enumerate(a[i0:i1].tolist(), i0):
            dist = abs(ta - t)
            if i not in used and (dist <= half or dist >= dt - half):
                used.add(i)
                pick = i
                break
        out.append(pick)
    return out


def match_bruteforce(
    t_alice_ps: np.ndarray,
    t_bob_ps: np.ndarray,
    cfg: CoincidenceConfig,
    alice_detector: int = 1,
    bob_detector: int = 1,
) -> CoincidenceSet:
    """Reference matcher: same rule as :func:`match`, no streaming pointer.

    For every Bob tag in order it scans the full Alice array for the
    earliest unused eligible tag.  Used only as an oracle in tests and the
    ``oracle`` CLI subcommand.
    """
    a = _check_sorted(t_alice_ps, "alice").astype(np.int64)
    b = _check_sorted(t_bob_ps, "bob").astype(np.int64)
    used = np.zeros(len(a), dtype=bool)
    w = cfg.window_ps
    dt = cfg.delta_t_ps

    out = []
    for ib in range(len(b)):
        d = a - (b[ib] - cfg.offset_ps)
        two = 2 * d
        eligible = (
            (np.abs(two) <= w)
            | (np.abs(two - 2 * dt) <= w)
            | (np.abs(two + 2 * dt) <= w)
        ) & ~used
        idx = np.flatnonzero(eligible)
        if idx.size:
            ia = int(idx[0])
            used[ia] = True
            delta = int(d[ia])
            slot = classify_slot_ps(delta, dt, w)
            out.append((ia, ib, delta, SLOT_CODES[slot]))

    cols = list(zip(*out)) if out else ([], [], [], [])
    return CoincidenceSet(
        alice_detector=alice_detector,
        bob_detector=bob_detector,
        alice_index=np.asarray(cols[0], dtype=np.int64),
        bob_index=np.asarray(cols[1], dtype=np.int64),
        delta_ps=np.asarray(cols[2], dtype=np.int64),
        slot_code=np.asarray(cols[3], dtype=np.uint8),
    )


@dataclass
class PostselectResult:
    kept: CoincidenceSet
    discarded_ls: int
    discarded_sl: int

    @property
    def discarded(self) -> int:
        return self.discarded_ls + self.discarded_sl


def franson_postselect(coincidences: CoincidenceSet) -> PostselectResult:
    """Keep matched-slot records, report how many LS/SL records were cut."""
    code = coincidences.slot_code
    keep = code == SLOT_CODES[SlotClass.MATCHED]
    kept = CoincidenceSet(
        alice_detector=coincidences.alice_detector,
        bob_detector=coincidences.bob_detector,
        alice_index=coincidences.alice_index[keep],
        bob_index=coincidences.bob_index[keep],
        delta_ps=coincidences.delta_ps[keep],
        slot_code=code[keep],
    )
    return PostselectResult(
        kept=kept,
        discarded_ls=int(np.count_nonzero(code == SLOT_CODES[SlotClass.LS])),
        discarded_sl=int(np.count_nonzero(code == SLOT_CODES[SlotClass.SL])),
    )


_SYNC_CHUNK_PULSES = 8192  # Alice pulses whose lags are built at once


def _lag_histogram(a: np.ndarray, b: np.ndarray, span_ps: int, bin_ps: int) -> np.ndarray:
    """Counts of the lags b - a within +-span_ps, in bins of bin_ps.

    The lags of a chunk of Alice pulses are built with ``np.repeat`` and
    binned into one histogram, so memory stays bounded by the chunk.
    """
    n_bins = (2 * span_ps) // bin_ps + 1
    hist = np.zeros(n_bins, dtype=np.int64)
    for start in range(0, len(a), _SYNC_CHUNK_PULSES):
        ta = a[start : start + _SYNC_CHUNK_PULSES]
        lo = np.searchsorted(b, ta - span_ps, side="left")
        n = np.searchsorted(b, ta + span_ps, side="right") - lo
        # Each pair's Bob index: its pulse's ``lo`` plus its rank in the pulse.
        idx = np.repeat(lo - (np.cumsum(n) - n), n)
        idx += np.arange(len(idx))
        # Every lag lies in [-span, span], so its bin is in range unclipped.
        bins = b[idx]
        bins -= np.repeat(ta - span_ps, n)
        bins //= bin_ps
        hist += np.bincount(bins, minlength=n_bins)
    return hist


def recover_offset(
    alice_sync_ps: np.ndarray,
    bob_received_ps: np.ndarray,
    search_span: float,
    bin_width: float,
) -> float:
    """Recover the Bob-minus-Alice delay by lag histogramming.

    Pairs every Alice tag with the Bob tags inside +-search_span,
    histograms the lags at ``bin_width`` resolution, takes the argmax and
    refines it by a centroid over the peak bin and its neighbours.  Raises
    :class:`SyncRecoveryError` when no bin stands significantly above the
    background (the documented rule is peak >= 5x the median bin count; a
    Poisson floor guards histograms too sparse for the median to mean
    anything).  Returns the offset in seconds.
    """
    a = _check_sorted(alice_sync_ps, "alice sync")
    b = _check_sorted(bob_received_ps, "bob received")
    if a.size == 0 or b.size == 0:
        raise SyncRecoveryError("empty synchronization stream")
    span_ps = int(round(search_span * 1e12))
    bin_ps = int(round(bin_width * 1e12))
    if bin_ps <= 0 or span_ps <= bin_ps:
        raise ContractViolation("need bin > 0 and search_span > bin")

    hist = _lag_histogram(a, b, span_ps, bin_ps)
    n_bins = len(hist)
    if not hist.any():
        raise SyncRecoveryError("no tag pairs inside the search span")

    peak = int(np.argmax(hist))
    peak_count = float(hist[peak])
    median = float(np.median(hist))
    mean = float(hist.mean())
    threshold = max(5.0 * median, mean + 8.0 * np.sqrt(mean + 1.0), 5.0)
    if peak_count < threshold:
        raise SyncRecoveryError(
            f"no significant correlation peak: max bin {peak_count:.0f} below "
            f"threshold {threshold:.1f} (median {median:.1f})"
        )

    sel = slice(max(peak - 1, 0), min(peak + 2, n_bins))
    weights = hist[sel].astype(float)
    centers = (np.arange(n_bins)[sel] + 0.5) * bin_ps - span_ps
    offset_ps = float(np.sum(weights * centers) / np.sum(weights))
    return offset_ps * 1e-12


def accidental_rate(rate_a: float, rate_b: float, window: float) -> float:
    """Uniform-background accidental coincidence rate R_A * R_B * w.

    ``window`` is the full acceptance width in seconds; the result is
    coincidences per second in one slot.
    """
    if rate_a < 0 or rate_b < 0 or window < 0:
        raise ContractViolation("rates and window must be non-negative")
    return rate_a * rate_b * window


def count_in_window(
    t_alice_ps: np.ndarray, t_bob_ps: np.ndarray, center_ps: int, window_ps: int, offset_ps: int = 0
) -> int:
    """Count tag pairs with delta in a control window (no one-to-one rule).

    Used to *measure* the accidental level in a slot-free region, for
    comparison against the closed-form estimate.
    """
    a = _check_sorted(t_alice_ps, "alice")
    b = _check_sorted(t_bob_ps, "bob") - offset_ps
    lo = np.searchsorted(a, b + center_ps - window_ps // 2, side="left")
    hi = np.searchsorted(a, b + center_ps + window_ps - window_ps // 2, side="right")
    return int((hi - lo).sum())


# ---------------------------------------------------------------------------
# Time-tag stream persistence

TIMETAG_HEADER = b"timetags v1 record=(channel:u8,timestamp:u64le[ps])\n"
_RECORD_DTYPE = np.dtype([("channel", "u1"), ("t_ps", "<u8")])


def write_timetags_binary(path: str | Path, channels: np.ndarray, t_ps: np.ndarray) -> None:
    channels = np.asarray(channels, dtype=np.uint8)
    t = np.asarray(t_ps, dtype=np.uint64)
    if channels.shape != t.shape:
        raise ContractViolation("channels and timestamps must have equal length")
    rec = np.empty(len(t), dtype=_RECORD_DTYPE)
    rec["channel"] = channels
    rec["t_ps"] = t
    with open(path, "wb") as fh:
        fh.write(TIMETAG_HEADER)
        fh.write(rec.tobytes())


def read_timetags_binary(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, "rb") as fh:
        header = fh.readline()
        if header != TIMETAG_HEADER:
            raise ContractViolation(f"unrecognized time-tag header: {header!r}")
        rec = np.frombuffer(fh.read(), dtype=_RECORD_DTYPE)
    return rec["channel"].astype(np.uint8), rec["t_ps"].astype(np.int64)


def write_coincidences_csv(path: str | Path, sets: list[CoincidenceSet]) -> None:
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["alice_detector", "bob_detector", "delta_ps", "slot"])
        for cs in sets:
            for d, code in zip(cs.delta_ps, cs.slot_code):
                writer.writerow(
                    [cs.alice_detector, cs.bob_detector, int(d), CODE_SLOTS[int(code)].value]
                )
