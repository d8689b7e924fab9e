"""Stochastic generation of the physical event record.

:func:`simulate_experiment` is the one generator: ``etbell run`` and the
tests both go through it.  Pair emissions form a homogeneous Poisson
process.  Each photon picks an interferometer path (fair splitter), is
routed by :func:`topology.route`, survives the channel with a
party-dependent probability, gets detector jitter, and lands in one of four
detector channels.  Dark counts are added per detector and a
non-paralyzable dead time (:func:`_dead_time_mask`) prunes each channel
last.  Outcomes are drawn shard by shard with per-shard derived seeds, so
runs remain bit-reproducible.  A block's emission times are drawn, sorted
and converted in place all at once, so its memory is 8 bytes per emitted
pair plus per-shard scratch.  Every shard draws its paths, outcome
uniforms and survival uniforms for all of its pairs, which keeps the
random streams fixed, and decides survival next; the outcome cells, arm
delays, detector choice and jitter are then computed for the survivors
only.

Detector outcomes are sampled from the closed-form coincidence
probabilities (quantum mode) or from a local strategy's response functions
(hidden-variable mode).  For path-mismatched events the interfering
amplitudes are distinguishable, so quantum mode draws those outcomes
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigurationError, ContractViolation
from .lhv import HiddenSample, LhvStrategy, draw_hidden
from .qmodel import DIFFERENCE, coincidence_probability, validate_visibility
from .topology import ALICE, BOB, ArmConfig, Geometry, route

PHOTON = 0
DARK = 1

#: Channel order used throughout: (party, detector).
CHANNELS = ((ALICE, 1), (ALICE, 2), (BOB, 1), (BOB, 2))


@dataclass(frozen=True)
class SourceParams:
    pair_rate: float  # pairs per second at the source
    duration: float  # seconds
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.pair_rate > 0:
            raise ContractViolation("pair_rate must be positive")
        if self.duration < 0:
            raise ContractViolation("duration must be non-negative")


@dataclass(frozen=True)
class ChannelParams:
    """Per-arm losses in dB plus the spectral filter transmission.

    ``coupling_loss_db`` is a common per-photon loss (source coupling into
    single-mode fiber, splices) applied to both sides; it is the fitted
    knob that reconciles observed singles with the far smaller coincidence
    rate.
    """

    loss_a_db: float = 3.0
    loss_b_db: float = 17.0
    coupling_loss_db: float = 15.0
    filter_transmission: float = 0.9

    def __post_init__(self) -> None:
        if self.loss_a_db < 0 or self.loss_b_db < 0 or self.coupling_loss_db < 0:
            raise ContractViolation("losses must be non-negative")
        if not 0.0 < self.filter_transmission <= 1.0:
            raise ContractViolation("filter_transmission must be in (0, 1]")


@dataclass(frozen=True)
class DetectorParams:
    efficiency: float = 0.6
    dark_rate: float = 100.0  # counts per second per detector
    jitter_sigma: float = 350e-12  # seconds
    dead_time: float = 1e-6  # seconds

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency <= 1.0:
            raise ContractViolation("efficiency must be in [0, 1]")
        if self.dark_rate < 0 or self.jitter_sigma < 0 or self.dead_time < 0:
            raise ContractViolation("dark_rate, jitter_sigma and dead_time must be >= 0")


def survival_probability(ch: ChannelParams, det: DetectorParams, party: str) -> float:
    """Per-photon survival: link loss x coupling loss x filter x efficiency."""
    loss_db = ch.loss_a_db if party == ALICE else ch.loss_b_db
    return (
        10.0 ** (-(loss_db + ch.coupling_loss_db) / 10.0)
        * ch.filter_transmission
        * det.efficiency
    )


#: Elements per in-place float-to-int64 cast in :func:`generate_pairs`; each
#: chunk's overlapping source is buffered, so this bounds that scratch.
_CAST_CHUNK = 1 << 20


def generate_pairs(src: SourceParams, rng: np.random.Generator | None = None) -> np.ndarray:
    """Emission times (int64 ps, sorted) of a homogeneous Poisson process.

    The uniforms are sorted, scaled and truncated to int64 in their own
    buffer, so one 8-byte array per pair is alive at a time.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 0x9A12]))
    n = rng.poisson(src.pair_rate * src.duration)
    t = rng.uniform(0.0, src.duration, n)
    t.sort()
    t *= 1e12
    t_ps = t.view(np.int64)
    for start in range(0, n, _CAST_CHUNK):
        chunk = slice(start, start + _CAST_CHUNK)
        np.copyto(t_ps[chunk], t[chunk], casting="unsafe")
    return t_ps


def _quantum_cells(
    phi_a: float, phi_b: float, v_eff: float, convention: str
) -> np.ndarray:
    return np.array(
        [
            coincidence_probability(x, y, phi_a, phi_b, v_eff, convention)
            for x, y in ((1, 1), (1, 2), (2, 1), (2, 2))
        ]
    )


def sample_quantum_events(
    n: int,
    phi_a: float,
    phi_b: float,
    v_eff: float,
    rng: np.random.Generator,
    convention: str = DIFFERENCE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized path and outcome sampling for ``n`` pairs.

    Returns (path1, path2, x, y): per-photon paths (0 short / 1 long, each
    fair and independent) and intended detector indices for whichever
    photon reaches Alice (x) and Bob (y).  Outcomes of matched events
    follow the four-cell coincidence distribution at ``v_eff``; mismatched
    events are time-distinguishable, so their outcomes are uniform.
    """
    validate_visibility(v_eff)
    cum = np.cumsum(_quantum_cells(phi_a, phi_b, v_eff, convention))
    path1, path2, u_cell, cell_uniform = _quantum_draws(n, rng)
    cells = _resolve_cells(cum, path1, path2, u_cell, cell_uniform)
    return path1, path2, _cell_x(cells), _cell_y(cells)


def _quantum_draws(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Raw per-pair draws of quantum mode, in stream order.

    Returns (path1, path2, u_cell, cell_uniform): the two fair path bits,
    the uniform that picks a matched event's coincidence cell, and the
    uniform cell (0-3) a mismatched event uses instead.
    """
    path1 = rng.integers(0, 2, n, dtype=np.uint8)
    path2 = rng.integers(0, 2, n, dtype=np.uint8)
    u_cell = rng.random(n)
    cell_uniform = rng.integers(0, 4, n, dtype=np.uint8)
    return path1, path2, u_cell, cell_uniform


def _resolve_cells(
    cum: np.ndarray,
    path1: np.ndarray,
    path2: np.ndarray,
    u_cell: np.ndarray,
    cell_uniform: np.ndarray,
) -> np.ndarray:
    """Outcome cell 2 (x - 1) + (y - 1) from the draws of :func:`_quantum_draws`.

    ``cum`` is the cumulative four-cell coincidence distribution.  The
    result is elementwise, so it may be taken over any subset of pairs.
    """
    cells = np.searchsorted(cum, u_cell, side="right").astype(np.uint8)
    np.minimum(cells, 3, out=cells)  # guard the u == 1.0 edge
    mismatched = path1 != path2
    cells[mismatched] = cell_uniform[mismatched]
    return cells


def _cell_x(cells: np.ndarray) -> np.ndarray:
    return (cells >> 1) + np.uint8(1)


def _cell_y(cells: np.ndarray) -> np.ndarray:
    return (cells & 1) + np.uint8(1)


@dataclass
class ChannelStream:
    party: str
    detector: int
    t_ps: np.ndarray  # int64, sorted, dead-time pruned
    origin: np.ndarray  # uint8, PHOTON or DARK
    emission: np.ndarray  # int64, -1 for dark counts

    def __len__(self) -> int:
        return len(self.t_ps)


@dataclass
class SimulationResult:
    channels: list[ChannelStream]
    pairs_emitted: int
    duration: float
    v_eff: float | None = None

    def channel(self, party: str, detector: int) -> ChannelStream:
        for c in self.channels:
            if c.party == party and c.detector == detector:
                return c
        raise KeyError((party, detector))

    def singles_rate(self, party: str) -> float:
        n = sum(len(c) for c in self.channels if c.party == party)
        return n / self.duration if self.duration > 0 else 0.0


def _dead_time_mask(t_ps: np.ndarray, dead_ps: int) -> np.ndarray:
    """Keep mask of the non-paralyzable dead time over one sorted channel.

    A tag at least ``dead_ps`` after its predecessor is always kept, so it
    heads a run of tags closer than that to their predecessors.  Inside a
    run, the kept tags form a chain from the head, each one the first tag
    ``dead_ps`` after the last; the chains of all runs advance together
    until each leaves its run.
    """
    n = len(t_ps)
    kept = np.zeros(n, dtype=bool)
    if n == 0:
        return kept
    heads = np.flatnonzero(np.concatenate(([True], np.diff(t_ps) >= dead_ps)))
    kept[heads] = True
    run_end = np.append(heads[1:], n)
    longer = run_end - heads > 1
    cur, run_end = heads[longer], run_end[longer]
    while cur.size:
        nxt = np.searchsorted(t_ps, t_ps[cur] + dead_ps, side="left")
        inside = nxt < run_end
        cur, run_end = nxt[inside], run_end[inside]
        kept[cur] = True
    return kept


def _finalize_channel(
    party_name: str,
    dnum: int,
    t_ch: np.ndarray,
    em_ch: np.ndarray,
    duration: float,
    det: DetectorParams,
    dark_rng: np.random.Generator,
) -> ChannelStream:
    """Merge photon hits with dark counts, sort, and prune dead time."""
    n_dark = dark_rng.poisson(det.dark_rate * duration)
    t_dark_ps = (np.sort(dark_rng.uniform(0.0, duration, n_dark)) * 1e12).astype(np.int64)
    t_all = np.concatenate([t_ch, t_dark_ps])
    origin = np.concatenate(
        [np.zeros(len(t_ch), dtype=np.uint8), np.full(n_dark, DARK, dtype=np.uint8)]
    )
    em_all = np.concatenate([em_ch, np.full(n_dark, -1, dtype=np.int64)])
    order = np.argsort(t_all, kind="stable")
    t_all, origin, em_all = t_all[order], origin[order], em_all[order]
    dead_ps = int(round(det.dead_time * 1e12))
    if dead_ps > 0 and len(t_all):
        kept = _dead_time_mask(t_all, dead_ps)
        t_all, origin, em_all = t_all[kept], origin[kept], em_all[kept]
    return ChannelStream(party_name, dnum, t_all, origin, em_all)


def _survivors(u: np.ndarray, party: np.ndarray, p_a: float, p_b: float) -> np.ndarray:
    """Indices whose uniform lies below their party's survival probability.

    One comparison against the larger probability finds the candidates;
    only those are checked against their own party's probability, and only
    when the two probabilities differ.
    """
    cand = np.flatnonzero(u < max(p_a, p_b))
    if p_a == p_b:
        return cand
    return cand[u[cand] < np.where(party[cand] == 0, p_a, p_b)]


def _shard_draws(
    strategy: LhvStrategy | None,
    n: int,
    phi_a: float,
    phi_b: float,
    cum: np.ndarray | None,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray, int], np.ndarray]]:
    """One shard's per-pair draws: (path1, path2, outcome).

    ``outcome(idx, party)`` resolves, from draws already made, the intended
    detector (x for party 0, y for party 1) of the pairs at ``idx``; it
    consumes no randomness.
    """
    if strategy is None:
        path1, path2, u_cell, cell_uniform = _quantum_draws(n, rng)

        def outcome(idx: np.ndarray, party: int) -> np.ndarray:
            cells = _resolve_cells(cum, path1[idx], path2[idx], u_cell[idx], cell_uniform[idx])
            return _cell_y(cells) if party else _cell_x(cells)

        return path1, path2, outcome

    hv = draw_hidden(n, rng)
    path1, path2 = (p.astype(np.uint8) for p in strategy.paths(hv, phi_a, phi_b))

    def outcome(idx: np.ndarray, party: int) -> np.ndarray:
        sub = HiddenSample(hv.theta[idx], hv.coin[idx], hv.aux[idx], hv.aux2[idx])
        out = strategy.outcome_b(sub, phi_b) if party else strategy.outcome_a(sub, phi_a)
        return np.where(out > 0, 1, 2).astype(np.uint8)

    return path1, path2, outcome


def simulate_experiment(
    geometry: Geometry,
    mode: str | LhvStrategy,
    phi_a: float,
    phi_b: float,
    src: SourceParams,
    ch: ChannelParams,
    det: DetectorParams,
    arms: ArmConfig,
    v_eff: float = 1.0,
    convention: str = DIFFERENCE,
    shard_pairs: int = 1 << 20,
) -> SimulationResult:
    """End-to-end event generation for one setting pair.

    Composition: Poisson emissions -> path/outcome draws (quantum closed
    forms, or a local strategy when ``mode`` is an :class:`LhvStrategy`) ->
    geometric routing -> channel loss -> outcomes, arm delay and jitter of
    the survivors -> dark counts, dead time -> per-channel timestamp
    streams.  ``v_eff`` must already include the indistinguishability and
    dephasing factors.  Each photon detection carries the index of its
    emission.

    Survival is coupled across losses: each photon has one survival
    uniform, drawn whatever the losses, so at a fixed seed raising any loss
    can only remove survivors.  With jitter, dark counts and dead time off,
    each channel's ``emission`` ids are then a subset of those at the lower
    loss.  The relation holds for the survivor set but not for timestamps
    once jitter is on: jitter is drawn per survivor in order, so a loss
    change shifts which jitter value each survivor gets.
    """
    if isinstance(mode, str) and mode != "quantum":
        raise ConfigurationError(f"mode must be 'quantum' or an LhvStrategy, got {mode!r}")
    strategy = mode if isinstance(mode, LhvStrategy) else None
    if strategy is not None:
        strategy.check_geometry(geometry)

    delta_t_ps = int(round(arms.delta_t * 1e12))
    emissions = generate_pairs(src)
    n_total = len(emissions)

    per_channel: dict[tuple[str, int], list[np.ndarray]] = {key: [] for key in CHANNELS}
    per_channel_em: dict[tuple[str, int], list[np.ndarray]] = {key: [] for key in CHANNELS}

    cum = None
    if strategy is None:
        validate_visibility(v_eff)
        cum = np.cumsum(_quantum_cells(phi_a, phi_b, v_eff, convention))
    p_a = survival_probability(ch, det, ALICE)
    p_b = survival_probability(ch, det, BOB)
    jitter_ps = det.jitter_sigma * 1e12
    duration_ps = int(round(src.duration * 1e12))

    for shard_idx, start in enumerate(range(0, n_total, shard_pairs)):
        stop = min(start + shard_pairs, n_total)
        t_emit = emissions[start:stop]
        n = stop - start
        rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 1, shard_idx]))
        path1, path2, outcome = _shard_draws(strategy, n, phi_a, phi_b, cum, rng)
        party1, party2 = route(geometry, path1, path2)

        # Survival thinning first: one uniform per photon against the
        # party's probability (coupled across losses, see the docstring),
        # then all remaining work runs on survivors.
        det_rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 2, shard_idx]))
        u = det_rng.random(2 * n)
        keep1 = _survivors(u[:n], party1, p_a, p_b)
        keep2 = _survivors(u[n:], party2, p_a, p_b)
        u_det = det_rng.integers(1, 3, 2 * n, dtype=np.uint8)

        # Intended detector per photon: the photon that reaches Alice
        # carries x, the one that reaches Bob carries y; same-party double
        # events carry no cross-party information and draw uniformly.
        # The two photon sides are resolved separately; both photons of a
        # pair survive rarely at realistic loss.
        surv_t = []
        surv_party = []
        surv_det = []
        surv_em = []
        for keep, path, party_arr, other_party, det_uniform in (
            (keep1, path1, party1, party2, u_det[:n]),
            (keep2, path2, party2, party1, u_det[n:]),
        ):
            p_k = party_arr[keep]
            d_k = det_uniform[keep]
            cross = p_k != other_party[keep]
            for pcode in (0, 1):
                at = np.flatnonzero(cross & (p_k == pcode))
                d_k[at] = outcome(keep[at], pcode)
            surv_t.append(t_emit[keep] + path[keep].astype(np.int64) * delta_t_ps)
            surv_party.append(p_k)
            surv_det.append(d_k)
            surv_em.append(start + keep)

        t_s = np.concatenate(surv_t)
        party_s = np.concatenate(surv_party)
        det_s = np.concatenate(surv_det)
        em_s = np.concatenate(surv_em)
        if jitter_ps > 0:
            t_s = t_s + np.rint(det_rng.normal(0.0, jitter_ps, len(t_s))).astype(np.int64)
        inside = (t_s >= 0) & (t_s <= duration_ps)  # acquisition window
        t_s, party_s, det_s, em_s = t_s[inside], party_s[inside], det_s[inside], em_s[inside]

        for party_name, dnum in CHANNELS:
            pcode = 0 if party_name == ALICE else 1
            sel = (party_s == pcode) & (det_s == dnum)
            per_channel[(party_name, dnum)].append(t_s[sel])
            per_channel_em[(party_name, dnum)].append(em_s[sel])

    channels: list[ChannelStream] = []
    dark_rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 3]))
    for party_name, dnum in CHANNELS:
        chunks = per_channel[(party_name, dnum)]
        t_ch = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        em_chunks = per_channel_em[(party_name, dnum)]
        em_ch = np.concatenate(em_chunks) if em_chunks else np.empty(0, dtype=np.int64)
        channels.append(
            _finalize_channel(party_name, dnum, t_ch, em_ch, src.duration, det, dark_rng)
        )

    return SimulationResult(
        channels=channels,
        pairs_emitted=n_total,
        duration=src.duration,
        v_eff=None if strategy is not None else v_eff,
    )
