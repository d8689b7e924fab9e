import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

from etbell import photonics, qmodel
from etbell.errors import ContractViolation
from etbell.estimators import estimate_E
from etbell.lhv import LhvStrategy, coin_strategy, draw_hidden, faking_strategy
from etbell.photonics import (
    CHANNELS,
    DARK,
    PHOTON,
    ChannelParams,
    DetectorParams,
    SourceParams,
    _dead_time_mask,
    _finalize_channel,
    generate_pairs,
    sample_quantum_events,
    simulate_experiment,
    survival_probability,
)
from etbell.tagger import CoincidenceConfig, CountsMatrix, franson_postselect, match
from etbell.topology import ALICE, BOB, ArmConfig, Geometry

IDEAL_CH = ChannelParams(loss_a_db=0, loss_b_db=0, coupling_loss_db=0, filter_transmission=1.0)
IDEAL_DET = DetectorParams(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)
ARMS = ArmConfig(delta_t=10e-9)
DELTA_T_PS = 10_000
CC = CoincidenceConfig.from_seconds(1e-9, 0.0, 10e-9)


class TestGeneratePairs:
    def test_count_in_poisson_band(self):
        src = SourceParams(pair_rate=1000.0, duration=10.0, seed=1)
        n = len(generate_pairs(src))
        assert abs(n - 10_000) < 3 * math.sqrt(10_000)

    def test_zero_duration_empty(self):
        src = SourceParams(pair_rate=1000.0, duration=0.0, seed=1)
        assert len(generate_pairs(src)) == 0

    def test_sorted_and_in_range(self):
        src = SourceParams(pair_rate=5000.0, duration=2.0, seed=2)
        t = generate_pairs(src)
        assert np.all(np.diff(t) >= 0)
        assert t[0] >= 0 and t[-1] <= 2.0 * 1e12

    def test_interarrivals_exponential(self):
        src = SourceParams(pair_rate=50_000.0, duration=2.0, seed=3)
        t = generate_pairs(src).astype(float) * 1e-12
        gaps = np.diff(t)
        _, p = stats.kstest(gaps, "expon", args=(0, 1.0 / 50_000.0))
        assert p > 0.01

    def test_deterministic(self):
        src = SourceParams(pair_rate=1000.0, duration=1.0, seed=42)
        assert np.array_equal(generate_pairs(src), generate_pairs(src))

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
    def test_in_place_cast_equals_dense_reference(self, chunk, monkeypatch):
        # Chunks of 7 leave a ragged last chunk; 1 << 20 covers the block whole.
        monkeypatch.setattr(photonics, "_CAST_CHUNK", chunk)
        src = SourceParams(pair_rate=3000.0, duration=1.0, seed=6)
        got = generate_pairs(src)
        assert got.dtype == np.int64
        assert np.array_equal(got, emission_times_dense(src))

    def test_validation(self):
        with pytest.raises(ContractViolation):
            SourceParams(pair_rate=0.0, duration=1.0)
        with pytest.raises(ContractViolation):
            SourceParams(pair_rate=10.0, duration=-1.0)


class TestQuantumSampling:
    def test_matched_outcomes_track_quantum_probabilities(self):
        rng = np.random.default_rng(5)
        n = 200_000
        p1, p2, x, y = sample_quantum_events(n, 0.0, 0.0, 1.0, rng)
        m = p1 == p2
        same = float(np.mean(x[m] == y[m]))
        assert same == pytest.approx(1.0, abs=0.005)

    def test_zero_visibility_uncorrelated(self):
        rng = np.random.default_rng(6)
        p1, p2, x, y = sample_quantum_events(200_000, 0.3, -0.2, 0.0, rng)
        m = p1 == p2
        e = float(np.mean((x[m] == y[m]).astype(float) * 2 - 1))
        assert abs(e) < 3.0 * math.sqrt(1.0 / np.count_nonzero(m))

    def test_path_marginals_fair(self):
        rng = np.random.default_rng(7)
        p1, p2, _, _ = sample_quantum_events(100_000, 0.0, 0.0, 1.0, rng)
        for p in (p1, p2):
            frac = float(np.mean(p))
            assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / 100_000)

    def test_empirical_correlation_matches_oracle(self):
        rng = np.random.default_rng(8)
        for phi_a in (0.0, 0.5, 1.2):
            p1, p2, x, y = sample_quantum_events(100_000, phi_a, 0.25, 0.9, rng)
            m = p1 == p2
            e = float(np.mean(np.where(x[m] == y[m], 1.0, -1.0)))
            n = int(np.count_nonzero(m))
            expected = qmodel.correlation(phi_a, 0.25, 0.9)
            assert abs(e - expected) < 3.5 * math.sqrt((1 - expected**2) / n)


class TestDetect:
    """Survival, dark counts and dead time, on short simulate_experiment blocks."""

    def _run(self, ch=IDEAL_CH, det=IDEAL_DET, pair_rate=1e6, duration=0.01, seed=10):
        src = SourceParams(pair_rate=pair_rate, duration=duration, seed=seed)
        return src, simulate_experiment(
            Geometry.HUG, "quantum", 0.3, 1.1, src, ch, det, ARMS, v_eff=0.8
        )

    def test_identity_when_lossless(self):
        src, sim = self._run()
        t_emit = generate_pairs(src)
        em = np.concatenate([c.emission for c in sim.channels])
        t = np.concatenate([c.t_ps for c in sim.channels])
        assert all(np.all(c.origin == PHOTON) for c in sim.channels)
        # Each tag is its pair's emission time plus the arm delay of its path.
        assert set(np.unique(t - t_emit[em]).tolist()) == {0, DELTA_T_PS}
        # Both photons of every pair are detected, except a long-path photon
        # that arrives after the block ends.
        per_pair = np.bincount(em, minlength=len(t_emit))
        late = t_emit + DELTA_T_PS > round(src.duration * 1e12)
        assert np.all(per_pair[~late] == 2)
        assert np.all(per_pair[late] <= 2)

    def test_survival_probability_field_budget(self):
        ch = ChannelParams(loss_a_db=17.0, loss_b_db=17.0, coupling_loss_db=0.0, filter_transmission=0.9)
        det = DetectorParams(efficiency=0.6)
        p = survival_probability(ch, det, ALICE)
        assert p == pytest.approx(0.0108, abs=2e-4)

    def test_survival_band(self):
        # Each pair sends one photon to each party on average (hug routes
        # each photon by its fair path bit), so a party's tags number about
        # pairs x its own survival probability.
        ch = ChannelParams(loss_a_db=17.0, loss_b_db=20.0, coupling_loss_db=0.0, filter_transmission=0.9)
        det = DetectorParams(efficiency=0.6, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)
        _, sim = self._run(ch, det, pair_rate=1e7, duration=0.1, seed=11)
        for party in (ALICE, BOB):
            total = sum(len(c) for c in sim.channels if c.party == party)
            expected = sim.pairs_emitted * survival_probability(ch, det, party)
            assert abs(total - expected) < 3.0 * math.sqrt(expected), party

    def test_dark_counts_poisson_band(self):
        det = DetectorParams(efficiency=0.0, dark_rate=10_000.0, jitter_sigma=0.0, dead_time=0.0)
        _, sim = self._run(det=det, pair_rate=10.0, duration=1.0, seed=12)
        total = sum(len(c) for c in sim.channels)  # 4 detectors x 10k/s x 1 s
        assert abs(total - 40_000) < 3.0 * math.sqrt(40_000)
        assert all(np.all(c.origin == DARK) and np.all(c.emission == -1) for c in sim.channels)

    def test_dead_time_spacing(self):
        # About 0.5 MHz per detector against 0.5 us of dead time: many kills.
        det = DetectorParams(efficiency=1.0, dark_rate=1000.0, jitter_sigma=0.0, dead_time=5e-7)
        _, sim = self._run(det=det, pair_rate=2e6, duration=0.01, seed=13)
        _, live = self._run(det=replace(det, dead_time=0.0), pair_rate=2e6, duration=0.01, seed=13)
        for s, full in zip(sim.channels, live.channels):
            assert np.min(np.diff(s.t_ps)) >= int(5e-7 * 1e12)
            assert 0 < len(s) < 0.9 * len(full)

    def test_monotone_loss(self):
        # Exact loss coupling at one seed: each channel's survivors at a
        # higher loss are a subset of those at the lower loss, with the same
        # timestamps.  Bob's link is 1 dB longer, so the two parties'
        # survival probabilities differ at every step.
        det = DetectorParams(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)
        prev = None
        for loss in (0.0, 3.0, 10.0, 30.0):
            ch = ChannelParams(
                loss_a_db=loss, loss_b_db=loss + 1.0, coupling_loss_db=0.0, filter_transmission=1.0
            )
            _, sim = self._run(ch, det, pair_rate=1e7, duration=0.01, seed=14)
            # (emission, t) identifies a tag: in hug both photons of a pair
            # may reach one detector, at times one arm delay apart.
            tags = [set(zip(c.emission.tolist(), c.t_ps.tolist())) for c in sim.channels]
            assert all(tags), loss
            if prev is not None:
                for now, before in zip(tags, prev):
                    assert now < before, loss
            prev = tags


def test_apply_dead_time_greedy():
    t = np.array([0, 400, 900, 1500, 1600], dtype=np.int64)
    assert t[_dead_time_mask(t, 500)].tolist() == [0, 900, 1500]


def dead_time_mask_scalar(t_ps, dead_ps):
    """Reference dead time: one tag at a time, keep it when the detector is live."""
    kept = np.zeros(len(t_ps), dtype=bool)
    last = None
    for i, ts in enumerate(t_ps.tolist()):
        if last is None or ts - last >= dead_ps:
            kept[i] = True
            last = ts
    return kept


@given(
    st.lists(st.integers(0, 20_000), max_size=300),
    st.integers(1, 3_000),
)
def test_dead_time_mask_equals_scalar_reference(times, dead_ps):
    # Bursts, exact ties and gaps of exactly the dead time all occur here.
    t = np.sort(np.asarray(times, dtype=np.int64))
    assert np.array_equal(_dead_time_mask(t, dead_ps), dead_time_mask_scalar(t, dead_ps))


def test_dead_time_mask_long_chains():
    # Tags every 0.4 dead times form one run whose kept chain has hundreds
    # of links; a dense Poisson channel mixes such runs with lone tags.
    dead = 1_000
    regular = np.arange(0, 400_000, 400, dtype=np.int64)
    poisson = np.sort(np.random.default_rng(8).integers(0, 10**7, 20_000))
    for t in (regular, poisson):
        assert np.array_equal(_dead_time_mask(t, dead), dead_time_mask_scalar(t, dead))


def emission_times_dense(src):
    """Reference emission times: sort a copy, scale a copy, cast a copy."""
    rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 0x9A12]))
    n = rng.poisson(src.pair_rate * src.duration)
    return (np.sort(rng.uniform(0.0, src.duration, n)) * 1e12).astype(np.int64)


def simulate_experiment_dense(
    geometry, mode, phi_a, phi_b, src, ch, det, arms, v_eff=1.0,
    convention=qmodel.DIFFERENCE, shard_pairs=1 << 20,
):
    """Reference generator: every step for every pair, survival thinning last.

    Each shard samples all outcomes, routes all photons and computes every
    delay and detector choice before it thins by survival.  It draws the
    same random streams in the same order as ``simulate_experiment``, which
    must therefore match it exactly.
    """
    emissions = emission_times_dense(src)
    strategy = mode if isinstance(mode, LhvStrategy) else None
    cells_p = [
        qmodel.coincidence_probability(x, y, phi_a, phi_b, v_eff, convention)
        for x, y in ((1, 1), (1, 2), (2, 1), (2, 2))
    ]
    cum = np.cumsum(cells_p)
    p_party = np.array([survival_probability(ch, det, ALICE), survival_probability(ch, det, BOB)])
    delta_t_ps = int(round(arms.delta_t * 1e12))
    duration_ps = int(round(src.duration * 1e12))
    t_chunks = {key: [] for key in CHANNELS}
    em_chunks = {key: [] for key in CHANNELS}
    for shard_idx, start in enumerate(range(0, len(emissions), shard_pairs)):
        t_emit = emissions[start:start + shard_pairs]
        n = len(t_emit)
        rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 1, shard_idx]))
        if strategy is None:
            path1 = rng.integers(0, 2, n, dtype=np.uint8)
            path2 = rng.integers(0, 2, n, dtype=np.uint8)
            cells = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), 3)
            cells = np.where(path1 != path2, rng.integers(0, 4, n, dtype=np.uint8), cells)
            x, y = cells // 2 + 1, cells % 2 + 1
        else:
            hv = draw_hidden(n, rng)
            phases = ((phi_a,), (phi_b,)) if strategy.paths_use_settings else ((), ())
            path1 = strategy.path_1(hv, *phases[0]).astype(np.uint8)
            path2 = strategy.path_2(hv, *phases[1]).astype(np.uint8)
            x = np.where(strategy.outcome_a(hv, phi_a) > 0, 1, 2)
            y = np.where(strategy.outcome_b(hv, phi_b) > 0, 1, 2)
        if geometry is Geometry.HUG:
            party1, party2 = path1.astype(np.int64), 1 - path2.astype(np.int64)
        else:
            party1, party2 = np.zeros(n, np.int64), np.ones(n, np.int64)
        det_rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 2, shard_idx]))
        u = det_rng.random(2 * n)
        u_det = det_rng.integers(1, 3, 2 * n, dtype=np.uint8)

        # Photon 1 of every pair, then photon 2 of every pair.
        party = np.concatenate([party1, party2])
        t = np.concatenate([t_emit + path1.astype(np.int64) * delta_t_ps,
                            t_emit + path2.astype(np.int64) * delta_t_ps])
        cross = np.tile(party1 != party2, 2)
        detector = np.where(cross, np.where(party == 0, np.tile(x, 2), np.tile(y, 2)), u_det)
        emission = np.tile(np.arange(start, start + n, dtype=np.int64), 2)

        alive = u < p_party[party]
        t, party, detector, emission = t[alive], party[alive], detector[alive], emission[alive]
        if det.jitter_sigma > 0:
            t = t + np.rint(det_rng.normal(0.0, det.jitter_sigma * 1e12, len(t))).astype(np.int64)
        inside = (t >= 0) & (t <= duration_ps)
        t, party, detector, emission = t[inside], party[inside], detector[inside], emission[inside]
        for key in CHANNELS:
            sel = (party == (0 if key[0] == ALICE else 1)) & (detector == key[1])
            t_chunks[key].append(t[sel])
            em_chunks[key].append(emission[sel])

    dark_rng = np.random.default_rng(np.random.SeedSequence([int(src.seed), 3]))
    empty = np.empty(0, dtype=np.int64)
    return [
        _finalize_channel(
            party_name, dnum,
            np.concatenate(t_chunks[(party_name, dnum)] or [empty]),
            np.concatenate(em_chunks[(party_name, dnum)] or [empty]),
            src.duration, det, dark_rng,
        )
        for party_name, dnum in CHANNELS
    ]


ORACLE_MODES = [
    ("quantum-hug", Geometry.HUG, "quantum"),
    ("quantum-franson", Geometry.FRANSON, "quantum"),
    ("faking-franson", Geometry.FRANSON, faking_strategy()),
    ("coin-hug", Geometry.HUG, coin_strategy()),
    ("coin-franson", Geometry.FRANSON, coin_strategy()),
]
# Survival per party (alice, bob): 1 and 1; about 0.56 and 0.36; about
# 8.5e-3 and 3.4e-4 (the paper's losses); 0 (efficiency 0).
ORACLE_SURVIVAL = {
    "one": (IDEAL_CH, 1.0),
    "mid": (ChannelParams(loss_a_db=1.0, loss_b_db=3.0, coupling_loss_db=0.0), 0.8),
    "tiny": (ChannelParams(), 0.6),
    "zero": (IDEAL_CH, 0.0),
}
# A 0.4 ms block: 20 000 pairs in 1 << 10 shards, the last one ragged.  The
# 20 us jitter pushes tags over both edges of the acquisition window.
ORACLE_SRC = SourceParams(pair_rate=5e7, duration=4e-4, seed=2015)
ORACLE_JITTER = {
    "no-jitter": dict(jitter_sigma=0.0, dark_rate=0.0, dead_time=0.0),
    "edge-jitter": dict(jitter_sigma=2e-5, dark_rate=2e4, dead_time=50e-9),
}


def assert_streams_equal(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert (g.party, g.detector) == (w.party, w.detector)
        for field in ("t_ps", "origin", "emission"):
            a, b = getattr(g, field), getattr(w, field)
            assert a.dtype == b.dtype, (g.party, g.detector, field)
            assert np.array_equal(a, b), (g.party, g.detector, field)


@pytest.mark.parametrize("jitter", ORACLE_JITTER)
@pytest.mark.parametrize("survival", ORACLE_SURVIVAL)
@pytest.mark.parametrize("case", ORACLE_MODES, ids=[m[0] for m in ORACLE_MODES])
def test_simulate_experiment_equals_dense_reference(case, survival, jitter):
    _, geometry, mode = case
    ch, efficiency = ORACLE_SURVIVAL[survival]
    det = DetectorParams(efficiency=efficiency, **ORACLE_JITTER[jitter])
    args = (geometry, mode, 0.3, 1.1, ORACLE_SRC, ch, det, ARMS)
    kwargs = dict(v_eff=0.8, shard_pairs=1 << 10)
    sim = simulate_experiment(*args, **kwargs)
    assert sim.pairs_emitted == len(emission_times_dense(ORACLE_SRC)) == 19_750
    assert_streams_equal(sim.channels, simulate_experiment_dense(*args, **kwargs))
    if survival == "zero":
        assert all(np.all(c.origin == 1) for c in sim.channels)


@pytest.mark.parametrize("mode", ["quantum", coin_strategy()], ids=["quantum", "coin"])
def test_simulate_experiment_zero_duration_equals_dense_reference(mode):
    src = SourceParams(pair_rate=5e7, duration=0.0, seed=3)
    args = (Geometry.HUG, mode, 0.3, 1.1, src, IDEAL_CH, IDEAL_DET, ARMS)
    sim = simulate_experiment(*args, shard_pairs=1 << 10)
    assert sim.pairs_emitted == 0
    assert all(len(c) == 0 for c in sim.channels)
    assert_streams_equal(sim.channels, simulate_experiment_dense(*args, shard_pairs=1 << 10))


class TestSimulateExperiment:
    def _counts(self, sim):
        out = {}
        for x in (1, 2):
            for y in (1, 2):
                m = match(sim.channel(ALICE, x).t_ps, sim.channel(BOB, y).t_ps, CC)
                out[(x, y)] = franson_postselect(m)
        return out

    def test_deterministic_streams(self):
        src = SourceParams(pair_rate=50_000.0, duration=0.2, seed=77)
        a = simulate_experiment(Geometry.HUG, "quantum", 0.1, 0.2, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=0.9)
        b = simulate_experiment(Geometry.HUG, "quantum", 0.1, 0.2, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=0.9)
        for ca, cb in zip(a.channels, b.channels):
            assert np.array_equal(ca.t_ps, cb.t_ps)
            assert np.array_equal(ca.origin, cb.origin)
            assert np.array_equal(ca.emission, cb.emission)

    def test_sharding_invariance(self):
        src = SourceParams(pair_rate=100_000.0, duration=0.1, seed=123)
        kwargs = dict(v_eff=0.8)
        whole = simulate_experiment(
            Geometry.HUG, "quantum", 0.0, 0.0, src, IDEAL_CH, IDEAL_DET, ARMS, **kwargs
        )
        # Shard size only affects batching, not physics: rates must agree.
        sharded = simulate_experiment(
            Geometry.HUG, "quantum", 0.0, 0.0, src, IDEAL_CH, IDEAL_DET, ARMS,
            shard_pairs=1 << 10, **kwargs,
        )
        assert abs(len(whole.channels[0]) + len(whole.channels[1])
                   - len(sharded.channels[0]) - len(sharded.channels[1])) < 600

    def test_lineage_conservation(self):
        src = SourceParams(pair_rate=20_000.0, duration=0.5, seed=31)
        det = DetectorParams(efficiency=0.7, dark_rate=200.0, jitter_sigma=0.0, dead_time=0.0)
        sim = simulate_experiment(
            Geometry.HUG, "quantum", 0.0, 0.3, src, IDEAL_CH, det, ARMS, v_eff=1.0
        )
        n_emissions = sim.pairs_emitted
        seen: dict[int, int] = {}
        for s in sim.channels:
            for em, origin in zip(s.emission.tolist(), s.origin.tolist()):
                if origin == 0:
                    assert 0 <= em < n_emissions
                    seen[em] = seen.get(em, 0) + 1
                else:
                    assert em == -1
        # A pair contributes at most two photon detections.
        assert all(v <= 2 for v in seen.values())
        assert len(seen) > 0

    def test_hug_cross_party_statistics(self):
        # Occupancy low enough that accidental slot hits are absent and the
        # topology invariant shows up exactly.
        src = SourceParams(pair_rate=2_000.0, duration=1.0, seed=19)
        sim = simulate_experiment(
            Geometry.HUG, "quantum", 0.0, math.pi / 4, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=1.0
        )
        counts = self._counts(sim)
        discarded = sum(ps.discarded for ps in counts.values())
        matched = sum(len(ps.kept) for ps in counts.values())
        n_pairs = sim.pairs_emitted
        assert discarded == 0
        assert abs(matched - 0.5 * n_pairs) < 3.0 * math.sqrt(0.25 * n_pairs)

    def test_franson_discard_fraction_half(self):
        src = SourceParams(pair_rate=10_000.0, duration=1.0, seed=23)
        sim = simulate_experiment(
            Geometry.FRANSON, "quantum", 0.0, math.pi / 4, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=1.0
        )
        counts = self._counts(sim)
        discarded = sum(ps.discarded for ps in counts.values())
        total = discarded + sum(len(ps.kept) for ps in counts.values())
        frac = discarded / total
        assert abs(frac - 0.5) < 3.0 * math.sqrt(0.25 / total)

    def test_quantum_fidelity_across_phase_sweep(self):
        # Empirical post-selected E tracks the closed form across 12 phases.
        v_eff = 0.85
        for k in range(12):
            phi_a = 2.0 * math.pi * k / 12.0
            src = SourceParams(pair_rate=40_000.0, duration=0.25, seed=900 + k)
            sim = simulate_experiment(
                Geometry.HUG, "quantum", phi_a, 0.0, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=v_eff
            )
            counts = self._counts(sim)
            cm = CountsMatrix(*(len(counts[(x, y)].kept) for x in (1, 2) for y in (1, 2)))
            est = estimate_E(cm)
            expected = qmodel.correlation(phi_a, 0.0, v_eff)
            assert abs(est.e_hat - expected) < 3.5 * max(est.std_err, 1e-3), f"phi {phi_a}"

    def test_lhv_mode_uses_strategy(self):
        from etbell.lhv import coin_strategy

        src = SourceParams(pair_rate=20_000.0, duration=0.5, seed=47)
        sim = simulate_experiment(
            Geometry.HUG, coin_strategy(), 0.0, math.pi / 4, src, IDEAL_CH, IDEAL_DET, ARMS
        )
        counts = self._counts(sim)
        assert sum(len(ps.kept) for ps in counts.values()) > 0
        assert sim.v_eff is None

    def test_bad_mode_rejected(self):
        src = SourceParams(pair_rate=1000.0, duration=0.1, seed=1)
        from etbell.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            simulate_experiment(
                Geometry.HUG, "classical", 0.0, 0.0, src, IDEAL_CH, IDEAL_DET, ARMS
            )
