import numpy as np
import pytest
from hypothesis import given, strategies as st

from etbell import tagger
from etbell.errors import ContractViolation, SyncRecoveryError
from etbell.tagger import (
    CoincidenceConfig,
    CountsMatrix,
    accidental_rate,
    count_in_window,
    franson_postselect,
    match,
    match_bruteforce,
    read_timetags_binary,
    recover_offset,
    write_timetags_binary,
)
from etbell.topology import SlotClass

CFG = CoincidenceConfig(window_ps=1000, offset_ps=0, delta_t_ps=10_000)


def as_ps(*values):
    return np.asarray(values, dtype=np.int64)


def record_tuples(cs):
    return list(zip(cs.alice_index, cs.bob_index, cs.delta_ps, cs.slot_code))


class TestMatch:
    def test_single_matched_pair(self):
        cfg = CoincidenceConfig(window_ps=1000, offset_ps=5000, delta_t_ps=10_000)
        out = match(as_ps(0), as_ps(5000), cfg)
        assert len(out) == 1
        assert out.delta_ps[0] == 0
        assert out.slot_code[0] == 0

    def test_out_of_slot_pair(self):
        cfg = CoincidenceConfig(window_ps=1000, offset_ps=5000, delta_t_ps=10_000)
        out = match(as_ps(0), as_ps(5000 + 2000), cfg)
        assert len(out) == 0

    def test_slot_labels(self):
        # Alice late by delta_t -> LS; Bob late by delta_t -> SL.
        out = match(as_ps(10_000), as_ps(0), CFG)
        assert tagger.CODE_SLOTS[int(out.slot_code[0])] is SlotClass.LS
        out = match(as_ps(0), as_ps(10_000), CFG)
        assert tagger.CODE_SLOTS[int(out.slot_code[0])] is SlotClass.SL

    def test_window_edges_inclusive(self):
        out = match(as_ps(500), as_ps(0), CFG)
        assert len(out) == 1 and out.slot_code[0] == 0
        out = match(as_ps(501), as_ps(0), CFG)
        assert len(out) == 0

    def test_one_to_one(self):
        # Two Bob tags compete for one Alice tag: only one record.
        out = match(as_ps(0), as_ps(0, 100), CFG)
        assert len(out) == 1
        assert out.bob_index[0] == 0

    def test_earliest_eligible_wins(self):
        out = match(as_ps(-400, 300), as_ps(0), CFG)
        assert len(out) == 1
        assert out.alice_index[0] == 0

    def test_rejects_unsorted(self):
        with pytest.raises(ContractViolation):
            match(as_ps(5, 1), as_ps(0), CFG)
        with pytest.raises(ContractViolation):
            match(as_ps(0), as_ps(5, 1), CFG)

    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            CoincidenceConfig(window_ps=0, delta_t_ps=10_000)
        with pytest.raises(ContractViolation):
            CoincidenceConfig(window_ps=5000, delta_t_ps=10_000)

    def test_shift_invariance(self):
        rng = np.random.default_rng(3)
        a = np.sort(rng.integers(0, 1_000_000, 200))
        b = np.sort(rng.integers(0, 1_000_000, 200))
        base = match(a, b, CFG)
        shift = 123_456_789
        cfg2 = CoincidenceConfig(
            window_ps=CFG.window_ps, offset_ps=CFG.offset_ps + shift, delta_t_ps=CFG.delta_t_ps
        )
        moved = match(a, b + shift, cfg2)
        assert record_tuples(base) == record_tuples(moved)

    def test_streaming_equals_bruteforce_on_random_streams(self):
        rng = np.random.default_rng(11)
        for trial in range(120):
            na, nb = rng.integers(1, 400, 2)
            span = int(rng.integers(5_000, 2_000_000))
            a = np.sort(rng.integers(0, span, na))
            b = np.sort(rng.integers(0, span, nb))
            delta_t = int(rng.integers(3, 2000)) * 10
            window = max(int(rng.integers(1, delta_t // 2)), 1)
            offset = int(rng.integers(-span // 2, span // 2))
            cfg = CoincidenceConfig(window_ps=window, offset_ps=offset, delta_t_ps=delta_t)
            fast = match(a, b, cfg)
            slow = match_bruteforce(a, b, cfg)
            assert record_tuples(fast) == record_tuples(slow), f"trial {trial}"

    def test_no_tag_reuse(self):
        rng = np.random.default_rng(5)
        a = np.sort(rng.integers(0, 100_000, 500))
        b = np.sort(rng.integers(0, 100_000, 500))
        out = match(a, b, CFG)
        assert len(set(out.alice_index.tolist())) == len(out)
        assert len(set(out.bob_index.tolist())) == len(out)


@st.composite
def clustered_streams(draw):
    """Dense Alice/Bob streams bunched around shared centers, so many Bob
    tags reach the same Alice tags and hulls hold several candidates."""
    dt = draw(st.integers(3, 400))
    window = draw(st.integers(1, (dt - 1) // 2))  # odd and even widths, 2 w < dt
    offset = draw(st.integers(-20 * dt, 20 * dt))
    centers = draw(st.lists(st.integers(0, 30 * dt), min_size=1, max_size=5))
    tags = st.lists(
        st.tuples(st.sampled_from(centers), st.integers(-2 * dt, 2 * dt)), max_size=80
    )

    def stream(shift):
        return np.sort(np.array([c + j + shift for c, j in draw(tags)], dtype=np.int64))

    cfg = CoincidenceConfig(window_ps=window, offset_ps=offset, delta_t_ps=dt)
    return stream(0), stream(offset), cfg


class TestMatchOracle:
    """The bulk matcher against the brute-force oracle where tags contend."""

    @given(clustered_streams())
    def test_clustered_streams_equal_bruteforce(self, streams):
        a, b, cfg = streams
        fast = match(a, b, cfg)
        slow = match_bruteforce(a, b, cfg)
        assert record_tuples(fast) == record_tuples(slow)
        for col in ("alice_index", "bob_index", "delta_ps", "slot_code"):
            assert getattr(fast, col).dtype == getattr(slow, col).dtype

    def test_contended_bob_tags_share_one_alice_tag(self):
        # Three Bob tags whose hulls all hold the same two Alice tags: the
        # first takes the earlier one (an SL candidate), the second the
        # later one, the third finds nothing left.
        cfg = CoincidenceConfig(window_ps=101, offset_ps=-7, delta_t_ps=1_000)
        a = as_ps(0, 1_000)
        b = as_ps(1_000, 1_010, 1_020) - 7
        out = match(a, b, cfg)
        assert record_tuples(out) == record_tuples(match_bruteforce(a, b, cfg))
        assert out.alice_index.tolist() == [0, 1]
        assert out.bob_index.tolist() == [0, 1]
        assert out.slot_code.tolist() == [2, 0]


class TestPostselect:
    def test_keeps_matched_only(self):
        a = as_ps(0, 50_000, 100_000 + 10_000)
        b = as_ps(0, 50_000 + 10_000, 100_000)
        out = match(a, b, CFG)
        ps = franson_postselect(out)
        assert len(ps.kept) == 1
        assert ps.discarded_sl == 1
        assert ps.discarded_ls == 1
        assert ps.discarded == 2

    def test_empty_input(self):
        ps = franson_postselect(match(as_ps(), as_ps(), CFG))
        assert len(ps.kept) == 0 and ps.discarded == 0


class TestRecoverOffset:
    def test_known_delay_with_loss(self):
        rng = np.random.default_rng(17)
        n = 10_000
        origin = np.sort(rng.uniform(0, 1.0, n) * 1e12).astype(np.int64)
        a = origin[rng.random(n) < 0.5]
        b = np.sort(origin[rng.random(n) < 0.5] + 18_500_030)
        est = recover_offset(a, b, 100e-6, 100e-12)
        assert abs(est - 18.50003e-6) <= 50e-12

    def test_identical_streams(self):
        t = np.sort(np.random.default_rng(1).integers(0, 10**12, 2000))
        est = recover_offset(t, t, 10e-6, 100e-12)
        assert abs(est) <= 50e-12

    def test_independent_streams_fail(self):
        rng = np.random.default_rng(23)
        a = np.sort(rng.uniform(0, 1.0, 8000) * 1e12).astype(np.int64)
        b = np.sort(rng.uniform(0, 1.0, 8000) * 1e12).astype(np.int64)
        with pytest.raises(SyncRecoveryError):
            recover_offset(a, b, 100e-6, 100e-12)


def lag_histogram_per_pulse(a, b, span_ps, bin_ps):
    """Reference sync histogram: one pulse at a time, clipped bins."""
    n_bins = (2 * span_ps) // bin_ps + 1
    hist = np.zeros(n_bins, dtype=np.int64)
    for ta in a.tolist():
        lo = np.searchsorted(b, ta - span_ps, side="left")
        hi = np.searchsorted(b, ta + span_ps, side="right")
        lags = b[lo:hi] - ta
        hist += np.bincount(
            np.clip((lags + span_ps) // bin_ps, 0, n_bins - 1), minlength=n_bins
        )
    return hist


def sync_streams(kind, seed):
    rng = np.random.default_rng(seed)
    origin = np.sort(rng.integers(0, 2_000_000_000, 1_500))
    if kind == "delayed":
        return origin[rng.random(origin.size) < 0.7], np.sort(
            origin[rng.random(origin.size) < 0.7] + 3_000_030
        )
    if kind == "independent":
        return origin, np.sort(rng.integers(0, 2_000_000_000, 1_500))
    if kind == "out-of-span":
        return origin, origin + 10**12
    return origin, origin  # identical


class TestSyncHistogram:
    """Chunked lag histogram against the per-pulse reference."""

    SPAN_PS = 5_000_000
    BIN_PS = 1_000

    @pytest.mark.parametrize("chunk", [1, 7, 640, 1_500, 100_000])
    @pytest.mark.parametrize("kind", ["delayed", "independent", "out-of-span", "identical"])
    def test_histogram_and_result_across_chunk_boundaries(self, kind, chunk, monkeypatch):
        a, b = sync_streams(kind, seed=len(kind))
        ref = lag_histogram_per_pulse(a, b, self.SPAN_PS, self.BIN_PS)
        monkeypatch.setattr(tagger, "_SYNC_CHUNK_PULSES", chunk)
        assert np.array_equal(tagger._lag_histogram(a, b, self.SPAN_PS, self.BIN_PS), ref)

        def outcome():
            try:
                return recover_offset(a, b, self.SPAN_PS * 1e-12, self.BIN_PS * 1e-12)
            except SyncRecoveryError as exc:
                return str(exc)

        chunked = outcome()
        monkeypatch.setattr(tagger, "_lag_histogram", lag_histogram_per_pulse)
        assert chunked == outcome()
        if kind in ("independent", "out-of-span"):
            assert isinstance(chunked, str)
        else:
            assert isinstance(chunked, float)


class TestAccidentals:
    def test_closed_form(self):
        assert accidental_rate(300_000.0, 9_000.0, 1e-9) == pytest.approx(2.7, abs=1e-12)
        assert accidental_rate(123.0, 0.0, 1e-9) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ContractViolation):
            accidental_rate(-1.0, 1.0, 1e-9)

    def test_monte_carlo_matches_formula(self):
        rng = np.random.default_rng(31)
        duration = 50.0
        for rate_a, rate_b in [(10_000.0, 10_000.0), (30_000.0, 5_000.0)]:
            a = np.sort(rng.uniform(0, duration, rng.poisson(rate_a * duration)) * 1e12).astype(
                np.int64
            )
            b = np.sort(rng.uniform(0, duration, rng.poisson(rate_b * duration)) * 1e12).astype(
                np.int64
            )
            window_ps = 1000
            measured = count_in_window(a, b, 0, window_ps, 0) / duration
            expected = accidental_rate(rate_a, rate_b, window_ps * 1e-12)
            sigma = np.sqrt(expected / duration)
            assert abs(measured - expected) < 3.5 * sigma


class TestStreamFiles:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        channels = rng.integers(0, 4, 500).astype(np.uint8)
        t = np.sort(rng.integers(0, 10**15, 500)).astype(np.int64)
        path = tmp_path / "tags.bin"
        write_timetags_binary(path, channels, t)
        c2, t2 = read_timetags_binary(path)
        assert np.array_equal(channels, c2)
        assert np.array_equal(t, t2)

    def test_binary_header_checked(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"not a timetag file\n\x00\x00")
        with pytest.raises(ContractViolation):
            read_timetags_binary(path)


def test_counts_matrix_total():
    cm = CountsMatrix(1, 2, 3, 4)
    assert cm.total == 10
    assert cm.as_tuple() == (1, 2, 3, 4)
