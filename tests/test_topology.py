import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from etbell.errors import ConfigurationError, ContractViolation
from etbell.photonics import ChannelParams, DetectorParams, SourceParams, simulate_experiment
from etbell.tagger import CoincidenceConfig, match
from etbell.topology import (
    ALICE,
    BOB,
    ArmConfig,
    Geometry,
    SlotClass,
    classify_slot_ps,
    indistinguishability_factor,
    route,
)

ARMS = ArmConfig(delta_t=10e-9)
DELTA_T_PS = 10_000
SHORT, LONG = 0, 1


def route_one(geometry, p1, p2):
    party1, party2 = route(
        geometry, np.array([p1], dtype=np.uint8), np.array([p2], dtype=np.uint8)
    )
    assert party1.dtype == party2.dtype == np.uint8
    return int(party1[0]), int(party2[0])


def test_route_hug_mixed_paths_same_party():
    assert route_one(Geometry.HUG, SHORT, LONG) == (0, 0)  # both at Alice
    assert route_one(Geometry.HUG, LONG, SHORT) == (1, 1)  # both at Bob


def test_route_hug_matched_paths_cross_party():
    assert route_one(Geometry.HUG, SHORT, SHORT) == (0, 1)
    assert route_one(Geometry.HUG, LONG, LONG) == (1, 0)


def test_route_franson_always_cross_party():
    path1 = np.array([SHORT, SHORT, LONG, LONG], dtype=np.uint8)
    path2 = np.array([SHORT, LONG, SHORT, LONG], dtype=np.uint8)
    party1, party2 = route(Geometry.FRANSON, path1, path2)
    assert party1.tolist() == [0, 0, 0, 0]
    assert party2.tolist() == [1, 1, 1, 1]


# The geometry's timing, on the production generator: every photon
# survives, nothing jitters, no dark counts or dead time, and the two
# photons of a pair are joined by their emission id.
LOSSLESS_CH = ChannelParams(loss_a_db=0, loss_b_db=0, coupling_loss_db=0, filter_transmission=1.0)
LOSSLESS_DET = DetectorParams(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)


def lossless_run(geometry):
    src = SourceParams(pair_rate=2e6, duration=2e-3, seed=17)
    return simulate_experiment(
        geometry, "quantum", 0.2, 0.9, src, LOSSLESS_CH, LOSSLESS_DET, ARMS
    )


def cross_party_deltas(geometry):
    """Alice-minus-Bob arrival difference (ps) of every pair seen by both parties."""
    sim = lossless_run(geometry)
    times = {}
    for party in (ALICE, BOB):
        em = np.concatenate([sim.channel(party, d).emission for d in (1, 2)])
        t = np.concatenate([sim.channel(party, d).t_ps for d in (1, 2)])
        times[party] = dict(zip(em.tolist(), t.tolist()))
    both = times[ALICE].keys() & times[BOB].keys()
    assert len(both) > 1000
    return np.array([times[ALICE][e] - times[BOB][e] for e in sorted(both)])


def test_franson_mixed_paths_shift_arrival_difference():
    deltas = cross_party_deltas(Geometry.FRANSON)
    values, counts = np.unique(deltas, return_counts=True)
    assert values.tolist() == [-DELTA_T_PS, 0, DELTA_T_PS]
    # Two of the four fair path pairs are mixed, one shifted each way.
    n = len(deltas)
    assert abs(counts[1] - n / 2) < 4.0 * math.sqrt(n / 4)
    assert abs(counts[0] - counts[2]) < 4.0 * math.sqrt(n / 2)


def test_hug_cross_party_always_matched_delay():
    # Structural invariant: every hug cross-party pair arrives with zero
    # time difference, so no true pair can fall in the LS or SL slot.
    deltas = cross_party_deltas(Geometry.HUG)
    assert np.all(deltas == 0)
    slots = {classify_slot_ps(int(d), DELTA_T_PS, 1000) for d in deltas}
    assert slots == {SlotClass.MATCHED}
    # The matcher agrees: a record joining the two photons of one pair is
    # always in the matched slot; LS/SL records are accidentals only.
    sim = lossless_run(Geometry.HUG)
    cc = CoincidenceConfig(window_ps=1000, offset_ps=0, delta_t_ps=DELTA_T_PS)
    true_pairs = 0
    for x in (1, 2):
        for y in (1, 2):
            a, b = sim.channel(ALICE, x), sim.channel(BOB, y)
            rec = match(a.t_ps, b.t_ps, cc)
            same = a.emission[rec.alice_index] == b.emission[rec.bob_index]
            assert np.all(rec.slot_code[same] == 0)
            true_pairs += int(np.count_nonzero(same))
    assert true_pairs > 1000


@pytest.mark.parametrize(
    "delta, expected",
    [
        (0.0, SlotClass.MATCHED),
        (0.4e-9, SlotClass.MATCHED),
        (10e-9, SlotClass.LS),
        (-10e-9, SlotClass.SL),
        (10.4e-9, SlotClass.LS),
        (4e-9, SlotClass.ACCIDENTAL),
        (-6e-9, SlotClass.ACCIDENTAL),
        (25e-9, SlotClass.ACCIDENTAL),
    ],
)
def test_classify_slot_examples(delta, expected):
    assert classify_slot_ps(round(delta * 1e12), DELTA_T_PS, 1000) is expected


def test_classify_slot_rejects_unresolvable_window():
    with pytest.raises(ConfigurationError):
        classify_slot_ps(0, DELTA_T_PS, 5000)
    with pytest.raises(ConfigurationError):
        classify_slot_ps(0, DELTA_T_PS, 6000)
    with pytest.raises(ConfigurationError):
        classify_slot_ps(0, DELTA_T_PS, 0)


@given(st.integers(-10**6, 10**6))
def test_classify_slot_total(delta_ps):
    assert classify_slot_ps(delta_ps, DELTA_T_PS, 1000) in SlotClass


def test_indistinguishability_factor_values():
    assert indistinguishability_factor(ArmConfig(imbalance=0.0)) == 1.0
    at_one = indistinguishability_factor(ArmConfig(imbalance=1e-3, coherence_length=1e-3))
    assert at_one == pytest.approx(math.exp(-1.0), abs=1e-12)
    assert 0.0 < at_one < 1.0
    far = indistinguishability_factor(ArmConfig(imbalance=1e-2, coherence_length=1e-3))
    assert far < 0.01


def test_indistinguishability_factor_monotone():
    values = [
        indistinguishability_factor(ArmConfig(imbalance=x * 1e-4, coherence_length=1e-3))
        for x in range(0, 40)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_arm_config_validation():
    with pytest.raises(ContractViolation):
        ArmConfig(delta_t=0.0)
    with pytest.raises(ContractViolation):
        ArmConfig(imbalance=-1e-3)
    with pytest.raises(ContractViolation):
        ArmConfig(coherence_length=0.0)
