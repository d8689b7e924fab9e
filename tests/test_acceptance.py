"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances are fixed here, not tuned elsewhere.
"""

import json
import math
import time

import numpy as np

from etbell import lhv, qmodel
from etbell.config import bundled_config_names, bundled_config_path, load_config
from etbell.estimators import estimate_E, estimate_S
from etbell.lockbox import DriftProcess, PidParams, ReferenceSignal, run_lock
from etbell.photonics import ChannelParams, DetectorParams, SourceParams, simulate_experiment
from etbell.runner import run_experiment
from etbell.tagger import (
    CoincidenceConfig,
    CountsMatrix,
    accidental_rate,
    count_in_window,
    franson_postselect,
    match,
    match_bruteforce,
    recover_offset,
)
from etbell.topology import ALICE, BOB, ArmConfig, Geometry

TSIRELSON = 2.0 * math.sqrt(2.0)
QUAD = qmodel.canonical_quad()
ARMS = ArmConfig(delta_t=10e-9)
CC = CoincidenceConfig.from_seconds(1e-9, 0.0, 10e-9)
IDEAL_CH = ChannelParams(loss_a_db=0, loss_b_db=0, coupling_loss_db=0, filter_transmission=1.0)
IDEAL_DET = DetectorParams(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    return ok


def _ideal_quad_counts(v_eff, pair_rate, duration, seed0, geometry=Geometry.HUG):
    """Four-setting pipeline run on the ideal channel; returns estimates."""
    ests = []
    for k, (phi_a, phi_b) in enumerate(QUAD.pairs()):
        src = SourceParams(pair_rate=pair_rate, duration=duration, seed=seed0 + k)
        sim = simulate_experiment(
            geometry, "quantum", phi_a, phi_b, src, IDEAL_CH, IDEAL_DET, ARMS,
            v_eff=v_eff,
        )
        cells = {}
        for x in (1, 2):
            for y in (1, 2):
                m = match(sim.channel(ALICE, x).t_ps, sim.channel(BOB, y).t_ps, CC)
                cells[(x, y)] = len(franson_postselect(m).kept)
        ests.append(
            estimate_E(CountsMatrix(cells[(1, 1)], cells[(1, 2)], cells[(2, 1)], cells[(2, 2)]))
        )
    return estimate_S(*ests)


def test_criterion_01_analytic_tsirelson():
    t0 = time.time()
    s_unit = qmodel.chsh_value(QUAD, 1.0)
    s_crit = qmodel.chsh_value(QUAD, qmodel.critical_visibility())
    ok = abs(s_unit - TSIRELSON) < 1e-12 and abs(s_crit - 2.0) < 1e-12
    elapsed = time.time() - t0
    assert _verdict(
        1,
        ok and elapsed < 1.0,
        f"chsh(V=1) = {s_unit!r} vs 2*sqrt(2), chsh(V=1/sqrt(2)) = {s_crit!r} "
        f"(within 1e-12), {elapsed:.3f} s",
    )


def test_criterion_02_reported_statistic_reproduction():
    t0 = time.time()
    v_eff = 0.821
    pair_rate = 20_000.0
    duration = 0.022  # ~440 pairs -> ~220 matched coincidences per setting
    s_values = []
    errors = []
    for rep in range(500):
        r = _ideal_quad_counts(v_eff, pair_rate, duration, seed0=10_000 + 10 * rep)
        s_values.append(r.s_hat)
        errors.append(r.std_err)
    mean_s = float(np.mean(s_values))
    mean_err = float(np.mean(errors))
    mean_n = float(np.mean([c.n_total for c in r.correlations]))
    elapsed = time.time() - t0
    ok = 2.25 <= mean_s <= 2.40 and 0.08 <= mean_err <= 0.14 and elapsed < 300.0
    assert _verdict(
        2,
        ok,
        f"500 replications: mean S = {mean_s:.4f} (band [2.25, 2.40]), mean propagated "
        f"std_err = {mean_err:.4f} (band [0.08, 0.14]), ~{mean_n:.0f} coincidences per "
        f"setting, {elapsed:.1f} s",
    )


def test_criterion_03_visibility_relation():
    t0 = time.time()
    details = []
    ok = True
    for v in (0.6, 0.7071, 0.821, 0.95, 1.0):
        # 1e5 pairs per visibility point, split across the four settings.
        r = _ideal_quad_counts(v, 100_000.0, 0.25, seed0=int(v * 10_000))
        target = TSIRELSON * v
        dev = abs(r.s_hat - target)
        ok = ok and dev < 3.0 * r.std_err
        details.append(f"V={v}: S={r.s_hat:.4f} vs {target:.4f} ({dev / r.std_err:.2f} sigma)")
    elapsed = time.time() - t0
    assert _verdict(3, ok and elapsed < 120.0, "; ".join(details) + f", {elapsed:.1f} s")


def test_criterion_04_loophole_demonstration():
    t0 = time.time()
    faked = lhv.run_lhv(Geometry.FRANSON, lhv.faking_strategy(), QUAD, 1_000_000, seed=42)
    s_post = faked.s_postselected.s_hat
    s_full = faked.s_full
    ok = 2.80 <= s_post <= 2.86
    ok = ok and s_full.s_hat <= 2.0 + 3.0 * s_full.std_err

    quad_oracle = sum(
        sign * lhv.quadrature_faked_correlation(pa, pb, n_grid=400_000)
        for sign, (pa, pb) in zip((1, 1, 1, -1), QUAD.pairs())
    )
    ok = ok and abs(quad_oracle - TSIRELSON) < 1e-4

    hug_max = 0.0
    for name in ("coin", "constant"):
        rep = lhv.run_lhv(Geometry.HUG, lhv.get_strategy(name), QUAD, 200_000, seed=7)
        excess = rep.s_postselected.s_hat - (2.0 + 3.0 * rep.s_postselected.std_err)
        hug_max = max(hug_max, rep.s_postselected.s_hat)
        ok = ok and excess <= 0
    for gen_seed in range(100):
        rep = lhv.run_lhv(
            Geometry.HUG, lhv.random_strategy(gen_seed), QUAD, 100_000, seed=5_000 + gen_seed
        )
        excess = rep.s_postselected.s_hat - (2.0 + 3.0 * rep.s_postselected.std_err)
        hug_max = max(hug_max, rep.s_postselected.s_hat)
        ok = ok and excess <= 0
    elapsed = time.time() - t0
    assert _verdict(
        4,
        ok and elapsed < 300.0,
        f"faked S_post = {s_post:.4f} in [2.80, 2.86] (quadrature oracle {quad_oracle:.6f}), "
        f"S_full = {s_full.s_hat:.4f} <= 2 + 3 sigma; hug max S over 102 strategies = "
        f"{hug_max:.4f} <= 2 + 3 sigma, {elapsed:.1f} s",
    )


def test_criterion_05_franson_discard_fraction():
    t0 = time.time()
    # Standard geometry: half of all cross-party coincidences are LS/SL.
    src = SourceParams(pair_rate=5_000.0, duration=1.0, seed=61)
    sim = simulate_experiment(
        Geometry.FRANSON, "quantum", 0.0, math.pi / 4, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=1.0
    )
    kept = discarded = 0
    for x in (1, 2):
        for y in (1, 2):
            ps = franson_postselect(
                match(sim.channel(ALICE, x).t_ps, sim.channel(BOB, y).t_ps, CC)
            )
            kept += len(ps.kept)
            discarded += ps.discarded
    total = kept + discarded
    frac = discarded / total
    sigma = math.sqrt(0.25 / total)
    franson_ok = abs(frac - 0.5) < 3.0 * sigma

    # Cross-linked geometry at low occupancy: discard count is exactly zero.
    src = SourceParams(pair_rate=2_000.0, duration=1.0, seed=62)
    sim = simulate_experiment(
        Geometry.HUG, "quantum", 0.0, math.pi / 4, src, IDEAL_CH, IDEAL_DET, ARMS, v_eff=1.0
    )
    hug_discarded = 0
    for x in (1, 2):
        for y in (1, 2):
            ps = franson_postselect(
                match(sim.channel(ALICE, x).t_ps, sim.channel(BOB, y).t_ps, CC)
            )
            hug_discarded += ps.discarded
    elapsed = time.time() - t0
    ok = franson_ok and hug_discarded == 0 and elapsed < 60.0
    assert _verdict(
        5,
        ok,
        f"franson discard fraction = {frac:.4f} (50% +/- {3 * sigma:.4f}), "
        f"hug discards = {hug_discarded} (exactly 0), {elapsed:.1f} s",
    )


def test_criterion_06_coincidence_engine():
    t0 = time.time()
    rng = np.random.default_rng(606)
    exact = True
    for _ in range(500):
        na, nb = rng.integers(1, 1001, 2)
        span = int(rng.integers(10_000, 5_000_000))
        a = np.sort(rng.integers(0, span, na))
        b = np.sort(rng.integers(0, span, nb))
        delta_t = int(rng.integers(5, 3000)) * 10
        window = max(int(rng.integers(1, delta_t // 2)), 1)
        offset = int(rng.integers(-span // 3, span // 3))
        cfg = CoincidenceConfig(window_ps=window, offset_ps=offset, delta_t_ps=delta_t)
        fast = match(a, b, cfg)
        slow = match_bruteforce(a, b, cfg)
        same = (
            np.array_equal(fast.alice_index, slow.alice_index)
            and np.array_equal(fast.bob_index, slow.bob_index)
            and np.array_equal(fast.delta_ps, slow.delta_ps)
            and np.array_equal(fast.slot_code, slow.slot_code)
        )
        exact = exact and same

    # Accidental Monte Carlo at the observed singles budget.
    budget_rate = accidental_rate(300_000.0, 9_000.0, 1e-9)
    formula_ok = abs(budget_rate - 2.7) < 1e-12
    duration = 20.0
    a = np.sort(rng.uniform(0, duration, rng.poisson(300_000 * duration)) * 1e12).astype(np.int64)
    b = np.sort(rng.uniform(0, duration, rng.poisson(9_000 * duration)) * 1e12).astype(np.int64)
    measured = count_in_window(a, b, 0, 1000, 0)
    expected = 2.7 * duration
    mc_ok = abs(measured - expected) < 3.0 * math.sqrt(expected)
    elapsed = time.time() - t0
    ok = exact and formula_ok and mc_ok and elapsed < 120.0
    assert _verdict(
        6,
        ok,
        f"streaming == brute force on 500 instances: {exact}; closed form 2.7/s exact: "
        f"{formula_ok}; MC {measured} vs {expected:.0f} +/- {3 * math.sqrt(expected):.0f} "
        f"pairs in {duration:.0f} s, {elapsed:.1f} s",
    )


def test_criterion_07_rate_budget():
    t0 = time.time()
    src = SourceParams(pair_rate=4.1e7, duration=1.0, seed=71)
    sim = simulate_experiment(
        Geometry.HUG, "quantum", 0.0, math.pi / 4, src, ChannelParams(), DetectorParams(),
        ARMS, v_eff=0.821,
    )
    alice = sim.singles_rate(ALICE)
    bob = sim.singles_rate(BOB)
    matched = 0
    for x in (1, 2):
        for y in (1, 2):
            m = match(sim.channel(ALICE, x).t_ps, sim.channel(BOB, y).t_ps, CC)
            matched += len(franson_postselect(m).kept)
    cc_rate = matched / src.duration
    elapsed = time.time() - t0
    ok = (
        abs(alice - 300_000.0) < 50_000.0  # calibration target
        and 4_500.0 <= bob <= 18_000.0
        and 20.0 <= cc_rate <= 80.0
        and elapsed < 60.0
    )
    assert _verdict(
        7,
        ok,
        f"alice singles = {alice:,.0f}/s (calibrated to ~300,000), bob = {bob:,.0f}/s "
        f"(factor 2 of 9,000), coincidences = {cc_rate:.1f}/s (factor 2 of 40), "
        f"{elapsed:.1f} s",
    )


def test_criterion_08_lock_performance():
    t0 = time.time()
    drift = DriftProcess(model="random-walk", diffusion=4.0, sample_rate=50_000.0)
    ref = ReferenceSignal()
    pid = PidParams()  # 5 kHz bandwidth defaults
    good = 0
    unlocked_rms = []
    for seed in range(100):
        r = run_lock(drift, ref, pid, 1.0, seed=seed)
        if r.report.residual_rms < 0.1:
            good += 1
        unlocked_rms.append(float(np.sqrt(np.mean(r.drift**2))))
    mean_unlocked = float(np.mean(unlocked_rms))

    zero = run_lock(drift, ref, PidParams(kp=0.0, ki=0.0, kd=0.0), 1.0, seed=3)
    exact = np.array_equal(zero.residual, zero.drift)
    elapsed = time.time() - t0
    ok = good >= 95 and mean_unlocked > 1.0 and exact and elapsed < 120.0
    assert _verdict(
        8,
        ok,
        f"residual rms < 0.1 rad in {good}/100 seeded runs (need >= 95); mean unlocked "
        f"1 s rms = {mean_unlocked:.2f} rad (> 1); zero-gain == open loop: {exact}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_09_offset_recovery():
    t0 = time.time()
    rng = np.random.default_rng(909)
    n = 10_000
    true_delay = 18.50003e-6  # off the bin grid on purpose
    origin = np.sort(rng.uniform(0, 1.0, n) * 1e12).astype(np.int64)
    alice = origin[rng.random(n) < 0.5]
    bob = np.sort(origin[rng.random(n) < 0.5] + int(round(true_delay * 1e12)))
    est = recover_offset(alice, bob, search_span=100e-6, bin_width=100e-12)
    err = abs(est - true_delay)
    elapsed = time.time() - t0
    ok = err <= 50e-12 and elapsed < 60.0
    assert _verdict(
        9,
        ok,
        f"recovered {est * 1e6:.6f} us vs true {true_delay * 1e6:.6f} us, error "
        f"{err * 1e12:.1f} ps <= bin/2 = 50 ps (10^4 common pulses, 50% loss per side, "
        f"+/-100 us span), {elapsed:.1f} s",
    )


def test_criterion_10_bundled_config_determinism(tmp_path):
    t0 = time.time()
    all_ok = True
    details = []
    for name in sorted(bundled_config_names()):
        cfg = load_config(bundled_config_path(name))
        out1 = run_experiment(cfg, tmp_path / f"{name}-a")
        out2 = run_experiment(cfg, tmp_path / f"{name}-b")
        files1 = sorted(p.relative_to(out1).as_posix() for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2).as_posix() for p in out2.rglob("*") if p.is_file())
        identical = files1 == files2 and all(
            (out1 / rel).read_bytes() == (out2 / rel).read_bytes() for rel in files1
        )
        bands_ok = _bundled_band_checks(name, out1)
        all_ok = all_ok and identical and bands_ok
        details.append(
            f"{name}: {'identical' if identical else 'MISMATCH'}"
            f"{'' if bands_ok else ' (band check FAILED)'} ({len(files1)} files)"
        )
    elapsed = time.time() - t0
    assert _verdict(10, all_ok, "; ".join(details) + f", {elapsed:.0f} s")


def _bundled_band_checks(name, run_dir):
    """Statistical bands tied to each bundled configuration."""
    bell = json.loads((run_dir / "bell.json").read_text())
    b = bell["bell"]
    bf = bell["bell_full_sample"]
    if name == "paper.cfg":
        fringe_rows = (run_dir / "fringe.csv").read_text().splitlines()
        return (
            2.1 <= b["s_hat"] <= 2.5
            and 0.05 <= b["std_err"] <= 0.2
            and len(fringe_rows) - 1 >= 12
        )
    if name == "loophole.cfg":
        return (
            b["s_hat"] >= 2.8
            and bf["s_hat"] <= 2.0 + 3.0 * bf["std_err"]
            and abs(bell["discards"]["fraction_of_records"] - (1.0 - 2.0 / math.pi)) < 0.01
        )
    if name == "hug-lhv.cfg":
        return b["s_hat"] <= 2.0 + 3.0 * b["std_err"]
    return True
