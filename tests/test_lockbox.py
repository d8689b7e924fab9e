import math

import numpy as np
import pytest
from scipy import stats

from etbell.errors import ConfigurationError, ContractViolation
from etbell.lockbox import (
    DriftProcess,
    PidParams,
    ReferenceSignal,
    residual_to_visibility,
    run_lock,
)

REF = ReferenceSignal()
PID = PidParams()
ZERO_GAIN = PidParams(kp=0.0, ki=0.0, kd=0.0)
# The default wandering contrast with the mean level held at exactly 1.
FLAT_DC = ReferenceSignal(dc_min=1.0, dc_max=1.0)
SETPOINTS = (math.pi / 4, -math.pi / 4)


class TestDrift:
    """The open-loop drift trace that ``run_lock`` returns."""

    def test_zero_diffusion_constant(self):
        walk = DriftProcess(diffusion=0.0)
        ou = DriftProcess(model="ou", diffusion=0.0, reversion_rate=50.0)
        for drift in (walk, ou):
            trace = run_lock(drift, REF, PID, 0.05, seed=0).drift
            assert len(trace) == 2500
            assert np.all(trace == 0.0)

    def test_random_walk_variance_law(self):
        # Var[x(t + T) - x(t)] = diffusion * T: disjoint increments over
        # 1, 40 and 400 loop samples of one 4 s trace.
        drift = DriftProcess(diffusion=100.0, sample_rate=5000.0)
        pid = PidParams(loop_rate=5000.0, bandwidth=1000.0)
        trace = run_lock(drift, REF, pid, 4.0, seed=1).drift
        for lag in (1, 40, 400):
            steps = np.diff(trace[::lag])
            expected = 100.0 * lag / 5000.0
            # The sample variance of m Gaussian increments has relative
            # sigma sqrt(2 / (m - 1)).
            rel_sigma = math.sqrt(2.0 / (len(steps) - 1))
            assert abs(np.var(steps) / expected - 1.0) < 3.5 * rel_sigma, lag

    def test_ou_stationary_variance(self):
        drift = DriftProcess(model="ou", diffusion=4.0, reversion_rate=50.0, sample_rate=10_000.0)
        pid = PidParams(loop_rate=10_000.0, bandwidth=2_000.0)
        xs = run_lock(drift, REF, pid, 15.0, seed=2).drift
        assert len(xs) == 150_000
        tail = xs[20_000:]
        expected = 4.0 / (2.0 * 50.0)
        n_eff = len(tail) / (2.0 * drift.sample_rate / drift.reversion_rate)
        sigma = expected * math.sqrt(2.0 / n_eff)
        assert abs(tail.var() - expected) < 3.5 * sigma

    def test_validation(self):
        with pytest.raises(ContractViolation):
            DriftProcess(model="brownian")
        with pytest.raises(ContractViolation):
            DriftProcess(model="ou", reversion_rate=0.0)


class TestErrorSignal:
    """The a-c coupled quadrature error, seen through the closed loop."""

    def test_constant_intensity_zero(self):
        # No fringe and a fixed mean level: the intensity is constant, the
        # error is zero, so the actuator never moves off the drift.
        blank = ReferenceSignal(visibility_min=0.0, visibility_max=0.0, dc_min=1.0, dc_max=1.0)
        result = run_lock(DriftProcess(diffusion=2.0), blank, PID, 0.2, seed=6)
        assert np.array_equal(result.residual, result.drift)
        assert np.any(result.drift != 0.0)

    def test_steady_quadrature_zero(self):
        # At +-pi/4, cos(2 phi) vanishes, so the wandering contrast moves
        # the intensity by nothing: without drift the residual is exactly 0.
        # A fringe written as cos(phi) would leave it wandering.
        for setpoint in SETPOINTS:
            r = run_lock(DriftProcess(diffusion=0.0), FLAT_DC, PID, 0.5, seed=5, setpoint=setpoint)
            assert np.all(r.residual == 0.0), setpoint
            assert r.report.locked

    def test_zero_crossings_sit_at_quadrature(self):
        # Each set point is the zero crossing whose slope the loop expects:
        # under drift the loop holds the residual near 0 there, where a
        # wrong slope sign would push it to the neighbouring quadrature.
        for setpoint in SETPOINTS:
            for seed in range(3):
                r = run_lock(
                    DriftProcess(diffusion=2.0), REF, PID, 0.5, seed=seed, setpoint=setpoint
                )
                assert r.report.locked, (setpoint, seed)
                assert r.report.residual_rms < 0.05
                assert abs(r.residual[len(r.residual) // 2 :].mean()) < 0.05

    def test_contrast_rescaling_preserves_sign_and_zero(self):
        # Rescaling the fringe contrast rescales the error: the zero stays
        # put (exact 0 without drift) and the sign holds (the loop still
        # locks under drift) at every contrast.
        for v in (0.9, 0.45, 0.225, 0.1):
            ref = ReferenceSignal(visibility_min=v, visibility_max=v, dc_min=1.0, dc_max=1.0)
            still = run_lock(DriftProcess(diffusion=0.0), ref, PID, 0.2, seed=5)
            assert np.all(still.residual == 0.0), v
            r = run_lock(DriftProcess(diffusion=2.0), ref, PID, 0.5, seed=5)
            assert r.report.locked and r.report.residual_rms < 0.1, v


class TestRunLock:
    def test_zero_drift_tight_residual(self):
        # Clean reference and no drift: the loop sits exactly still.
        frozen = ReferenceSignal(
            visibility_min=0.55, visibility_max=0.55, dc_min=1.0, dc_max=1.0
        )
        result = run_lock(DriftProcess(diffusion=0.0), frozen, PID, 0.5, seed=5)
        assert result.report.locked
        assert result.report.residual_rms < 1e-6

    def test_zero_drift_speckle_injection_small(self):
        # With the wandering reference the a-c coupled error cannot fully
        # separate power wander from phase; the injected phase noise must
        # stay well inside the residual budget.
        result = run_lock(DriftProcess(diffusion=0.0), REF, PID, 0.5, seed=5)
        assert result.report.residual_rms < 0.03

    def test_zero_gain_reproduces_drift_exactly(self):
        drift = DriftProcess(diffusion=2.0)
        result = run_lock(drift, REF, ZERO_GAIN, 0.5, seed=8)
        assert np.array_equal(result.residual, result.drift)

    def test_default_gains_suppress_random_walk(self):
        drift = DriftProcess(diffusion=3.0)
        ok = 0
        for seed in range(20):
            r = run_lock(drift, REF, PID, 1.0, seed=seed)
            if r.report.residual_rms < 0.1:
                ok += 1
        assert ok >= 19

    def test_out_of_band_drift_not_suppressed(self):
        corner = 2.0 * math.pi * 15_000.0
        sd = 0.1
        fast = DriftProcess(
            model="ou", diffusion=sd * sd * 2.0 * corner, reversion_rate=corner,
            sample_rate=50_000.0,
        )
        r = run_lock(fast, REF, PID, 0.5, seed=4)
        r0 = run_lock(fast, REF, ZERO_GAIN, 0.5, seed=4)
        unlocked = float(np.sqrt(np.mean(r0.residual**2)))
        assert r.report.residual_rms > 0.7 * unlocked

    def test_in_band_drift_is_suppressed(self):
        drift = DriftProcess(diffusion=3.0)
        r = run_lock(drift, REF, PID, 1.0, seed=4)
        r0 = run_lock(drift, REF, ZERO_GAIN, 1.0, seed=4)
        unlocked = float(np.sqrt(np.mean(r0.residual**2)))
        assert r.report.residual_rms < unlocked / 5.0

    def test_saturation_reported(self):
        pid = PidParams(actuator_range=0.5)
        r = run_lock(DriftProcess(diffusion=30.0), REF, pid, 0.5, seed=3)
        assert not r.report.locked
        assert r.report.saturation_fraction > 0.10
        assert "satur" in r.report.diagnostic

    def test_setpoint_duality(self):
        rms_plus, rms_minus = [], []
        for seed in range(12):
            rms_plus.append(
                run_lock(DriftProcess(diffusion=2.0), REF, PID, 0.4, seed=seed,
                         setpoint=math.pi / 4).report.residual_rms
            )
            rms_minus.append(
                run_lock(DriftProcess(diffusion=2.0), REF, PID, 0.4, seed=500 + seed,
                         setpoint=-math.pi / 4).report.residual_rms
            )
        _, p = stats.ks_2samp(rms_plus, rms_minus)
        assert p > 0.01

    def test_setpoint_validation(self):
        with pytest.raises(ConfigurationError):
            run_lock(DriftProcess(), REF, PID, 0.1, seed=1, setpoint=0.3)

    def test_loop_rate_must_match(self):
        with pytest.raises(ConfigurationError):
            run_lock(DriftProcess(sample_rate=10_000.0), REF, PID, 0.1, seed=1)

    def test_pid_validation(self):
        with pytest.raises(ContractViolation):
            PidParams(loop_rate=5000.0, bandwidth=5000.0)
        with pytest.raises(ContractViolation):
            PidParams(actuator_range=0.0)


class TestResidualToVisibility:
    def test_zero_residual(self):
        assert residual_to_visibility(np.zeros(100)) == 1.0

    def test_closed_form(self):
        rng = np.random.default_rng(9)
        trace = rng.normal(0.0, 0.2, 400_000)
        expected = math.exp(-0.5 * float(np.var(trace)))
        assert residual_to_visibility(trace) == pytest.approx(expected, abs=1e-12)
        assert residual_to_visibility(trace) == pytest.approx(0.9802, abs=2e-3)

    def test_mean_offset_ignored(self):
        rng = np.random.default_rng(10)
        trace = rng.normal(0.0, 0.1, 10_000)
        assert residual_to_visibility(trace + 5.0) == pytest.approx(
            residual_to_visibility(trace), abs=1e-12
        )

    def test_pipeline_dephasing_consistency(self):
        # A locked run's residual, applied as a dephasing factor, must
        # reproduce the analytic correlation at that effective visibility.
        from etbell.estimators import estimate_E
        from etbell.photonics import (
            ChannelParams,
            DetectorParams,
            SourceParams,
            simulate_experiment,
        )
        from etbell.tagger import CoincidenceConfig, CountsMatrix, franson_postselect, match
        from etbell.topology import ALICE, BOB, ArmConfig, Geometry
        from etbell import qmodel

        lock = run_lock(DriftProcess(diffusion=3.0), REF, PID, 0.5, seed=33)
        factor = residual_to_visibility(lock.residual[len(lock.residual) // 10 :])
        v_eff = 0.9 * factor

        ch = ChannelParams(loss_a_db=0, loss_b_db=0, coupling_loss_db=0, filter_transmission=1.0)
        det = DetectorParams(efficiency=1.0, dark_rate=0.0, jitter_sigma=0.0, dead_time=0.0)
        arms = ArmConfig()
        src = SourceParams(pair_rate=50_000.0, duration=0.5, seed=44)
        sim = simulate_experiment(Geometry.HUG, "quantum", 0.4, 0.0, src, ch, det, arms, v_eff=v_eff)
        cc = CoincidenceConfig.from_seconds(1e-9, 0.0, 10e-9)
        counts = {}
        for x in (1, 2):
            for y in (1, 2):
                counts[(x, y)] = len(
                    franson_postselect(
                        match(sim.channel(ALICE, x).t_ps, sim.channel(BOB, y).t_ps, cc)
                    ).kept
                )
        est = estimate_E(CountsMatrix(counts[(1, 1)], counts[(1, 2)], counts[(2, 1)], counts[(2, 2)]))
        expected = qmodel.correlation(0.4, 0.0, v_eff)
        assert abs(est.e_hat - expected) < 3.0 * est.std_err
