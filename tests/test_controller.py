import numpy as np
import pytest

from bitesim.controller import (ControllerState, ImpedanceParams, ReactivityGains,
                                SafetyLatch, SensorFault, Wrench, desired_wrench,
                                phase_gains, reactive_term, safety_check)
from bitesim.transfer import TransferPhase


def entry_gains():
    return ReactivityGains.from_vectors([7, 7, 7, 0, 0, 0], [20, 20, 20, 0, 0, 0])


def run_constant_force(state, force, ticks, dt=0.001):
    out = None
    f = Wrench(np.asarray(force, dtype=float))
    for _ in range(ticks):
        out, state = reactive_term(state, f, dt)
    return out, state


class TestWrench:
    def test_zero_identity(self):
        w = Wrench(np.array([1.0, -2.0, 3.0]), np.array([0.1, 0.2, 0.3]))
        same = w + Wrench.zero()
        np.testing.assert_array_equal(same.force, w.force)
        np.testing.assert_array_equal(same.torque, w.torque)

    def test_add_neg(self):
        w = Wrench(np.array([1.0, 2.0, 3.0]))
        z = w + Wrench(-w.force, -w.torque)
        assert np.all(z.force == 0) and np.all(z.torque == 0)

    def test_vector_roundtrip(self):
        v = np.arange(6.0)
        np.testing.assert_array_equal(Wrench(v[:3], v[3:]).as_vector(), v)


class TestDesiredWrench:
    def test_zero_errors(self):
        p = ImpedanceParams.default()
        w = desired_wrench(p, np.zeros(6), np.zeros(6))
        assert np.all(w.force == 0) and np.all(w.torque == 0)

    def test_stiffness_term(self):
        p = ImpedanceParams(np.array([100.0, 0, 0, 0, 0, 0]),
                            np.array([1.0, 0, 0, 0, 0, 0]))
        w = desired_wrench(p, np.array([0.01, 0, 0, 0, 0, 0]), np.zeros(6))
        np.testing.assert_allclose(w.force, [1.0, 0, 0], atol=1e-15)

    def test_damping_term(self):
        p = ImpedanceParams(np.array([0, 0, 0, 0, 0, 0.0]),
                            np.array([0, 10.0, 0, 0, 0, 0]))
        w = desired_wrench(p, np.zeros(6), np.array([0, 0.2, 0, 0, 0, 0]))
        np.testing.assert_allclose(w.force, [0, 2.0, 0], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            desired_wrench(ImpedanceParams.default(),
                           np.array([np.inf, 0, 0, 0, 0, 0]), np.zeros(6))

    def test_stiff_axis_needs_damping(self):
        with pytest.raises(ValueError):
            ImpedanceParams(np.array([100.0, 0, 0, 0, 0, 0]), np.zeros(6))


class TestReactiveTerm:
    def test_constant_force_closed_form(self):
        # 0.1 N for 0.5 s: p-term 0.7 plus integral 20 * 0.05
        state = ControllerState(gains=entry_gains())
        out, _ = run_constant_force(state, [0.0, 0.1, 0.0], 500)
        assert abs(out.force[1] - 1.7) < 1e-9

    def test_zero_input_stays_zero(self):
        state = ControllerState(gains=entry_gains())
        out, state = run_constant_force(state, [0.0, 0.0, 0.0], 100)
        assert np.all(out.force == 0)
        assert np.all(state.integral == 0)

    def test_torque_input_ignored_with_zero_torque_gains(self):
        state = ControllerState(gains=entry_gains())
        f = Wrench(np.zeros(3), np.array([1.0, 2.0, 3.0]))
        out, _ = reactive_term(state, f, 0.001)
        assert np.all(out.torque == 0)

    def test_sensor_fault(self):
        state = ControllerState(gains=entry_gains())
        with pytest.raises(SensorFault):
            reactive_term(state, Wrench(np.array([np.nan, 0, 0])), 0.001)

    def test_dt_mismatch(self):
        state = ControllerState(gains=entry_gains())
        with pytest.raises(ValueError):
            reactive_term(state, Wrench.zero(), 0.002)

    def test_linear_in_force_history(self):
        rng = np.random.default_rng(0)
        trace = rng.standard_normal((200, 3)) * 0.2
        for c in (2.0, -0.5):
            s1 = ControllerState(gains=entry_gains())
            s2 = ControllerState(gains=entry_gains())
            for f in trace:
                out1, s1 = reactive_term(s1, Wrench(f), 0.001)
                out2, s2 = reactive_term(s2, Wrench(c * f), 0.001)
            np.testing.assert_allclose(c * out1.force, out2.force, atol=1e-9)

    def test_steady_state_gain_ratios(self):
        # identical constant force along the exit axis in both phases
        axis = np.array([0.0, 0.0, 1.0])
        entry = phase_gains(TransferPhase.ENTRY, axis)
        exit_ = phase_gains(TransferPhase.EXIT, axis)
        f = Wrench(np.array([0.0, 0.0, 0.4]))
        p_entry = entry.p_force @ f.force
        p_exit = exit_.p_force @ f.force
        assert p_exit[2] / p_entry[2] == pytest.approx(2.0 / 7.0, abs=1e-12)
        # integral growth per tick is k_i * f * dt
        i_entry = entry.i_force @ (f.force * 0.001)
        i_exit = exit_.i_force @ (f.force * 0.001)
        assert i_exit[2] / i_entry[2] == pytest.approx(1.0 / 20.0, abs=1e-12)

    def test_anti_windup_cap(self):
        state = ControllerState(gains=entry_gains(), integral_cap=10.0)
        out, state = run_constant_force(state, [5.0, 0, 0], 5000)  # 5 N for 5 s
        integral_part = state.gains.i_force @ state.integral[:3]
        assert abs(integral_part[0]) <= 10.0 + 1e-9
        assert abs(out.force[0] - (7 * 5.0 + 10.0)) < 1e-9

    def test_zero_reactivity_reduces_to_impedance(self):
        # zero gains give a zero correction, leaving the impedance wrench alone
        rng = np.random.default_rng(3)
        state = ControllerState(gains=ReactivityGains.from_vectors(np.zeros(6), np.zeros(6)))
        for _ in range(50):
            f = Wrench(rng.standard_normal(3), rng.standard_normal(3))
            fb, state = reactive_term(state, f, 0.001)
            assert np.all(fb.force == 0) and np.all(fb.torque == 0)

    @pytest.mark.parametrize("cap", [0.0, -1.0, np.nan, np.inf])
    def test_integral_cap_must_be_finite_positive(self, cap):
        with pytest.raises(ValueError, match="integral cap"):
            ControllerState(gains=entry_gains(), integral_cap=cap)


class TestPhaseGains:
    def test_retract_uses_exit_gains(self):
        g = phase_gains(TransferPhase.RETRACT_ARC, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(g.k_p[:3], [7, 7, 2], atol=1e-12)

    def test_tilted_axis_projection(self):
        axis = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        g = phase_gains(TransferPhase.EXIT, axis)
        along = g.p_force @ axis
        np.testing.assert_allclose(along, 2.0 * axis, atol=1e-12)
        ortho = np.array([1.0, -1.0, 0.0]) / np.sqrt(2)
        np.testing.assert_allclose(g.p_force @ ortho, 7.0 * ortho, atol=1e-12)
        np.testing.assert_allclose(g.i_force @ axis, 1.0 * axis, atol=1e-12)
        np.testing.assert_allclose(g.i_force @ ortho, 20.0 * ortho, atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            phase_gains(TransferPhase.EXIT, [0.0, 0.0, 2.0])

    def test_negative_gains_rejected(self):
        with pytest.raises(ValueError):
            ReactivityGains.from_vectors([-1, 0, 0, 0, 0, 0], np.zeros(6))


class TestSafety:
    def test_abort_above_limit(self):
        assert safety_check(Wrench(np.array([0, 0, 3.1])), 3.0)

    def test_ok_at_zero(self):
        assert not safety_check(Wrench.zero(), 3.0)

    def test_strict_inequality_at_boundary(self):
        assert not safety_check(Wrench(np.array([0, 3.0, 0])), 3.0)

    def test_norm_mode(self):
        w = Wrench(np.array([2.0, 2.0, 2.0]))
        assert not safety_check(w, 3.0, mode="component")
        assert safety_check(w, 3.0, mode="norm")

    def test_latching(self):
        latch = SafetyLatch(3.0)
        assert not latch.update(Wrench.zero())
        assert latch.update(Wrench(np.array([4.0, 0, 0])))
        assert latch.update(Wrench.zero())  # stays tripped

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            safety_check(Wrench.zero(), 0.0)
