import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitesim.geometry import Pose, quat_to_matrix
from bitesim.harness import mouth_frame_from_position
from bitesim.humansim import (CAVITY_DEPTH, LIP_MARGIN, BiteScript, FoodAttachmentState,
                              MouthModel, bite_force, contact_force, load_food_presets,
                              perturbation_trace)

DEFAULT_CENTER = [0.55, 0.0, 0.45]
MOUTH_FRAME = mouth_frame_from_position(DEFAULT_CENTER)


def make_mouth(**kw):
    return MouthModel(center=MOUTH_FRAME, **kw)


def tip_at(y_m=0.0, x_m=0.0, z_m=-0.01):
    p = (MOUTH_FRAME.position + x_m * MOUTH_FRAME.x_axis
         + y_m * MOUTH_FRAME.y_axis + z_m * MOUTH_FRAME.z_axis)
    return Pose(p, MOUTH_FRAME.orientation)


class TestContactForce:
    def test_outside_mouth_zero(self):
        mouth = make_mouth()
        far = Pose(MOUTH_FRAME.position + 0.2 * MOUTH_FRAME.z_axis)
        w = contact_force(far, np.zeros(6), mouth)
        assert np.all(w.force == 0) and np.all(w.torque == 0)

    def test_lower_plane_spring_law(self):
        mouth = make_mouth(stiffness=1000.0, damping=0.0)
        # 1 mm through the lower plane (aperture 30 mm -> plane at -15 mm)
        w = contact_force(tip_at(y_m=-0.016), np.zeros(6), mouth)
        np.testing.assert_allclose(w.force, 1.0 * MOUTH_FRAME.y_axis, atol=1e-12)
        assert np.all(w.torque == 0)

    def test_upper_plane_pushes_down(self):
        mouth = make_mouth(stiffness=1000.0, damping=0.0)
        w = contact_force(tip_at(y_m=0.017), np.zeros(6), mouth)
        np.testing.assert_allclose(w.force, -2.0 * MOUTH_FRAME.y_axis, atol=1e-12)

    def test_continuous_at_zero_penetration(self):
        mouth = make_mouth()
        just_out = contact_force(tip_at(y_m=-0.0149999), np.zeros(6), mouth)
        just_in = contact_force(tip_at(y_m=-0.0150001), np.zeros(6), mouth)
        assert np.linalg.norm(just_out.force) < 1e-3
        assert np.linalg.norm(just_in.force) < 1e-3

    def test_damping_adds_with_approach_velocity(self):
        mouth = make_mouth(stiffness=1000.0, damping=10.0)
        v = np.zeros(6)
        v[:3] = -0.05 * MOUTH_FRAME.y_axis  # moving down into the lower plane
        w = contact_force(tip_at(y_m=-0.016), v, mouth)
        expected = (1000.0 * 0.001 + 10.0 * 0.05)
        np.testing.assert_allclose(w.force, expected * MOUTH_FRAME.y_axis, atol=1e-12)

    def test_no_adhesion_when_receding(self):
        mouth = make_mouth(stiffness=100.0, damping=50.0)
        v = np.zeros(6)
        v[:3] = 0.5 * MOUTH_FRAME.y_axis  # retreating fast
        w = contact_force(tip_at(y_m=-0.016), v, mouth)
        assert np.all(w.force @ MOUTH_FRAME.y_axis >= 0)
        np.testing.assert_allclose(np.linalg.norm(w.force), 0.0, atol=1e-12)

    def test_lateral_walls(self):
        mouth = make_mouth(stiffness=1000.0, damping=0.0)
        w = contact_force(tip_at(x_m=0.026), np.zeros(6), mouth)
        np.testing.assert_allclose(w.force, -1.0 * MOUTH_FRAME.x_axis, atol=1e-12)

    def test_gate_behind_cavity(self):
        mouth = make_mouth()
        w = contact_force(tip_at(y_m=-0.02, z_m=-0.2), np.zeros(6), mouth)
        assert np.all(w.force == 0)


@settings(max_examples=400, deadline=None)
@given(q=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda q: sum(x * x for x in q) > 0.01),
       local=st.tuples(st.floats(-0.08, 0.08), st.floats(-0.08, 0.08), st.floats(-0.08, 0.03)),
       velocity=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6),
       aperture=st.floats(0.005, 0.08), lateral=st.floats(0.005, 0.06),
       stiffness=st.floats(0.0, 5000.0), damping=st.floats(0.0, 100.0))
def test_contact_force_gated_and_never_adhesive(q, local, velocity, aperture, lateral,
                                                stiffness, damping):
    # the kernel takes a tick without contact, bite or disturbance for a
    # force-free one: outside the lip/cavity gate, and inside it between
    # the planes, the force must be exactly +0.0 on every axis
    center = Pose(np.array(DEFAULT_CENTER), np.array(q))
    mouth = MouthModel(center=center, aperture=aperture, stiffness=stiffness,
                       damping=damping, lateral_halfwidth=lateral)
    rot = quat_to_matrix(center.orientation)
    tip = center.position + rot @ np.array(local)
    w = contact_force(Pose(tip, center.orientation), np.array(velocity), mouth)
    assert w.torque.tobytes() == np.zeros(3).tobytes()
    # the mouth-frame coordinates as contact_force computes them
    r = tip - center.position
    x_m, y_m, z_m = (float(r @ rot[:, k]) for k in range(3))
    half = aperture / 2.0
    if (z_m > LIP_MARGIN or z_m < -CAVITY_DEPTH
            or (-half <= y_m <= half and -lateral <= x_m <= lateral)):
        assert w.force.tobytes() == np.zeros(3).tobytes()
        return
    # never adhesive: along each penetrated plane's inward normal the
    # force pushes the fork out or is zero, and it has no other part
    f_x, f_y, f_z = (float(w.force @ rot[:, k]) for k in range(3))
    tol = 1e-12 * (1.0 + float(np.linalg.norm(w.force)))
    assert f_y >= -tol if y_m < -half else f_y <= tol if y_m > half else abs(f_y) <= tol
    assert f_x <= tol if x_m > lateral else f_x >= -tol if x_m < -lateral else abs(f_x) <= tol
    assert abs(f_z) <= tol


class TestBiteForce:
    def test_zero_before_bite(self):
        s = BiteScript(t_bite=0.5, peak_force=1.0, ramp=0.2)
        assert np.all(bite_force(s, 0.49).force == 0)

    def test_ramp_midpoint(self):
        s = BiteScript(t_bite=0.5, peak_force=1.0, ramp=0.2)
        w = bite_force(s, 0.6)
        assert np.linalg.norm(w.force) == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(w.force, [0.0, -0.5, 0.0], atol=1e-12)

    def test_held_at_peak(self):
        s = BiteScript(t_bite=0.5, peak_force=1.0, ramp=0.2)
        w = bite_force(s, 5.0)
        assert np.linalg.norm(w.force) == pytest.approx(1.0, abs=1e-12)

    def test_refuse_never_bites(self):
        s = BiteScript(refuse=True, peak_force=2.0)
        for t in (0.0, 1.0, 10.0):
            assert np.all(bite_force(s, t).force == 0)

    def test_instant_ramp(self):
        s = BiteScript(t_bite=0.5, peak_force=1.0, ramp=0.0)
        assert np.linalg.norm(bite_force(s, 0.5).force) == pytest.approx(1.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            bite_force(BiteScript(), -0.1)


@pytest.fixture(scope="module")
def foods():
    return load_food_presets()


class TestFoodAttachment:
    def test_zero_shear_attached(self, foods):
        assert not FoodAttachmentState(foods["cheesecake"]).update(0.0, t=0.0)

    def test_fragile_detaches(self, foods):
        assert foods["cheesecake"].detachment_force == 0.5
        assert FoodAttachmentState(foods["cheesecake"]).update(0.6, t=0.0)

    def test_rigid_needs_more(self, foods):
        carrot = foods["carrot"]
        assert carrot.deformability_class == "rigid"
        assert not FoodAttachmentState(carrot).update(0.6, t=0.0)
        assert FoodAttachmentState(carrot).update(3.6, t=0.0)

    def test_latch_stays_detached(self, foods):
        st = FoodAttachmentState(foods["cheesecake"])
        assert not st.update(0.1, t=0.0)
        assert st.update(0.9, t=1.0)
        assert st.update(0.0, t=2.0)
        assert st.detach_time == 1.0

    def test_no_spontaneous_detach(self, foods):
        st = FoodAttachmentState(foods["tofu"])
        for i in range(1000):
            assert not st.update(0.0, t=i * 0.001)

    def test_bite_release_threshold(self, foods):
        st = FoodAttachmentState(foods["blueberry"])  # release 0.8
        assert not st.update(0.7, t=0.0, bite_engaged=True)
        assert st.update(0.9, t=0.1, bite_engaged=True)
        assert st.taken_by_bite


class TestFoodPresets:
    def test_eight_named_presets(self):
        foods = load_food_presets()
        assert set(foods) == {"carrot", "strawberry", "blueberry", "pineapple",
                              "cherry_tomato", "broccoli", "cheesecake", "tofu"}

    def test_each_call_returns_a_new_dict(self):
        first = load_food_presets()
        first.pop("carrot")
        first["tofu"] = first["cheesecake"]
        again = load_food_presets()
        assert again is not first
        assert "carrot" in again and again["tofu"].name == "tofu"

    def test_taxonomy_classes(self):
        foods = load_food_presets()
        assert foods["carrot"].shape_class == "cylinder"
        assert foods["carrot"].size_class == "large"
        assert foods["carrot"].deformability_class == "rigid"
        assert foods["blueberry"].size_class == "small"
        assert foods["cheesecake"].deformability_class == "fragile"
        assert foods["broccoli"].shape_class == "irregular"


class TestHeadPerturbation:
    def test_none_is_identity(self):
        assert np.all(perturbation_trace("none", {}, 7301, 0.001) == 0)

    def test_sinusoid_quarter_period(self):
        trace = perturbation_trace("sinusoid", {"amplitude": 0.005, "period": 2.0}, 501, 0.001)
        assert np.linalg.norm(trace[500]) == pytest.approx(0.005, abs=1e-12)

    def test_random_walk_reproducible(self):
        params = {"sigma": 0.002, "amplitude": 0.01}
        a = perturbation_trace("random-walk", params, 251, 0.001, seed=9)
        b = perturbation_trace("random-walk", params, 251, 0.001, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            perturbation_trace("sinusoid", {"amplitude": 0.05, "period": 1.0}, 100, 0.001)

    def test_walk_stays_within_amplitude(self):
        trace = perturbation_trace("random-walk",
                                   {"sigma": 0.01, "amplitude": 0.01}, 5000, 0.001, 3)
        assert np.abs(trace).max() <= 0.01 + 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            perturbation_trace("jitterbug", {}, 1, 0.001)
