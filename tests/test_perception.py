import tracemalloc

import numpy as np
import pytest

from bitesim.geometry import Pose
from bitesim.harness import mouth_frame_from_position
from bitesim.humansim import FoodGeometry, FoodPreset, load_food_presets
from bitesim.perception import (Aabb, EmptyCloudError, FoodOffsets, PointCloud,
                                compute_offsets, food_bounding_box, load_cloud,
                                scan_bounding_box, synth_depth_scan, target_pose)
from bitesim.transfer import entry_segment


def cube_preset(size=(10.0, 10.0, 10.0), center=(0.0, 0.0, 0.0)):
    return FoodPreset(
        name="testcube",
        geometry=(FoodGeometry(kind="box", center=np.array(center),
                               size=np.array(size)),),
        shape_class="cube", size_class="small", deformability_class="robust",
        detachment_force=1.0, bite_release_force=0.5)


SCAN_POSE = Pose()


class TestSynthScan:
    def test_cube_bbox_matches_extents(self):
        cloud = synth_depth_scan(cube_preset(), SCAN_POSE, resolution=0.1)
        bbox = food_bounding_box(cloud)
        np.testing.assert_allclose(bbox.min, [-5.0, -5.0, -5.0], atol=0.1)
        np.testing.assert_allclose(bbox.max, [5.0, 5.0, 5.0], atol=0.1)

    def test_deterministic_with_seed(self):
        a = synth_depth_scan(cube_preset(), SCAN_POSE, resolution=0.5, seed=3,
                             noise_mm=0.05)
        b = synth_depth_scan(cube_preset(), SCAN_POSE, resolution=0.5, seed=3,
                             noise_mm=0.05)
        assert np.array_equal(a.points, b.points)

    def test_noise_is_one_seeded_draw_over_the_cloud(self):
        # broccoli at 0.2 mm spans several blocks
        food = load_food_presets()["broccoli"]
        clean = synth_depth_scan(food, SCAN_POSE, resolution=0.2).points
        noisy = synth_depth_scan(food, SCAN_POSE, resolution=0.2, seed=7, noise_mm=0.3)
        ref = clean + np.random.default_rng(7).normal(scale=0.3, size=clean.shape)
        assert noisy.points.tobytes() == ref.tobytes()

    def test_zero_size_geometry_rejected(self):
        with pytest.raises(ValueError):
            FoodGeometry(kind="box", center=np.zeros(3), size=np.zeros(3))

    def test_empty_geometry_is_hard_error(self):
        with pytest.raises(ValueError):
            FoodPreset(name="none", geometry=(), shape_class="cube",
                       size_class="small", deformability_class="robust",
                       detachment_force=1.0, bite_release_force=0.5)

    def test_sphere_extents(self):
        food = FoodPreset(
            name="ball",
            geometry=(FoodGeometry(kind="sphere", center=np.zeros(3), radius=5.0),),
            shape_class="round", size_class="small", deformability_class="robust",
            detachment_force=1.0, bite_release_force=0.5)
        bbox = food_bounding_box(synth_depth_scan(food, SCAN_POSE, resolution=0.2))
        np.testing.assert_allclose(bbox.max - bbox.min, [10.0, 10.0, 10.0], atol=0.4)

    def test_cylinder_extents(self):
        food = FoodPreset(
            name="stick",
            geometry=(FoodGeometry(kind="cylinder", center=np.zeros(3), radius=5.0,
                                   length=40.0, axis="x"),),
            shape_class="cylinder", size_class="large", deformability_class="rigid",
            detachment_force=3.5, bite_release_force=2.5)
        bbox = food_bounding_box(synth_depth_scan(food, SCAN_POSE, resolution=0.2))
        np.testing.assert_allclose(bbox.max - bbox.min, [40.0, 10.0, 10.0], atol=0.4)


def _one_part(**geometry):
    return FoodPreset(
        name="part", geometry=(FoodGeometry(center=np.array([1.5, -2.0, 0.25]), **geometry),),
        shape_class="cube", size_class="small", deformability_class="robust",
        detachment_force=1.0, bite_release_force=0.5)


class TestScanBoundingBox:
    """scan_bounding_box is the box of the whole scan cloud, bit for bit."""

    @staticmethod
    def assert_box_of_cloud(food, **kwargs):
        box = scan_bounding_box(food, **kwargs)
        ref = food_bounding_box(synth_depth_scan(food, SCAN_POSE, **kwargs))
        assert box.min.tobytes() == ref.min.tobytes()
        assert box.max.tobytes() == ref.max.tobytes()

    @pytest.mark.parametrize("food", sorted(load_food_presets()))
    @pytest.mark.parametrize("resolution", [0.1, 0.5])
    def test_bundled_foods(self, food, resolution):
        self.assert_box_of_cloud(load_food_presets()[food], resolution=resolution)

    @pytest.mark.parametrize("food", ["broccoli", "carrot", "tofu"])
    def test_noisy_scan_draws_the_same_noise(self, food):
        self.assert_box_of_cloud(load_food_presets()[food], resolution=0.2, seed=7,
                                 noise_mm=0.3)

    # parts whose faces, sides, caps or latitude rows span several blocks
    @pytest.mark.parametrize("geometry", [
        {"kind": "box", "size": np.array([40.0, 30.0, 50.0])},
        {"kind": "sphere", "radius": 30.0},
        {"kind": "cylinder", "radius": 25.0, "length": 60.0, "axis": "x"},
        {"kind": "cylinder", "radius": 25.0, "length": 60.0, "axis": "y"},
        {"kind": "cylinder", "radius": 25.0, "length": 60.0, "axis": "z"},
    ])
    def test_parts_of_many_blocks(self, geometry):
        self.assert_box_of_cloud(_one_part(**geometry), resolution=0.1)

    def test_bad_resolution_rejected(self):
        with pytest.raises(ValueError, match="resolution"):
            scan_bounding_box(cube_preset(), resolution=0.0)

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            scan_bounding_box(cube_preset(), resolution=0.5, noise_mm=np.inf)

    def test_never_holds_the_cloud(self):
        food = load_food_presets()["broccoli"]
        cloud_bytes = synth_depth_scan(food, SCAN_POSE).points.nbytes
        tracemalloc.start()
        try:
            scan_bounding_box(food)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cloud_bytes / 2


class TestBoundingBox:
    def test_single_point(self):
        bbox = food_bounding_box(PointCloud(np.array([[1.0, 2.0, 3.0]])))
        np.testing.assert_array_equal(bbox.min, [1, 2, 3])
        np.testing.assert_array_equal(bbox.max, [1, 2, 3])

    def test_two_points(self):
        bbox = food_bounding_box(PointCloud(np.array([[-1.0, 0, 0], [1.0, 2, 3]])))
        np.testing.assert_array_equal(bbox.min, [-1, 0, 0])
        np.testing.assert_array_equal(bbox.max, [1, 2, 3])

    def test_matches_bruteforce_two_pass(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-20, 20, size=(10000, 3))
        bbox = food_bounding_box(PointCloud(pts))
        lo = [min(p[i] for p in pts) for i in range(3)]
        hi = [max(p[i] for p in pts) for i in range(3)]
        np.testing.assert_array_equal(bbox.min, lo)
        np.testing.assert_array_equal(bbox.max, hi)

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyCloudError):
            food_bounding_box(PointCloud(np.empty((0, 3))))

    def test_min_le_max_enforced(self):
        with pytest.raises(ValueError):
            Aabb(np.array([1.0, 0, 0]), np.array([0.0, 1, 1]))


class TestComputeOffsets:
    def test_centered_food_dx_zero(self):
        off = compute_offsets(Aabb(np.array([-5.0, 0, 0]), np.array([5.0, 1, 1])))
        assert off.dx == 0.0

    def test_offcenter_dx(self):
        off = compute_offsets(Aabb(np.array([2.0, 0, 0]), np.array([8.0, 1, 1])))
        assert off.dx == -5.0

    def test_dy_from_top_extent(self):
        off = compute_offsets(Aabb(np.array([0.0, 0.0, 0]), np.array([1.0, 10.0, 1])))
        assert off.dy == -10.0

    def test_dy_clamped_when_food_below_tip(self):
        off = compute_offsets(Aabb(np.array([0.0, -4.0, 0]), np.array([1.0, -1.0, 1])))
        assert off.dy == 0.0

    def test_sanity_bound(self):
        with pytest.raises(ValueError):
            compute_offsets(Aabb(np.array([100.0, 0, 0]), np.array([140.0, 1, 1])))

    def test_x_translation_equivariance(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 8, size=(500, 3))
        base = compute_offsets(food_bounding_box(PointCloud(pts)))
        tx = 3.0
        shifted = compute_offsets(food_bounding_box(PointCloud(pts + [tx, 0, 0])))
        assert shifted.dx == pytest.approx(base.dx - tx, abs=1e-12)
        assert shifted.dy == base.dy

    def test_point_order_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-5, 5, size=(200, 3))
        a = compute_offsets(food_bounding_box(PointCloud(pts)))
        b = compute_offsets(food_bounding_box(PointCloud(pts[::-1])))
        assert a == b

    def test_pipeline_centered_cube_exact_zero(self):
        cloud = synth_depth_scan(cube_preset(), SCAN_POSE, resolution=0.1)
        off = compute_offsets(food_bounding_box(cloud))
        assert off.dx == 0.0


class TestTargetPose:
    def test_zero_offsets_keep_center(self):
        mouth = mouth_frame_from_position([0.55, 0, 0.45])
        tp = target_pose(mouth, FoodOffsets(0.0, 0.0))
        np.testing.assert_allclose(tp.position, mouth.position, atol=1e-15)

    def test_dx_shifts_along_lips(self):
        mouth = mouth_frame_from_position([0.55, 0, 0.45])
        tp = target_pose(mouth, FoodOffsets(-5.0, 0.0))
        np.testing.assert_allclose(tp.position,
                                   mouth.position - 0.005 * mouth.x_axis, atol=1e-12)

    def test_compose_with_entry_segment(self):
        mouth = mouth_frame_from_position([0.55, 0, 0.45])
        off = FoodOffsets(-5.0, -10.0)
        tp = target_pose(mouth, off)
        seg = entry_segment(tp, mouth, entry_depth=0.018, lowering=0.003)
        expected = (mouth.position - 0.005 * mouth.x_axis - 0.010 * mouth.y_axis
                    - 0.018 * mouth.z_axis - 0.003 * mouth.y_axis)
        assert np.linalg.norm(seg.end_pose.position - expected) < 1e-12

    def test_offset_sanity_enforced_at_construction(self):
        with pytest.raises(ValueError):
            FoodOffsets(60.0, 0.0)


class TestCloudIO:
    def test_save_load_roundtrip(self, tmp_path):
        pts = np.random.default_rng(3).uniform(-5, 5, (50, 3))
        path = tmp_path / "cloud.csv"
        path.write_text("# frame=mouth resolution_mm=0.2\nx_mm,y_mm,z_mm\n"
                        + "".join("%.17g,%.17g,%.17g\n" % tuple(p) for p in pts))
        assert load_cloud(path).points.tobytes() == pts.tobytes()

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_cloud(path)
