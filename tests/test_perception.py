import numpy as np
import pytest

from bitesim.geometry import Pose
from bitesim.harness import mouth_frame_from_position
from bitesim.humansim import FoodGeometry, FoodPreset
from bitesim.perception import (Aabb, EmptyCloudError, FoodOffsets, PointCloud,
                                compute_offsets, food_bounding_box, load_cloud, save_cloud,
                                synth_depth_scan, target_pose)
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

    def test_invalid_entry_depth(self):
        mouth = mouth_frame_from_position([0.55, 0, 0.45])
        with pytest.raises(ValueError):
            target_pose(mouth, FoodOffsets(0, 0), entry_depth=0.0)

    def test_offset_sanity_enforced_at_construction(self):
        with pytest.raises(ValueError):
            FoodOffsets(60.0, 0.0)


class TestCloudIO:
    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-5, 5, (50, 3)), resolution=0.2)
        path = tmp_path / "cloud.csv"
        save_cloud(cloud, path)
        loaded = load_cloud(path)
        assert loaded.frame == "mouth"
        assert loaded.resolution == 0.2
        np.testing.assert_allclose(loaded.points, cloud.points, atol=1e-6)

    def test_header_line(self, tmp_path):
        cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]), resolution=0.1)
        path = tmp_path / "cloud.csv"
        save_cloud(cloud, path)
        first = path.read_text().splitlines()[0]
        assert first == "# frame=mouth resolution_mm=0.1"

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            load_cloud(path)
