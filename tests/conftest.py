import numpy as np
import pytest

from bitesim.geometry import Pose
from bitesim.kinematics import ChainModel, JointSpec, bundled_chain


@pytest.fixture(scope="session")
def chain7():
    return bundled_chain("panda_7dof")


@pytest.fixture(scope="session")
def chain9():
    return bundled_chain("panda_wrist_9dof")


def make_planar_chain(l1=1.0, l2=1.0, tool=1.0, limits=(-np.pi, np.pi)):
    """Two revolute z-joints in the xy plane; tip `tool` past joint 2."""
    joints = [
        JointSpec(offset=Pose(), axis=np.array([0.0, 0.0, 1.0]), limits=limits),
        JointSpec(offset=Pose(np.array([l1, 0.0, 0.0]), np.array([1.0, 0, 0, 0])),
                  axis=np.array([0.0, 0.0, 1.0]), limits=limits),
    ]
    tool_tip = Pose(np.array([tool, 0.0, 0.0]), np.array([1.0, 0, 0, 0]))
    return ChainModel("planar2", joints, tool_tip)


@pytest.fixture
def planar_chain():
    return make_planar_chain()


def quat_chord(a, b) -> float:
    """Chordal distance between the rotations of unit quaternions a and b,
    whichever sign each carries."""
    return float(min(np.linalg.norm(a - b), np.linalg.norm(a + b)))


def random_pose(rng, scale=1.0):
    q = rng.standard_normal(4)
    return Pose(rng.uniform(-scale, scale, 3), q / np.linalg.norm(q))
