"""Bundled gain presets, the default trial scenario, and the default
wrist-study configuration.

Gain presets: ``ours`` switches from high entry gains to reduced gains
along the exit direction after the bite; ``less_reactive`` and
``more_reactive`` run one constant gain set throughout; ``fixed_pose``
holds the fork outside the mouth and lets the scripted user approach.
"""

from __future__ import annotations


from .controller import (ENTRY_KP, ENTRY_KI, EXIT_KP, EXIT_KI)

GAIN_PRESETS: dict[str, dict] = {
    "ours": {
        "entry_gains": {"k_p": [ENTRY_KP] * 3 + [0.0] * 3,
                        "k_i": [ENTRY_KI] * 3 + [0.0] * 3},
        "exit_gains": {"k_p": [EXIT_KP] * 3 + [0.0] * 3,
                       "k_i": [EXIT_KI] * 3 + [0.0] * 3},
    },
    "less_reactive": {
        "entry_gains": {"k_p": [2.0] * 3 + [0.0] * 3, "k_i": [2.0] * 3 + [0.0] * 3},
        "exit_gains": {"k_p": [2.0] * 3 + [0.0] * 3, "k_i": [2.0] * 3 + [0.0] * 3},
    },
    "more_reactive": {
        "entry_gains": {"k_p": [10.0] * 3 + [0.0] * 3, "k_i": [30.0] * 3 + [0.0] * 3},
        "exit_gains": {"k_p": [10.0] * 3 + [0.0] * 3, "k_i": [30.0] * 3 + [0.0] * 3},
    },
    "non_reactive": {
        "entry_gains": {"k_p": [0.0] * 6, "k_i": [0.0] * 6},
        "exit_gains": {"k_p": [0.0] * 6, "k_i": [0.0] * 6},
    },
}

# elbow-low posture reaching the default pre-mouth pose; shared study home
STUDY_HOME = [1.3015, -1.6316, -1.4904, -2.7171, 2.7021, 2.2326, 0.2429]

DEFAULT_MOUTH_POSITION = [0.55, 0.0, 0.45]


def default_scenario_dict(name: str = "nominal") -> dict:
    """Nominal in-mouth trial: pineapple cube, bite 0.5 s into the wait.

    Large foods (strawberry, broccoli) nearly fill the default 30 mm
    aperture once the food offset lowers the fork, so the tip starts in
    contact with the lower teeth; widen the aperture for those.
    """
    return {
        "name": name,
        "seed": 12345,
        "chain": "panda_wrist_9dof",
        "food": "pineapple",
        "transfer_mode": "in_mouth",
        "gain_preset": "ours",
        "mouth": {
            "center_position": DEFAULT_MOUTH_POSITION,
            "aperture_m": 0.030,
            "stiffness": 1000.0,
            "damping": 10.0,
            "lateral_halfwidth_m": 0.025,
        },
        "mouth_error_mm": [0.0, 0.0, 0.0],
        "bite": {"t_bite_s": 0.5, "peak_force_n": 1.0, "ramp_s": 0.2, "refuse": False},
        "head_perturbation": {"kind": "none"},
        "disturbance": {"kind": "none"},
        "impedance": {
            "stiffness": [200.0, 200.0, 200.0, 10.0, 10.0, 10.0],
            "damping": None,  # critically damped for the virtual mass
        },
        "virtual_mass": [2.0, 2.0, 2.0, 0.02, 0.02, 0.02],
        "safety_limit_n": 3.0,
        "safety_mode": "component",
        "integral_cap_n": 10.0,
        "lowpass_cutoff_hz": 0.0,
        "segments": {"arc_s": 6.0, "entry_s": 2.0, "exit_s": 2.0, "retract_s": 6.0,
                     "scan_s": 0.0, "face_detect_s": 0.0},
        "arc_radius_m": 0.45,
        "arc_start_deg": 90.0,
        "entry_depth_m": 0.018,
        "lowering_m": 0.003,
        "fork_pitch_deg": 25.0,
        "bite_threshold_n": 0.3,
        "bite_timeout_s": 1.5,
        "horizon_s": 10.0,
        "joint_log_stride": 100,
        "scan": {"resolution_mm": 0.1, "noise_mm": 0.0},
    }


def default_study_dict() -> dict:
    """Default 10,000-pose wrist study around the pre-mouth pose."""
    return {
        "chain_with": "panda_wrist_9dof",
        "chain_without": "panda_7dof",
        "count": 10000,
        "seed": 2024,
        "mouth_position": DEFAULT_MOUTH_POSITION,
        "translation_halfwidth_m": 0.10,
        "rotation_halfwidth_deg": 30.0,
        "home": STUDY_HOME,
        "comfort": {
            # head sits behind the lips at eye height; the cone looks
            # out over the approaching arm
            "head_offset_back_m": 0.10,
            "head_offset_up_m": 0.12,
            "half_angle_deg": 30.0,
            "length_m": 0.8,
            "weight": 1.0,
        },
        "ik": {"damping": 0.02, "pos_tol": 1e-3, "rot_tol": 1e-2, "max_iter": 200},
    }


def scenario_preset_names() -> list[str]:
    return list(GAIN_PRESETS)
