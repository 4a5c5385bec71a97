"""Built-in scenario library.

One entry per experimental condition: seated subjects at 1-4 m with/without
thick clothing, breath holding, intermittent breathing, desk motion, lying
under a blanket, rotation angles, standing, walking, non-line-of-sight, and
multi-person rooms. Clothing and blankets enter as return-amplitude deltas;
NLOS enters as extra path loss, a matching SNR drop (the receiver noise floor
does not move with the obstacle) and a diluted motion-to-path coupling from
the indirect geometry.
"""
from __future__ import annotations

import copy

from .config import ConfigError, Scenario, validate_scenario

_BASE_ANALYSIS = {
    "br_band_hz": [0.15, 0.5],
    "hr_band_hz": [0.8, 2.0],
    "subcarrier_counts": [10, 40, 1024],
}

# accuracy scenarios use clean breathing (no harmonics): a 3rd harmonic above
# ~2% of a 6 mm fundamental already outweighs the sub-mm heart line in-band
_CLEAN = {"breathing_harmonic_weights": []}


def _sitting(scenario_id, range_m, *, seed, br_bpm=16.0, hr_bpm=73.0, extra_loss_db=0.0,
             description=""):
    return {
        "scenario_id": scenario_id,
        "description": description or f"Person sitting still, facing the radar at {range_m} m",
        "seed": seed,
        "duration_s": 40.0,
        "frame_rate_hz": 50.0,
        "scene": {
            "snr_db": 20.0,
            "targets": [
                {
                    "rest_range_m": range_m,
                    "reflectivity": 0.67,
                    "nlos_attenuation_db": extra_loss_db,
                    "vitals": {
                        "breathing_rate_hz": br_bpm / 60.0,
                        "breathing_amplitude_m": 6e-3,
                        "heart_rate_hz": hr_bpm / 60.0,
                        "heart_amplitude_m": 0.35e-3,
                        **_CLEAN,
                    },
                }
            ],
        },
        "analysis": dict(_BASE_ANALYSIS),
    }


def _angle(angle_deg, *, seed):
    cfg = _sitting(
        f"angle_{'m' if angle_deg < 0 else ''}{abs(angle_deg)}",
        2.0,
        seed=seed,
        br_bpm=17.0,
        hr_bpm=75.0,
        description=f"Person on a chair rotated {angle_deg} deg from boresight at 2 m",
    )
    cfg["scene"]["targets"][0]["vitals"]["projection_angle_deg"] = float(angle_deg)
    return cfg


def _person(range_m, br_bpm, hr_bpm, breathing_m=6e-3, heart_m=0.35e-3, **extra):
    vitals = {
        "breathing_rate_hz": br_bpm / 60.0,
        "breathing_amplitude_m": breathing_m,
        "heart_rate_hz": hr_bpm / 60.0,
        "heart_amplitude_m": heart_m,
        **_CLEAN,
    }
    vitals.update(extra.pop("vitals", {}))
    return {"rest_range_m": range_m, "reflectivity": 0.67, "vitals": vitals, **extra}


def _build_library() -> dict:
    lib = {}

    for i, r in enumerate((1.0, 2.0, 3.0, 4.0)):
        lib[f"sitting_still_{int(r)}m"] = _sitting(f"sitting_still_{int(r)}m", r, seed=11 + i)
    sweat2 = _sitting("sitting_still_2m_sweatshirt", 2.0, seed=15, extra_loss_db=3.0,
                      description="Person at 2 m wearing a thick sweatshirt")
    lib["sitting_still_2m_sweatshirt"] = sweat2
    sweat4 = _sitting("sitting_still_4m_sweatshirt", 4.0, seed=16, extra_loss_db=3.0,
                      br_bpm=16.0, hr_bpm=71.0,
                      description="Person at 4 m wearing a thick sweatshirt")
    lib["sitting_still_4m_sweatshirt"] = sweat4

    hold = _sitting("holding_breath", 2.0, seed=21, br_bpm=16.0, hr_bpm=74.0,
                    description="Person holding their breath for the whole record")
    hold["scene"]["targets"][0]["vitals"]["breathing_amplitude_m"] = 0.0
    lib["holding_breath"] = hold

    inter = _sitting("intermittent_breathing", 1.5, seed=22, br_bpm=20.0, hr_bpm=73.0,
                     description="Person at a desk periodically holding their breath")
    inter["scene"]["targets"][0]["schedule"] = [
        {"start_s": 0.0, "end_s": 10.0, "label": "normal"},
        {"start_s": 10.0, "end_s": 15.0, "label": "breath_hold"},
        {"start_s": 15.0, "end_s": 25.0, "label": "normal"},
        {"start_s": 25.0, "end_s": 30.0, "label": "breath_hold"},
        {"start_s": 30.0, "end_s": None, "label": "normal"},
    ]
    lib["intermittent_breathing"] = inter

    desk = _sitting("desk_moving", 1.5, seed=23, br_bpm=15.0, hr_bpm=72.0,
                    description="Person reading at a desk, moving head and arms")
    desk["scene"]["targets"][0]["vitals"]["sway_rms_m"] = 2e-3
    desk["scene"]["targets"][0]["schedule"] = [{"start_s": 0.0, "end_s": None, "label": "moving"}]
    lib["desk_moving"] = desk

    lying = _sitting("lying_tshirt", 1.2, seed=24, br_bpm=14.0, hr_bpm=59.0,
                     description="Person lying down, radar above, T-shirt only")
    lib["lying_tshirt"] = lying
    blanket = _sitting("lying_blanket", 1.2, seed=25, br_bpm=14.0, hr_bpm=56.0,
                       extra_loss_db=6.0,
                       description="Person lying down under a sweatshirt and thick blanket")
    lib["lying_blanket"] = blanket

    for i, angle in enumerate((0, 30, 60, 90, -30, -60, -90, -180)):
        cfg = _angle(angle, seed=31 + i)
        lib[cfg["scenario_id"]] = cfg

    standing = _sitting("standing_still", 2.0, seed=41, br_bpm=15.0, hr_bpm=70.0,
                        description="Person standing completely still at 2 m")
    lib["standing_still"] = standing
    standing_moving = _sitting("standing_moving", 2.0, seed=42, br_bpm=15.0, hr_bpm=70.0,
                               description="Person standing with small natural gestures")
    standing_moving["scene"]["targets"][0]["vitals"]["sway_rms_m"] = 3e-3
    standing_moving["scene"]["targets"][0]["schedule"] = [
        {"start_s": 0.0, "end_s": None, "label": "moving"}
    ]
    lib["standing_moving"] = standing_moving

    nlos = _sitting("nlos", 2.5, seed=51, br_bpm=17.0, hr_bpm=74.0,
                    description="Person standing behind an obstacle (no line of sight)")
    nlos_target = nlos["scene"]["targets"][0]
    nlos_target["nlos_attenuation_db"] = 15.0
    # obstructed path: fixed noise floor means the 15 dB loss lands on the SNR,
    # and the indirect geometry couples chest motion weakly into path length
    nlos["scene"]["snr_db"] = 5.0
    nlos_target["vitals"]["projection_angle_deg"] = 85.0
    lib["nlos"] = nlos

    lib["two_persons"] = {
        "scenario_id": "two_persons",
        "description": "Two persons seated at 1.6 m and 3.44 m, both facing the radar",
        "seed": 61,
        "duration_s": 40.0,
        "frame_rate_hz": 50.0,
        "scene": {
            "snr_db": 20.0,
            "targets": [
                _person(1.6, 16.0, 74.0),
                _person(3.44, 19.0, 87.0),
            ],
        },
        "analysis": dict(_BASE_ANALYSIS),
    }

    lib["three_persons"] = {
        "scenario_id": "three_persons",
        "description": "Three persons at 1.6 m, 2.5 m and 3.44 m for bandwidth studies",
        "seed": 62,
        "duration_s": 40.0,
        "frame_rate_hz": 50.0,
        "scene": {
            "snr_db": 20.0,
            "targets": [
                _person(1.6, 16.0, 74.0),
                _person(2.5, 14.0, 66.0),
                _person(3.44, 19.0, 87.0),
            ],
        },
        "analysis": dict(_BASE_ANALYSIS),
    }

    harmonic = _sitting("harmonic_confusion", 2.0, seed=71, br_bpm=24.0, hr_bpm=72.0,
                        description="Strong 3rd breathing harmonic colliding with a weak heart line")
    harmonic["scene"]["targets"][0]["vitals"]["breathing_harmonic_weights"] = [0.25, 0.3]
    harmonic["scene"]["targets"][0]["vitals"]["heart_amplitude_m"] = 0.1e-3
    lib["harmonic_confusion"] = harmonic

    for name, speed, seed in (("walking_slow", 0.25, 81), ("walking_fast", 0.6, 82)):
        lib[name] = {
            "scenario_id": name,
            "description": f"Person walking back and forth at {speed} m/s",
            "seed": seed,
            "duration_s": 20.0,
            "frame_rate_hz": 50.0,
            "scene": {
                "snr_db": 20.0,
                "targets": [
                    {
                        "rest_range_m": 2.0,
                        "reflectivity": 0.67,
                        "walking_speed_m_s": speed,
                        "vitals": {
                            "breathing_rate_hz": 18.0 / 60.0,
                            "breathing_amplitude_m": 6e-3,
                            "heart_rate_hz": 90.0 / 60.0,
                            "heart_amplitude_m": 0.35e-3,
                            **_CLEAN,
                        },
                    }
                ],
            },
            "analysis": dict(_BASE_ANALYSIS),
        }

    return lib


_LIBRARY = _build_library()


def scenario_ids() -> list:
    return sorted(_LIBRARY)


def get_scenario(scenario_id: str, seed: int | None = None) -> Scenario:
    """A built-in scenario by id, optionally with an overridden seed."""
    if scenario_id not in _LIBRARY:
        raise ConfigError(
            f"unknown scenario {scenario_id!r}; available: {', '.join(scenario_ids())}"
        )
    cfg = copy.deepcopy(_LIBRARY[scenario_id])
    if seed is not None:
        cfg["seed"] = seed
    return validate_scenario(cfg)


def describe_scenarios() -> list:
    return [
        {"scenario_id": sid, "description": _LIBRARY[sid].get("description", "")}
        for sid in scenario_ids()
    ]
