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

# accuracy scenarios use clean breathing (no harmonics): a 3rd harmonic above
# ~2% of a 6 mm fundamental already outweighs the sub-mm heart line in-band
_CLEAN = {"breathing_harmonic_weights": []}


def _scenario(scenario_id, description, seed, *targets, duration_s=40.0):
    """The one scenario skeleton: 50 Hz frames at 20 dB SNR, default analysis."""
    return {
        "scenario_id": scenario_id,
        "description": description,
        "seed": seed,
        "duration_s": duration_s,
        "frame_rate_hz": 50.0,
        "scene": {"snr_db": 20.0, "targets": list(targets)},
    }


def _person(range_m, br_bpm=16.0, hr_bpm=73.0, vitals=None, **extra):
    """One clean-breathing target; ``vitals`` overrides entries of its vitals
    dict, and ``extra`` adds target keys (loss, schedule, walking speed)."""
    return {
        "rest_range_m": range_m,
        "reflectivity": 0.67,
        "vitals": {
            "breathing_rate_hz": br_bpm / 60.0,
            "breathing_amplitude_m": 6e-3,
            "heart_rate_hz": hr_bpm / 60.0,
            "heart_amplitude_m": 0.35e-3,
            **_CLEAN,
            **(vitals or {}),
        },
        **extra,
    }


def _sitting(scenario_id, range_m, seed, description=None, nlos_attenuation_db=0.0, **person):
    """A single-person scenario; it always states its clothing/obstacle loss."""
    return _scenario(scenario_id,
                     description or f"Person sitting still, facing the radar at {range_m} m", seed,
                     _person(range_m, nlos_attenuation_db=nlos_attenuation_db, **person))


def _build_library() -> dict:
    moving = [{"start_s": 0.0, "end_s": None, "label": "moving"}]
    # obstructed path: fixed noise floor means the 15 dB loss lands on the SNR,
    # and the indirect geometry couples chest motion weakly into path length
    nlos = _sitting("nlos", 2.5, 51, "Person standing behind an obstacle (no line of sight)",
                    nlos_attenuation_db=15.0, br_bpm=17.0, hr_bpm=74.0,
                    vitals={"projection_angle_deg": 85.0})
    nlos["scene"]["snr_db"] = 5.0
    configs = [
        *(_sitting(f"sitting_still_{int(r)}m", r, 11 + i)
          for i, r in enumerate((1.0, 2.0, 3.0, 4.0))),
        _sitting("sitting_still_2m_sweatshirt", 2.0, 15,
                 "Person at 2 m wearing a thick sweatshirt", nlos_attenuation_db=3.0),
        _sitting("sitting_still_4m_sweatshirt", 4.0, 16,
                 "Person at 4 m wearing a thick sweatshirt", nlos_attenuation_db=3.0,
                 hr_bpm=71.0),
        _sitting("holding_breath", 2.0, 21, "Person holding their breath for the whole record",
                 hr_bpm=74.0, vitals={"breathing_amplitude_m": 0.0}),
        _sitting("intermittent_breathing", 1.5, 22,
                 "Person at a desk periodically holding their breath", br_bpm=20.0, schedule=[
                     {"start_s": 0.0, "end_s": 10.0, "label": "normal"},
                     {"start_s": 10.0, "end_s": 15.0, "label": "breath_hold"},
                     {"start_s": 15.0, "end_s": 25.0, "label": "normal"},
                     {"start_s": 25.0, "end_s": 30.0, "label": "breath_hold"},
                     {"start_s": 30.0, "end_s": None, "label": "normal"},
                 ]),
        _sitting("desk_moving", 1.5, 23, "Person reading at a desk, moving head and arms",
                 br_bpm=15.0, hr_bpm=72.0, vitals={"sway_rms_m": 2e-3}, schedule=moving),
        _sitting("lying_tshirt", 1.2, 24, "Person lying down, radar above, T-shirt only",
                 br_bpm=14.0, hr_bpm=59.0),
        _sitting("lying_blanket", 1.2, 25, "Person lying down under a sweatshirt and thick blanket",
                 nlos_attenuation_db=6.0, br_bpm=14.0, hr_bpm=56.0),
        *(_sitting(f"angle_{'m' if a < 0 else ''}{abs(a)}", 2.0, 31 + i,
                   f"Person on a chair rotated {a} deg from boresight at 2 m",
                   br_bpm=17.0, hr_bpm=75.0, vitals={"projection_angle_deg": float(a)})
          for i, a in enumerate((0, 30, 60, 90, -30, -60, -90, -180))),
        _sitting("standing_still", 2.0, 41, "Person standing completely still at 2 m",
                 br_bpm=15.0, hr_bpm=70.0),
        _sitting("standing_moving", 2.0, 42, "Person standing with small natural gestures",
                 br_bpm=15.0, hr_bpm=70.0, vitals={"sway_rms_m": 3e-3}, schedule=moving),
        nlos,
        _scenario("two_persons",
                  "Two persons seated at 1.6 m and 3.44 m, both facing the radar", 61,
                  _person(1.6, 16.0, 74.0), _person(3.44, 19.0, 87.0)),
        _scenario("three_persons",
                  "Three persons at 1.6 m, 2.5 m and 3.44 m for bandwidth studies", 62,
                  _person(1.6, 16.0, 74.0), _person(2.5, 14.0, 66.0),
                  _person(3.44, 19.0, 87.0)),
        _sitting("harmonic_confusion", 2.0, 71,
                 "Strong 3rd breathing harmonic colliding with a weak heart line",
                 br_bpm=24.0, hr_bpm=72.0,
                 vitals={"breathing_harmonic_weights": [0.25, 0.3], "heart_amplitude_m": 0.1e-3}),
        *(_scenario(name, f"Person walking back and forth at {speed} m/s", seed,
                    _person(2.0, 18.0, 90.0, walking_speed_m_s=speed), duration_s=20.0)
          for name, speed, seed in (("walking_slow", 0.25, 81), ("walking_fast", 0.6, 82))),
    ]
    return {cfg["scenario_id"]: cfg for cfg in configs}


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
