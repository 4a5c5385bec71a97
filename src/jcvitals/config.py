"""Scenario configuration: JSON format, schema validation, and construction
of simulator/processing objects from a validated config.

All physical quantities carry units in their key names (_hz, _m, _s, _db).
Unknown keys are rejected.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields

import jsonschema
import numpy as np

from .channel import ClutterPoint, Scene, SceneTarget
from .physio import BREATH_HOLD, MOVING, NORMAL, Segment, VitalParams, synthesize_displacement, walking_trajectory
from .pipeline import ProcessingConfig
from .vitals import VitalsConfig
from .waveform import WaveformSpec


class ConfigError(ValueError):
    """Invalid scenario configuration; message carries the location."""


def _given(cls, section: dict) -> dict:
    """The keys of ``section`` that name fields of ``cls``, JSON lists as
    tuples; absent keys take the dataclass defaults."""
    names = {f.name for f in fields(cls)}
    return {k: tuple(v) if isinstance(v, list) else v for k, v in section.items() if k in names}


_VITALS_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "breathing_rate_hz": {"type": "number", "minimum": 0.1, "maximum": 0.7},
        "breathing_amplitude_m": {"type": "number", "minimum": 0.0, "maximum": 0.05},
        "breathing_harmonic_weights": {
            "type": "array",
            "items": {"type": "number", "minimum": -1.0, "maximum": 1.0},
            "maxItems": 4,
        },
        "heart_rate_hz": {"type": "number", "minimum": 0.7, "maximum": 3.0},
        "heart_amplitude_m": {"type": "number", "minimum": 0.0, "maximum": 0.002},
        "projection_angle_deg": {"type": "number", "minimum": -180.0, "maximum": 180.0},
        "sway_rms_m": {"type": "number", "minimum": 0.0},
    },
}

_SEGMENT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["label"],
    "properties": {
        "start_s": {"type": "number", "minimum": 0.0},
        "end_s": {"type": ["number", "null"]},
        "label": {"enum": [NORMAL, BREATH_HOLD, MOVING]},
    },
}

_TARGET_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["rest_range_m"],
    "properties": {
        "rest_range_m": {"type": "number", "exclusiveMinimum": 0.0},
        "reflectivity": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "nlos_attenuation_db": {"type": "number", "minimum": 0.0},
        "walking_speed_m_s": {"type": "number", "minimum": 0.0},
        "vitals": _VITALS_SCHEMA,
        "schedule": {"type": "array", "items": _SEGMENT_SCHEMA},
    },
}

SCENARIO_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "additionalProperties": False,
    "required": ["scenario_id", "duration_s", "frame_rate_hz", "scene"],
    "properties": {
        "scenario_id": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "seed": {"type": "integer", "minimum": 0, "maximum": 2**63 - 1},  # a JCV1 header's i64
        "duration_s": {"type": "number", "exclusiveMinimum": 0.0},
        "frame_rate_hz": {"type": "number", "exclusiveMinimum": 0.0},
        "waveform": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "carrier_frequency_hz": {"type": "number", "exclusiveMinimum": 0.0},
                "num_subcarriers": {"type": "integer", "minimum": 1},
                "subcarrier_spacing_hz": {"type": "number", "exclusiveMinimum": 0.0},
                "samples_per_pulse": {"type": "integer", "minimum": 1},
                "pulse_duration_s": {"type": "number", "exclusiveMinimum": 0.0},
                "active_subcarriers": {"type": "integer", "minimum": 1},
            },
        },
        "scene": {
            "type": "object",
            "additionalProperties": False,
            "required": ["targets"],
            "properties": {
                "snr_db": {"type": ["number", "null"]},
                "cable_delay_range_m": {"type": "number", "minimum": 0.0},
                "targets": {"type": "array", "items": _TARGET_SCHEMA},
                "clutter": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "additionalProperties": False,
                        "required": ["range_m", "amplitude"],
                        "properties": {
                            "range_m": {"type": "number", "minimum": 0.0},
                            "amplitude": {"type": "number", "minimum": 0.0},
                        },
                    },
                },
            },
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "br_band_hz": {
                    "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
                },
                "hr_band_hz": {
                    "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2,
                },
            },
        },
    },
}


@dataclass
class Scenario:
    """A validated scenario: waveform, scene recipe and analysis settings."""

    raw: dict = field(repr=False)

    @property
    def scenario_id(self) -> str:
        return self.raw["scenario_id"]

    @property
    def seed(self) -> int:
        return self.raw.get("seed", 0)

    @property
    def duration_s(self) -> float:
        return self.raw["duration_s"]

    @property
    def frame_rate_hz(self) -> float:
        return self.raw["frame_rate_hz"]

    @property
    def n_frames(self) -> int:
        return int(round(self.duration_s * self.frame_rate_hz))

    def waveform_spec(self) -> WaveformSpec:
        w = self.raw.get("waveform", {})
        return WaveformSpec(**_given(WaveformSpec, w), active_count=w.get("active_subcarriers"))

    def _segments(self, schedule: list, n: int) -> list:
        segments = []
        for item in schedule:
            start = int(round(item.get("start_s", 0.0) * self.frame_rate_hz))
            end_s = item.get("end_s")
            end = n if end_s is None else int(round(end_s * self.frame_rate_hz))
            segments.append(Segment(start=start, end=min(end, n), label=item["label"]))
        return segments

    def build_scene(self) -> Scene:
        """Instantiate the scene; target traces get per-target child seeds."""
        cfg = self.raw["scene"]
        children = np.random.SeedSequence(self.seed).spawn(len(cfg["targets"]))
        targets = []
        for i, tc in enumerate(cfg["targets"]):
            params = VitalParams(**tc.get("vitals", {}))
            trace_seed = int(children[i].generate_state(1)[0])
            speed = tc.get("walking_speed_m_s")
            if speed is not None:
                trace = walking_trajectory(
                    speed_m_s=speed,
                    duration_s=self.duration_s,
                    frame_rate_hz=self.frame_rate_hz,
                    params=params,
                    rng_seed=trace_seed,
                )
            else:
                schedule = self._segments(tc.get("schedule", []), self.n_frames) or None
                trace = synthesize_displacement(
                    params,
                    duration_s=self.duration_s,
                    frame_rate_hz=self.frame_rate_hz,
                    schedule=schedule,
                    rng_seed=trace_seed,
                )
            targets.append(SceneTarget(trace=trace, **_given(SceneTarget, tc)))
        clutter = [ClutterPoint(**c) for c in cfg.get("clutter", [])]
        scene = _given(Scene, cfg) | {"targets": targets, "static_clutter": clutter}
        # a scenario stands for a real receiver, so it is noisy (20 dB) unless
        # snr_db is null; a bare Scene stays noiseless to isolate propagation
        scene.setdefault("snr_db", 20.0)
        return Scene(**scene)

    def processing_config(self) -> ProcessingConfig:
        vitals = VitalsConfig(**_given(VitalsConfig, self.raw.get("analysis", {})))
        nyquist = self.frame_rate_hz / 2.0
        for key in ("br_band_hz", "hr_band_hz"):
            if not 0 < getattr(vitals, key)[0] < getattr(vitals, key)[1] < nyquist:
                raise ConfigError(f"at analysis/{key}: need 0 < low < high < {nyquist:g} Hz")
        return ProcessingConfig(
            cable_offset_m=self.raw["scene"].get("cable_delay_range_m", 0.0),
            vitals=vitals,
        )

    def ground_truth(self) -> list:
        """Per-target truth records, ordered by increasing rest range."""
        records = []
        targets = sorted(self.raw["scene"]["targets"], key=lambda t: t["rest_range_m"])
        for i, tc in enumerate(targets):
            params = VitalParams(**tc.get("vitals", {}))
            breathing = params.breathing_amplitude_m > 0 and params.radial_factor > 0
            heart = params.heart_amplitude_m > 0 and params.radial_factor > 0
            records.append(
                {
                    "scenario_id": self.scenario_id,
                    "target_id": i,
                    "range_m": tc["rest_range_m"],
                    "br_bpm": 60.0 * params.breathing_rate_hz if breathing else None,
                    "hr_bpm": 60.0 * params.heart_rate_hz if heart else None,
                }
            )
        return records


# built once: ``jsonschema.validate`` checks the schema itself on every call. An
# "integer" is an int: the draft's own checker also admits a float such as 3.0,
# which numpy's seeding, shapes and indexing refuse
_VALIDATOR = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda _checker, value: type(value) is int),
)(SCENARIO_SCHEMA)


def _non_finite(value, path: str = ""):
    """(key path, number) for each NaN or infinite float in a JSON-like ``value``;
    the schema's "number" admits them."""
    if isinstance(value, float) and not math.isfinite(value):
        yield path or "<root>", value
    elif isinstance(value, (dict, list)):
        for key, item in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _non_finite(item, f"{path}/{key}" if path else str(key))


def validate_scenario(config: dict) -> Scenario:
    for path, number in _non_finite(config):
        raise ConfigError(f"at {path}: {number} is not a finite number")
    # the error ``jsonschema.validate`` raises: the most relevant of them all
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        path = "/".join(str(p) for p in error.absolute_path) or "<root>"
        raise ConfigError(f"at {path}: {error.message}") from error
    return Scenario(raw=config)


def load_scenario(path) -> Scenario:
    def finite(text: str) -> float:  # Python's parser also takes NaN, Infinity and 1e999
        value = float(text)
        if not math.isfinite(value):
            raise ConfigError(f"{path}: {text} is not a finite number")
        return value

    try:
        with open(path) as fh:
            config = json.load(fh, parse_constant=finite, parse_float=finite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    return validate_scenario(config)


def config_digest(config: dict) -> str:
    """Stable content hash of a config for run manifests."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
