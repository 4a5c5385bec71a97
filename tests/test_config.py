import json
import math
import re
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

from jcvitals.channel import Scene, SceneTarget
from jcvitals.config import SCENARIO_SCHEMA, ConfigError, config_digest, load_scenario, validate_scenario
from jcvitals.pipeline import ProcessingConfig
from jcvitals.scenarios import describe_scenarios, get_scenario, scenario_ids
from jcvitals.vitals import VitalsConfig
from jcvitals.waveform import WaveformSpec


def minimal_config(**overrides):
    cfg = {
        "scenario_id": "test",
        "seed": 5,
        "duration_s": 16.0,
        "frame_rate_hz": 50.0,
        "scene": {
            "snr_db": 20.0,
            "targets": [
                {
                    "rest_range_m": 2.0,
                    "vitals": {"breathing_rate_hz": 0.25, "breathing_amplitude_m": 6e-3},
                }
            ],
        },
    }
    cfg.update(overrides)
    return cfg


class TestValidation:
    def test_minimal_config_accepted(self):
        scenario = validate_scenario(minimal_config())
        assert scenario.scenario_id == "test"
        assert scenario.n_frames == 800

    def test_unknown_key_rejected(self):
        cfg = minimal_config()
        cfg["unknown_setting"] = 1
        with pytest.raises(ConfigError, match="unknown_setting"):
            validate_scenario(cfg)

    def test_nested_unknown_key_rejected_with_path(self):
        cfg = minimal_config()
        cfg["scene"]["targets"][0]["vitals"]["typo_hz"] = 1.0
        with pytest.raises(ConfigError, match="scene/targets/0/vitals"):
            validate_scenario(cfg)

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigError, match="duration_s"):
            validate_scenario(minimal_config(duration_s=0.0))

    def test_schema_is_a_valid_draft_2020_12_schema(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(unknown_setting=1),
        lambda c: c.update(duration_s=0.0, seed=-1),
        lambda c: c["scene"]["targets"][0]["vitals"].update(typo_hz=1.0, breathing_rate_hz="x"),
        lambda c: c["scene"].pop("targets"),
        lambda c: c["scene"]["targets"].append({"rest_range_m": -1.0, "vitals": {}}),
        lambda c: c.update(analysis={"subcarrier_counts": [40, 40, 1024]}),
    ])
    def test_error_message_is_the_one_jsonschema_validate_raises(self, edit):
        cfg = minimal_config()
        edit(cfg)
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(cfg, SCENARIO_SCHEMA)
        path = "/".join(str(p) for p in expected.value.absolute_path) or "<root>"
        with pytest.raises(ConfigError) as got:
            validate_scenario(cfg)
        assert str(got.value) == f"at {path}: {expected.value.message}"

    def test_syntax_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "scenario_id": "x",\n  broken\n}\n')
        with pytest.raises(ConfigError, match="line 3"):
            load_scenario(path)

    @pytest.mark.parametrize("section, key, text", [
        ("scene", "snr_db", "NaN"),
        ("scene", "snr_db", "-Infinity"),
        (None, "duration_s", "Infinity"),
        (None, "duration_s", "1e999"),  # overflows to infinity
    ])
    def test_non_finite_number_is_config_error(self, tmp_path, section, key, text):
        cfg = minimal_config()
        (cfg[section] if section else cfg)[key] = "@"
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(cfg).replace('"@"', text))
        with pytest.raises(ConfigError, match=re.escape(f"{path}: {text} is not a finite number")):
            load_scenario(path)

    @pytest.mark.parametrize("edit, path, text", [
        (lambda cfg: cfg["scene"].update(snr_db=math.nan), "scene/snr_db", "nan"),
        (lambda cfg: cfg["scene"]["targets"][0]["vitals"].update(
            breathing_harmonic_weights=[0.2, -math.inf]),
         "scene/targets/0/vitals/breathing_harmonic_weights/1", "-inf"),
        (lambda cfg: cfg.update(duration_s=math.inf), "duration_s", "inf"),
    ], ids=["snr_nan", "nested_minus_inf", "duration_inf"])
    def test_non_finite_float_in_a_dict_is_config_error(self, edit, path, text):
        # a Python dict, unlike a JSON file, can hold NaN and infinities directly
        cfg = minimal_config()
        edit(cfg)
        with pytest.raises(ConfigError, match=re.escape(f"at {path}: {text} is not a finite number")):
            validate_scenario(cfg)

    def test_detrend_is_not_a_setting(self):
        # the linear trend is always removed; the key is unknown like any other
        with pytest.raises(ConfigError, match="at analysis: .*'detrend'"):
            validate_scenario(minimal_config(analysis={"detrend": False}))

    @pytest.mark.parametrize("value", [True, False])
    def test_static_clutter_removal_is_not_a_setting(self, value):
        # subtracting the slow-time mean removes a still person's return too
        with pytest.raises(ConfigError, match="at analysis: .*'remove_static_clutter'"):
            validate_scenario(minimal_config(analysis={"remove_static_clutter": value}))
        with pytest.raises(TypeError, match="remove_static_clutter"):
            ProcessingConfig(remove_static_clutter=value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_scenario(tmp_path / "nope.json")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(minimal_config()))
        scenario = load_scenario(path)
        assert scenario.duration_s == 16.0


class TestSceneConstruction:
    def test_build_scene_deterministic(self):
        scenario = validate_scenario(minimal_config())
        a = scenario.build_scene()
        b = scenario.build_scene()
        assert np.array_equal(a.targets[0].trace.samples, b.targets[0].trace.samples)

    def test_seed_changes_sway_noise(self):
        cfg = minimal_config()
        cfg["scene"]["targets"][0]["vitals"]["sway_rms_m"] = 1e-3
        a = validate_scenario({**cfg, "seed": 1}).build_scene()
        b = validate_scenario({**cfg, "seed": 2}).build_scene()
        assert not np.array_equal(a.targets[0].trace.samples, b.targets[0].trace.samples)

    def test_schedule_converted_to_segments(self):
        cfg = minimal_config()
        cfg["scene"]["targets"][0]["schedule"] = [
            {"start_s": 0.0, "end_s": 8.0, "label": "normal"},
            {"start_s": 8.0, "end_s": None, "label": "breath_hold"},
        ]
        scene = validate_scenario(cfg).build_scene()
        segments = scene.targets[0].trace.segments
        assert [s.label for s in segments] == ["normal", "breath_hold"]
        assert segments[1].start == 400 and segments[1].end == 800

    def test_walking_target(self):
        cfg = minimal_config()
        cfg["scene"]["targets"][0]["walking_speed_m_s"] = 0.5
        scene = validate_scenario(cfg).build_scene()
        assert scene.targets[0].trace.samples.max() > 1.0

    def test_ground_truth_ordered_by_range(self):
        cfg = minimal_config()
        cfg["scene"]["targets"] = [
            {"rest_range_m": 3.44, "vitals": {"breathing_rate_hz": 19 / 60}},
            {"rest_range_m": 1.6, "vitals": {"breathing_rate_hz": 16 / 60}},
        ]
        truth = validate_scenario(cfg).ground_truth()
        assert [t["range_m"] for t in truth] == [1.6, 3.44]
        assert truth[0]["br_bpm"] == pytest.approx(16.0)

    def test_ground_truth_absent_for_zero_amplitude(self):
        cfg = minimal_config()
        cfg["scene"]["targets"][0]["vitals"]["breathing_amplitude_m"] = 0.0
        truth = validate_scenario(cfg).ground_truth()
        assert truth[0]["br_bpm"] is None

    def test_digest_stable_under_key_order(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_digest(a) == config_digest(b)


def _field_names(*classes):
    return {f.name for cls in classes for f in fields(cls)}


class TestDefaultsFromDataclasses:
    # the built objects take every key the config gives and leave the rest
    # to the dataclass defaults; a key no field carries would vanish silently
    def test_schema_keys_name_dataclass_fields(self):
        props = SCENARIO_SCHEMA["properties"]
        analysis = set(props["analysis"]["properties"]) - {"subcarrier_counts"}
        assert analysis <= _field_names(ProcessingConfig, VitalsConfig)
        waveform = set(props["waveform"]["properties"]) - {"active_subcarriers"}
        assert waveform <= _field_names(WaveformSpec)
        scene = set(props["scene"]["properties"]) - {"targets", "clutter"}
        assert scene <= _field_names(Scene)
        target = set(props["scene"]["properties"]["targets"]["items"]["properties"])
        assert target - {"walking_speed_m_s", "vitals", "schedule"} <= _field_names(SceneTarget)

    def test_every_analysis_key_reaches_the_built_objects(self):
        analysis = {
            "br_band_hz": [0.12, 0.55],
            "hr_band_hz": [0.75, 2.2],
            "zero_pad_factor": 8,
            "confidence_threshold": 0.05,
            "harmonic_tolerance_hz": 0.04,
            "min_duration_s": 10.0,
            "max_targets": 2,
            "min_prominence_db": 8.0,
            "max_below_peak_db": 12.0,
        }
        processing = validate_scenario(minimal_config(analysis=analysis)).processing_config()
        defaults = ProcessingConfig()
        for key, value in analysis.items():
            owner, default = (
                (processing.vitals, defaults.vitals)
                if hasattr(defaults.vitals, key)
                else (processing, defaults)
            )
            expected = tuple(value) if isinstance(value, list) else value
            assert getattr(default, key) != expected, key
            assert getattr(owner, key) == expected, key

    def test_minimal_config_gives_dataclass_defaults(self):
        cfg = minimal_config()
        del cfg["scene"]["snr_db"]
        scenario = validate_scenario(cfg)
        assert scenario.processing_config() == ProcessingConfig()
        assert scenario.waveform_spec() == WaveformSpec()
        scene = scenario.build_scene()
        trace = scene.targets[0].trace
        assert scene.targets[0] == SceneTarget(rest_range_m=2.0, trace=trace)
        assert scene.cable_delay_range_m == Scene().cable_delay_range_m
        # the one deliberate difference: a scenario is noisy unless told otherwise
        assert Scene().snr_db is None
        assert scene.snr_db == 20.0


class TestScenarioLibrary:
    def test_all_builtins_validate(self):
        for sid in scenario_ids():
            scenario = get_scenario(sid)
            assert scenario.scenario_id == sid
            scenario.waveform_spec()
            scenario.processing_config()

    def test_library_covers_experiment_inventory(self):
        ids = set(scenario_ids())
        expected_flavors = {
            "sitting_still_1m", "sitting_still_2m", "sitting_still_3m", "sitting_still_4m",
            "sitting_still_2m_sweatshirt", "sitting_still_4m_sweatshirt",
            "holding_breath", "intermittent_breathing", "desk_moving",
            "lying_tshirt", "lying_blanket",
            "angle_0", "angle_30", "angle_60", "angle_90",
            "angle_m30", "angle_m60", "angle_m90", "angle_m180",
            "standing_still", "standing_moving",
            "walking_slow", "walking_fast",
            "nlos", "two_persons", "three_persons", "harmonic_confusion",
        }
        assert expected_flavors <= ids

    def test_unknown_id_raises(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            get_scenario("does_not_exist")

    def test_seed_override(self):
        assert get_scenario("nlos", seed=1234).seed == 1234

    def test_descriptions_present(self):
        for item in describe_scenarios():
            assert item["description"]

    def test_builtin_configs_are_pinned(self):
        # the library is the accuracy oracle: editing a scenario updates its pin
        pinned = {
            "angle_0": "6623a52420569baf4432dc603e67c9c3c76d6714307ce90bda74db3b040dee26",
            "angle_30": "5b2fd9b2ae1b5abeaa4fb75816cc1faa5d12d564d2f29401b3ee7a65c6b8a4d3",
            "angle_60": "31c020a230318690770ef1dca0c8648a199759eb7ed81ef59f8f80c0cdae2831",
            "angle_90": "4ead80adb844e8fc98c732b77b511e7c698340d639378bde4169feeba461f183",
            "angle_m180": "0bb7a20c2a395f4cf71e9014b46ccee87357feea10334ae91143df2b537953a7",
            "angle_m30": "bf99d94b824223918e8a4f74c96a1ae60470879ae6f96b98d03451420a3ad3c2",
            "angle_m60": "1bf087e2ac3b40b96cba2188a2486ec02415954b74e00bd13a36ac78dce28d59",
            "angle_m90": "03d3df89cdd45b3bff1bbc3b6e4f0b54a07bfc375c2219d855147870b64a2e32",
            "desk_moving": "e107282239ceafe293e439303b9f34f65d494c5909cd37a2e12a786ef2b1d7b3",
            "harmonic_confusion": "a3271601cbc96575d7f1033e7c44d475b3579d24b747d7f3e9fa96a57cf517f5",
            "holding_breath": "f91669365c93e202aa58fd14b7ef99d51b56fcd8619b86a5c03ed088673e67af",
            "intermittent_breathing": "c175c687a4a924d0050698d035a9d56f7dc03495ab3c4a9afbab4dc7e3907c68",
            "lying_blanket": "2582f3206778e9db5a245acac083f45c59e3058fcbd33247fe52992530e082da",
            "lying_tshirt": "a895013ad0d335eebf42f18b87e1c4a353cd3f000412547825611ca8bda00fbf",
            "nlos": "83e1e6133c92353978b8c302ec86283bfcd0ddecaa6ff717bf27c534efa421ef",
            "sitting_still_1m": "ea4fdb0042afeb68fee81e62dbb529d24fdd9592132594f4a0db0f5c273a5d87",
            "sitting_still_2m": "426dd84e23b00acd094444146a4f2b1bb07fff171a31530ee3dca4273a5b9f3d",
            "sitting_still_2m_sweatshirt": "00b0161ae950c838d56cf969c442c189ef5e840b8b1bc5d4f3a91b1685ac8458",
            "sitting_still_3m": "9c4d9f9fcc12ff4a1e83d00011f49ff4bdd33ba3b7d7575d1926a30fc12dda52",
            "sitting_still_4m": "b3d76babb931ed2ea1035795d4a990c42ad17adcf7715f5a017c688e9c707e51",
            "sitting_still_4m_sweatshirt": "299ceaa78a5e747cc9a2f12e2652a978a47997af5fbc0245909741c128236ed4",
            "standing_moving": "0b4de19ec5eb35c22a280cec70d979917c2d8611297d3cbd94b437a891a7bd40",
            "standing_still": "2c27d88ca315d143d00d772ed505bf40cab6f8e1833708a87edcdc0c232629b6",
            "three_persons": "76028be02e4478a5ef07c44736aa1b6a2b5cba81ea87b707e9bc413d514efe2d",
            "two_persons": "c4ac73c4e741df6eaf303409ab291da2ee666d36c0325d7690e822aa2a38504b",
            "walking_fast": "abdbe03ddfb08b9af39664a57c59f4be5a4ad165d29f4c076c275aafeeca5bc5",
            "walking_slow": "64e54af18986bd136dd6d31412dadb1b50c4add28892d8ecff2ec2bc5e1a3a92",
        }
        assert {sid: config_digest(get_scenario(sid).raw) for sid in scenario_ids()} == pinned

    def test_builtin_scenes_buildable(self):
        # spot-check a representative subset end to end (traces + scene)
        for sid in ("sitting_still_2m", "nlos", "two_persons", "walking_fast",
                    "intermittent_breathing"):
            scene = get_scenario(sid).build_scene()
            assert scene.targets
