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

    def test_seed_fits_a_jcv1_header(self):
        # the header stores the seed as a signed 64-bit integer
        assert validate_scenario(minimal_config(seed=2**63 - 1)).seed == 2**63 - 1
        with pytest.raises(ConfigError, match="at seed: .* is greater than the maximum"):
            validate_scenario(minimal_config(seed=2**63))

    def test_schema_is_a_valid_draft_2020_12_schema(self):
        jsonschema.Draft202012Validator.check_schema(SCENARIO_SCHEMA)

    @pytest.mark.parametrize("edit", [
        lambda c: c.update(unknown_setting=1),
        lambda c: c.update(duration_s=0.0, seed=-1),
        lambda c: c["scene"]["targets"][0]["vitals"].update(typo_hz=1.0, breathing_rate_hz="x"),
        lambda c: c["scene"].pop("targets"),
        lambda c: c["scene"]["targets"].append({"rest_range_m": -1.0, "vitals": {}}),
        lambda c: c.update(analysis={"br_band_hz": [0.15]}),
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

    @pytest.mark.parametrize("owner, key, value", [
        # the linear trend is always removed
        (VitalsConfig, "detrend", False),
        # subtracting the slow-time mean removes a still person's return too
        (ProcessingConfig, "remove_static_clutter", True),
        # the presence threshold is calibrated at 4x padding only
        (VitalsConfig, "zero_pad_factor", 8),
        (VitalsConfig, "harmonic_tolerance_hz", 0.04),
        (ProcessingConfig, "min_prominence_db", 8.0),
        (ProcessingConfig, "max_below_peak_db", 12.0),
        # the presence test is calibrated at fixed record lengths
        (VitalsConfig, "min_duration_s", 10.0),
        # the chain processes the frames it is given; callers compose average_slow_time
        (ProcessingConfig, "averaging_factor", 2),
    ])
    def test_retired_setting_is_unknown(self, owner, key, value):
        # the key is unknown like any other, at the top level or in analysis, and no field takes it
        for path, config in (("<root>", minimal_config(**{key: value})),
                             ("analysis", minimal_config(analysis={key: value}))):
            with pytest.raises(ConfigError, match=f"at {path}: .*'{key}'"):
                validate_scenario(config)
        with pytest.raises(TypeError, match=key):
            owner(**{key: value})

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
        analysis = set(props["analysis"]["properties"])
        assert analysis <= _field_names(ProcessingConfig, VitalsConfig)
        # and back: a field no config can set is a setting only library callers reach.
        # cable_offset_m comes from scene.cable_delay_range_m
        assert _field_names(ProcessingConfig, VitalsConfig) - analysis == {
            "vitals", "cable_offset_m", "max_targets", "confidence_threshold"}
        waveform = set(props["waveform"]["properties"]) - {"active_subcarriers"}
        assert waveform <= _field_names(WaveformSpec)
        scene = set(props["scene"]["properties"]) - {"targets", "clutter"}
        assert scene <= _field_names(Scene)
        target = set(props["scene"]["properties"]["targets"]["items"]["properties"])
        assert target - {"walking_speed_m_s", "vitals", "schedule"} <= _field_names(SceneTarget)

    def test_every_analysis_key_reaches_the_built_objects(self):
        analysis = {"br_band_hz": [0.12, 0.55], "hr_band_hz": [0.75, 2.2]}
        vitals = validate_scenario(minimal_config(analysis=analysis)).processing_config().vitals
        for key, value in analysis.items():
            assert getattr(VitalsConfig(), key) != tuple(value), key
            assert getattr(vitals, key) == tuple(value), key

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
            "angle_0": "5ee3e028a75be48b4fd8d81593a4bf541ce23cce2fbd054fa5c5f32931711dce",
            "angle_30": "fc983572b68d9f534b6de8e2563dd5046b48ef2b15017df210860022a93602fe",
            "angle_60": "e1d92b8a365a7e000ff7fe187b5db47b375ad2656cd23e7e3b26e57a061500a0",
            "angle_90": "5cead4f1b3a3c8b4ee86b3809480ffa8f587dce208ef2004c8290f5642796729",
            "angle_m180": "8278579ac114f56b16542d6ead0c5b592b92d21ba35b4f1ae26f4bdd3a15d8c0",
            "angle_m30": "e47a61bba61f4a0bf2597598d0be2e105c99bb58bce5d806e86731ba44860782",
            "angle_m60": "af711146a7acd7afd48e6cc4c3b31902bfae9691a736e613bbc472c4c6768bc4",
            "angle_m90": "ebe3443f15d6f2c21a2cfc50a3df2b79437b39262c3aa863484540fd94f9c6da",
            "desk_moving": "ad547b8e20d14cf209b7b6a554fabf506380b0df691b9f7cc9244948aefe2dad",
            "harmonic_confusion": "e5a510377e78d1c3e41ff74240d4fd2172145e35e28aa59638a7ee5648ed9bf1",
            "holding_breath": "476a3d05ca6ace01ccbe147b3e0a8b4bce7c7a0b885400a859957da1feda23e7",
            "intermittent_breathing": "e3ad1343e5cdd71fdf2ed89219758285944268ceebcdece60a1cbd1930daa5f5",
            "lying_blanket": "9363537d6c4401bb4b7dbf8b06f473794547efbe807cbed135039faecd0297f9",
            "lying_tshirt": "869bfe5007f128947a098ce56b2a5e8bc536e4420f54200a465dffe06bf74baa",
            "nlos": "97ef9fdb45432591d7cfadce190a0efcb85fa699da93cf819df986e9070fd175",
            "sitting_still_1m": "f044780bacb88da4903a266fe9bd16ac02b0d0c19bf6744ca4ecd053370a60a0",
            "sitting_still_2m": "bb636e27f0c9979f4059b78fd11e37f2d55227259241450e11ce74b375ff9326",
            "sitting_still_2m_sweatshirt": "921a2a36e12c906bb8be032d9eb147ae2eb56a9adc4e12d6a21fbe97519ba798",
            "sitting_still_3m": "06aed63d0be8ff3e6934d511f4f1d5b6a76d58c340edba558a249caf586c115c",
            "sitting_still_4m": "32ac56a9322690e8ea3fd066d3138ed6a926b1db6b52f3e337a848457c0b3f12",
            "sitting_still_4m_sweatshirt": "b1b470a1ff9cc26d41f1d59a166ffa04b2cfe902db58c2ac81e984d5634da856",
            "standing_moving": "c07da413f1f1d7b9c65ffd318432ddf016f4ab563ade1be6317d49f8a24abb51",
            "standing_still": "a5715dd488fd128364dcf30f95df050e41c202bc9a5b2706c7e346e84f963ec7",
            "three_persons": "441f19421acb60dfed0a0fa40388c86b52ef4e807dd3d88a2d71bb5cc055fdc1",
            "two_persons": "aef06ad0b62e140c718281ad181e858fc6c6f5708d2aec5a1c4f9f1a833e9355",
            "walking_fast": "50b4fe8edb23b0bdf9741ed92d91bdbe6f192c99a25b584c52f56445632f6a6d",
            "walking_slow": "c4c8bfe6acbf0839e0524acd76eac74938c0710a0aa5e48e245192461b48590e",
        }
        assert {sid: config_digest(get_scenario(sid).raw) for sid in scenario_ids()} == pinned

    def test_builtin_scenes_buildable(self):
        # spot-check a representative subset end to end (traces + scene)
        for sid in ("sitting_still_2m", "nlos", "two_persons", "walking_fast",
                    "intermittent_breathing"):
            scene = get_scenario(sid).build_scene()
            assert scene.targets
