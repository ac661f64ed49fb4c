"""Registry, harness and result-serialization layer tests."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    RtbhAttackConfig,
    StellarAttackConfig,
    SteppedExperiment,
    all_experiments,
    get_experiment,
)
from repro.experiments.results import JsonResultMixin, ResultStore, to_jsonable
from repro.sim import SimulationEngine


SRC = Path(__file__).resolve().parents[2] / "src"


class TestRegistry:
    def test_import_leaves_scipy_unloaded(self):
        # scipy.stats costs about half a second to import; the registry
        # (and every spawned shard worker) must not pay it up front.
        code = (
            "import sys, repro.experiments.registry, repro.experiments.city_scale; "
            "print('scipy' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_all_experiments_registered(self):
        names = [spec.name for spec in all_experiments()]
        assert names == [
            "table1",
            "fig2c",
            "fig3a",
            "fig3b",
            "fig3c",
            "fig9",
            "fig10a",
            "fig10b",
            "fig10c",
            "functionality",
            "pulse",
            "carpet",
            "multivector",
            "fine_grained",
            "city_scale",
            "paper_scale",
            "rule_churn",
        ]

    def test_lookup_by_alias_and_case(self):
        assert get_experiment("rtbh").name == "fig3c"
        assert get_experiment("stellar_attack").name == "fig10c"
        assert get_experiment("FIG9").name == "fig9"

    def test_unknown_name_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="fig3c"):
            get_experiment("fig99")

    def test_make_config_applies_overrides(self):
        spec = get_experiment("fig3c")
        config = spec.make_config(peer_count=12, seed=99)
        assert isinstance(config, RtbhAttackConfig)
        assert config.peer_count == 12
        assert config.seed == 99

    def test_make_config_rejects_unknown_field(self):
        with pytest.raises(ValueError, match="unknown config field"):
            get_experiment("fig3c").make_config(bogus=1)

    def test_quick_overrides_are_defaults_not_locks(self):
        spec = get_experiment("fig10c")
        config = spec.make_config(quick=True, peer_count=33)
        assert config.peer_count == 33  # explicit override wins
        assert config.duration == spec.quick_overrides["duration"]

    def test_run_rejects_config_plus_overrides(self):
        spec = get_experiment("fig9")
        with pytest.raises(ValueError):
            spec.run(spec.make_config(), quick=True)

    def test_every_spec_has_config_dataclass_and_runner(self):
        for spec in all_experiments():
            assert dataclasses.is_dataclass(spec.config_cls)
            assert callable(spec.runner)
            unknown_quick = set(spec.quick_overrides) - set(spec.config_field_names())
            assert not unknown_quick, (spec.name, unknown_quick)


class TestSteppedExperiment:
    def test_steps_and_phase_events_interleave(self):
        harness = SteppedExperiment(duration=50.0, interval=10.0)
        timeline = []
        harness.at(25.0, lambda: timeline.append(("phase", harness.now)), name="mid")
        harness.run(lambda t, dt: timeline.append(("step", t)))
        assert timeline == [
            ("step", 0.0),
            ("step", 10.0),
            ("step", 20.0),
            ("phase", 25.0),  # fires before the step of its interval ...
            ("step", 30.0),  # ... with the clock at the event's own time
            ("step", 40.0),
        ]

    def test_phase_actions_fire_once_and_are_logged(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)
        fired = []
        harness.at(10.0, lambda: fired.append(harness.now), name="attack-start")
        harness.run(lambda t, dt: None)
        assert fired == [10.0]
        assert harness.phase_times("attack-start") == [10.0]
        assert [kind for _, kind, _ in harness.events()] == ["attack-start"]

    def test_event_past_last_step_never_fires(self):
        harness = SteppedExperiment(duration=30.0, interval=10.0)
        fired = []
        harness.at(25.0, lambda: fired.append("late"))
        harness.run()
        assert fired == []  # steps are 0/10/20; a 25 s trigger was never polled

    def test_same_time_events_fire_in_scheduling_order(self):
        harness = SteppedExperiment(duration=20.0, interval=10.0)
        fired = []
        harness.at(10.0, lambda: fired.append("first"))
        harness.at(10.0, lambda: fired.append("second"))
        harness.run()
        assert fired == ["first", "second"]

    def test_external_engine_is_used(self):
        engine = SimulationEngine()
        harness = SteppedExperiment(duration=10.0, interval=5.0, engine=engine)
        assert harness.engine is engine
        harness.run()
        assert engine.clock.now == 5.0

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            SteppedExperiment(duration=10.0, interval=0.0)

    def test_partial_trailing_interval_is_not_stepped(self):
        # Matches the replaced drivers' int(duration/interval) floor: a
        # 915 s run with 10 s intervals observes [900, 910) last, never
        # generating traffic beyond the configured duration.
        times = SteppedExperiment(duration=915.0, interval=10.0).step_times()
        assert len(times) == 91
        assert times[-1] == 900.0
        # Exact multiples are immune to float-division error.
        assert len(SteppedExperiment(duration=0.3, interval=0.1).step_times()) == 3


class TestToJsonable:
    def test_handles_numpy_and_enums(self):
        import enum

        import numpy as np

        class Color(enum.Enum):
            RED = "red"

        payload = to_jsonable(
            {
                "i": np.int64(3),
                "f": np.float64(1.5),
                "b": np.bool_(True),
                "a": np.arange(3),
                "e": Color.RED,
                4.0: "float-key",
                (0, 2): "tuple-key",
            }
        )
        assert payload == {
            "i": 3,
            "f": 1.5,
            "b": True,
            "a": [0, 1, 2],
            "e": "red",
            "4.0": "float-key",
            "(0, 2)": "tuple-key",
        }
        json.dumps(payload)  # round-trippable

    def test_rejects_unencodable_objects(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_mixin_excludes_fields_and_adds_summary(self):
        @dataclasses.dataclass
        class Demo(JsonResultMixin):
            _json_exclude = ("big",)
            value: int
            big: object = None

            def summary(self):
                return {"value": float(self.value)}

        payload = Demo(value=7, big=object()).to_dict()
        assert payload == {"value": 7, "summary": {"value": 7.0}}


class TestResultStore:
    def test_save_load_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "artifacts")
        key = store.key_for("fig3c", {"seed": 7, "peer_count": 10})
        assert store.load(key) is None
        store.save(key, {"summary": {"x": 1.0}})
        assert store.load(key) == {"summary": {"x": 1.0}}
        assert len(store) == 1

    def test_key_depends_on_config_and_experiment(self):
        key_a = ResultStore.key_for("fig3c", {"seed": 7})
        key_b = ResultStore.key_for("fig3c", {"seed": 8})
        key_c = ResultStore.key_for("fig10c", {"seed": 7})
        assert len({key_a, key_b, key_c}) == 3

    def test_key_is_insertion_order_independent(self):
        assert ResultStore.key_for("x", {"a": 1, "b": 2}) == ResultStore.key_for(
            "x", {"b": 2, "a": 1}
        )

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = store.key_for("fig9", {})
        store.path_for(key).write_text("{not json", encoding="utf-8")
        assert store.load(key) is None

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save(store.key_for("a", {}), {"x": 1})
        store.save(store.key_for("b", {}), {"x": 2})
        assert store.clear() == 2
        assert len(store) == 0
