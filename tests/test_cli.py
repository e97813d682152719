import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gridnav
from gridnav import cli
from gridnav.agent import UpdateRule
from gridnav.cli import EXIT_EPISODE_CAP, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from gridnav.harness import TEST_SEQUENCE, decay_experiment, run_mission
from gridnav.nn import load_checkpoint

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


def run_cli(*args):
    return main(list(args))


def write_config(path, **values):
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {value}\n")
    return str(path)


TINY_TRAIN = dict(
    world_width=10,
    world_height=10,
    obstacle_density=5.0,
    goal_row=8,
    goal_col=8,
    max_episodes=2,
    success_streak=50,
    max_steps_per_episode=5,
    train_steps_per_episode=0,
)


SMALL_WORLD_DOC = {"spec": {"domain": "plain", "width_m": 10, "height_m": 10, "seed": 0},
                   "obstacles": [{"x": 3.5, "y": 3.5, "r": 0.3}]}


class TestGenerateWorld:
    def test_writes_a_deterministic_world_file(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = run_cli("generate-world", "--out", str(out), "--domain", "forest",
                           "--seed", "7")
            assert code == EXIT_OK
        assert (out1 / "world.json").read_bytes() == (out2 / "world.json").read_bytes()

    def test_zero_density_world_is_empty(self, tmp_path):
        cfg = write_config(tmp_path / "cfg", world_width=20, world_height=20,
                           obstacle_density=0.0)
        assert run_cli("generate-world", "--config", cfg, "--out",
                       str(tmp_path / "o")) == EXIT_OK
        doc = json.loads((tmp_path / "o" / "world.json").read_text())
        assert doc["obstacles"] == []

    def test_invalid_density_fails_with_message(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg", world_width=1, world_height=1,
                           obstacle_density=100.0)
        code = run_cli("generate-world", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == EXIT_FAILURE
        assert "error" in capsys.readouterr().err

    def test_negative_density_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg", obstacle_density=-1.0)
        code = run_cli("generate-world", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == EXIT_USAGE


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("not_a_real_key = 5\n")
        code = run_cli("decay", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        assert "unknown config key" in capsys.readouterr().err

    def test_flags_override_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg", decay_updates=5)
        out = tmp_path / "o"
        assert run_cli("decay", "--config", cfg, "--updates", "2", "--out",
                       str(out)) == EXIT_OK
        rows = (out / "decay.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * 3  # header + two rules x (initial + 2 updates)

    def test_nav_seed_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NAV_SEED", "123")
        out = tmp_path / "o"
        assert run_cli("decay", "--out", str(out)) == EXIT_OK
        text = (out / "effective_config.txt").read_text()
        assert "seed = 123" in text

    def test_effective_config_round_trips(self, tmp_path):
        out1 = tmp_path / "o1"
        assert run_cli("decay", "--updates", "3", "--seed", "9", "--out",
                       str(out1)) == EXIT_OK
        out2 = tmp_path / "o2"
        assert run_cli("decay", "--config", str(out1 / "effective_config.txt"),
                       "--out", str(out2)) == EXIT_OK
        assert (out1 / "decay.csv").read_bytes() == (out2 / "decay.csv").read_bytes()


    @pytest.mark.parametrize("key, value", [("target_sync_every", 0),
                                            ("online_train_interval", 0),
                                            ("exploration_train_interval", 0),
                                            ("gamma", 2),
                                            ("rule", "sarsa"),
                                            ("rule", "drqnx"),
                                            ("rule", "drqn0"),
                                            ("decay_updates", -1),
                                            ("decay_alpha", 0),
                                            ("decay_alpha", 1.5),
                                            ("decay_alpha", "nan")])
    def test_bad_agent_value_is_a_usage_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path / "cfg", **{**TINY_TRAIN, key: value})
        out = tmp_path / "o"
        code = run_cli("train", "--config", cfg, "--seed", "1", "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert "Traceback" not in err
        assert not out.exists()  # rejected before the run starts

    @pytest.mark.parametrize("values, message", [
        (dict(dynamic_count=3), "dynamic obstacles only exist in the savanna domain"),
        (dict(world_width=0), "world dimensions must be positive"),
        (dict(weather="clear", intensity=0.15), "clear weather has zero intensity"),
        (dict(weather="fog"), "fog weather needs a non-zero intensity"),
    ], ids=["forest-movers", "zero-width", "clear-with-intensity", "fog-without-intensity"])
    @pytest.mark.parametrize("command", ["generate-world", "train", "evaluate"])
    def test_bad_world_or_weather_is_a_usage_error(self, tmp_path, capsys, command, values,
                                                    message):
        cfg = write_config(tmp_path / "cfg", **values)
        out = tmp_path / "o"
        code = run_cli(command, "--config", cfg, "--out", str(out))
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_trace_longer_than_the_buffer_is_a_usage_error(self, tmp_path, capsys, command):
        # drqn1000's trace can never fit the default 800-slot buffer
        cfg = write_config(tmp_path / "cfg", **TINY_TRAIN)
        out = tmp_path / "o"
        code = run_cli(command, "--config", cfg, "--rule", "drqn1000", "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and "replay_capacity" in err
        assert not out.exists()


class TestTrain:
    def test_cap_hit_returns_distinct_exit_code(self, tmp_path):
        cfg = write_config(tmp_path / "cfg", **TINY_TRAIN)
        out = tmp_path / "o"
        code = run_cli("train", "--config", cfg, "--rule", "eddqn", "--seed", "1",
                       "--out", str(out))
        assert code == EXIT_EPISODE_CAP
        assert (out / "checkpoint.npz").exists()
        assert (out / "training_log.csv").exists()

    def test_trivial_task_converges_with_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg",
            world_width=2,
            world_height=1,
            obstacle_density=0.0,
            start_row=0, start_col=0, goal_row=0, goal_col=1,
            epsilon_train=1.0,
            success_streak=20,
            max_episodes=100,
            max_steps_per_episode=4,
            train_steps_per_episode=0,
        )
        out = tmp_path / "o"
        code = run_cli("train", "--config", cfg, "--seed", "2", "--out", str(out))
        assert code == EXIT_OK
        log = (out / "training_log.csv").read_text().splitlines()
        assert len(log) == 21  # header + exactly the streak worth of episodes

    def test_rules_produce_different_logs_that_both_parse(self, tmp_path):
        logs = {}
        for rule in ("ddqn", "eddqn"):
            cfg = write_config(tmp_path / f"cfg_{rule}", **{
                **TINY_TRAIN, "max_episodes": 3,
                "train_steps_per_episode": 1, "batch_size": 8,
            })
            out = tmp_path / rule
            code = run_cli("train", "--config", cfg, "--rule", rule, "--seed", "3",
                           "--out", str(out))
            assert code == EXIT_EPISODE_CAP
            logs[rule] = (out / "training_log.csv").read_text()
            header = logs[rule].splitlines()[0]
            assert header == "episode,steps,reward_sum,success,streak,loss_mean"
        assert logs["ddqn"] != logs["eddqn"]

    def test_world_file_input(self, tmp_path):
        wout = tmp_path / "w"
        assert run_cli("generate-world", "--out", str(wout), "--domain", "plain",
                       "--seed", "4", "--config",
                       write_config(tmp_path / "wcfg", world_width=10, world_height=10,
                                    obstacle_density=2.0, goal_row=8, goal_col=8)) == EXIT_OK
        cfg = write_config(tmp_path / "cfg", **{**TINY_TRAIN, "obstacle_density": 2.0},
                           world_file=str(wout / "world.json"))
        code = run_cli("train", "--config", cfg, "--seed", "4",
                       "--out", str(tmp_path / "o"))
        assert code == EXIT_EPISODE_CAP


    @pytest.mark.parametrize("endpoint, message", [
        ({}, "goal cell (28, 28) is outside the 12x12 world"),
        ({"start_row": -1}, "start cell (-1, 1) is outside the 12x12 world"),
        ({"goal_row": 3, "goal_col": 3}, "goal cell (3, 3) is occupied by an obstacle"),
    ], ids=["goal-outside", "start-outside", "goal-occupied"])
    def test_world_file_endpoints_are_checked(self, tmp_path, capsys, endpoint, message):
        wout = tmp_path / "w"
        assert run_cli("generate-world", "--out", str(wout), "--domain", "plain",
                       "--config", write_config(tmp_path / "wcfg", world_width=12,
                                                world_height=12, obstacle_density=0.0)) \
            == EXIT_OK
        doc = json.loads((wout / "world.json").read_text())
        doc["obstacles"] = [{"x": 3.5, "y": 3.5, "r": 0.3}]
        (wout / "world.json").write_text(json.dumps(doc))
        cfg = write_config(tmp_path / "cfg", **{**TINY_TRAIN, "world_width": 30,
                                                "world_height": 30, "goal_row": 28,
                                                "goal_col": 28, **endpoint},
                           world_file=str(wout / "world.json"))
        out = tmp_path / "o"
        code = run_cli("train", "--config", cfg, "--out", str(out))
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (None, "No such file or directory"),
        ("not json", "Expecting value"),
        (json.dumps({**SMALL_WORLD_DOC, "obstacles": [{"y": 3.5, "r": 0.3}]}),
         "missing key 'x'"),
        (json.dumps({**SMALL_WORLD_DOC, "spec": {**SMALL_WORLD_DOC["spec"], "width_m": 0}}),
         "world dimensions must be positive"),
        ("[]", "not a world document"),
        (json.dumps({**SMALL_WORLD_DOC, "obstacles": [3]}), "not a world document"),
        (json.dumps({**SMALL_WORLD_DOC, "obstacles": {"x": 1}}), "not a world document"),
        (json.dumps({**SMALL_WORLD_DOC, "spec": [1]}), "not a world document"),
        (json.dumps({**SMALL_WORLD_DOC, "obstacles": [{"x": None, "y": 3.5, "r": 0.3}]}),
         "not a world document"),
        (json.dumps({**SMALL_WORLD_DOC, "spec": {**SMALL_WORLD_DOC["spec"], "width_m": None}}),
         "not a world document"),
    ], ids=["missing-file", "not-json", "obstacle-without-x", "zero-width", "json-list",
            "obstacle-not-object", "obstacles-not-list", "spec-not-object", "null-x",
            "null-width"])
    def test_bad_world_file_is_a_usage_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "world.json"
        if text is not None:
            path.write_text(text)
        cfg = write_config(tmp_path / "cfg", **TINY_TRAIN, world_file=str(path))
        out = tmp_path / "o"
        code = run_cli("train", "--config", cfg, "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: world file {str(path)!r}: ") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_training_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        cfg = write_config(tmp_path / "cfg", world_width=10, world_height=10,
                           obstacle_density=10.0, goal_row=5, goal_col=5,
                           max_steps_per_episode=12, exploration_train_interval=4,
                           batch_size=8, replay_capacity=64)
        src = os.path.dirname(os.path.dirname(gridnav.__file__))
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"blas{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            done = subprocess.run([sys.executable, "-m", "gridnav.cli", "train", "--config", cfg,
                                   "--seed", "7", "--episodes", "2", "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert done.returncode == EXIT_EPISODE_CAP, done.stderr
            artifacts.append([(out / name).read_bytes()
                              for name in ("training_log.csv", "checkpoint.npz")])
        assert artifacts[0] == artifacts[1]

    def test_drqn_runs_record_their_rule(self, tmp_path):
        train_out = tmp_path / "t"
        code = run_cli("train", "--config", write_config(tmp_path / "cfg", **TINY_TRAIN),
                       "--rule", "drqn100", "--seed", "1", "--out", str(train_out))
        assert code == EXIT_EPISODE_CAP
        _, _, extra = load_checkpoint(train_out / "checkpoint.npz")
        assert extra["rule"] == "drqn100"
        out = tmp_path / "e"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "ecfg", **EVAL_KEYS),
                       "--rule", "drqn100", "--checkpoint", str(train_out / "checkpoint.npz"),
                       "--missions", "1,1:8,8", "--seed", "2", "--out", str(out))
        assert code == EXIT_OK
        report = json.loads((out / "missions.json").read_text())["reports"][0]
        assert report["method"] == "drqn100"

@pytest.fixture(scope="module")
def trained_tiny(tmp_path_factory):
    """One cap-hit training run shared by the evaluate tests."""
    root = tmp_path_factory.mktemp("trained")
    cfg = write_config(root / "cfg", **TINY_TRAIN)
    code = run_cli("train", "--config", cfg, "--seed", "5", "--out", str(root))
    assert code == EXIT_EPISODE_CAP
    return root / "checkpoint.npz"


EVAL_KEYS = dict(
    world_width=10,
    world_height=10,
    obstacle_density=3.0,
    online_train_interval=100000,
    mission_step_budget=80,
)


@pytest.fixture(scope="module")
def trained_drqn(tmp_path_factory):
    root = tmp_path_factory.mktemp("drqn")
    code = run_cli("train", "--config", write_config(root / "cfg", **TINY_TRAIN),
                   "--rule", "drqn100", "--seed", "1", "--out", str(root))
    assert code == EXIT_EPISODE_CAP
    return root / "checkpoint.npz"


class TestEvaluate:
    def test_missing_checkpoint_is_a_usage_error(self, tmp_path, capsys):
        code = run_cli("evaluate", "--out", str(tmp_path / "o"))
        assert code == EXIT_USAGE
        code = run_cli("evaluate", "--checkpoint", str(tmp_path / "nope.npz"),
                       "--out", str(tmp_path / "o"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("damage, message", [
        (lambda params: params.pop("head_b"), "parameter 'head_b' is missing"),
        (lambda params: params.update(dense1_w=params["dense1_w"][:, :128]),
         "parameter 'dense1_w' has shape (6400, 128), the architecture needs (6400, 256)"),
    ], ids=["missing", "misshapen"])
    def test_checkpoint_that_does_not_fit_its_architecture_is_a_usage_error(
            self, tmp_path, capsys, trained_tiny, damage, message):
        with np.load(trained_tiny) as data:
            arrays = dict(data)
        params = {k.split("/", 1)[1]: arrays.pop(k) for k in list(arrays)
                  if k.startswith("param/")}
        damage(params)
        broken = tmp_path / "broken.npz"
        np.savez(broken, **arrays, **{f"param/{k}": v for k, v in params.items()})
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "cfg", **EVAL_KEYS),
                       "--checkpoint", str(broken), "--missions", "1,1:8,8", "--out", str(out))
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_with_other_adam_constants_is_a_usage_error(
            self, tmp_path, capsys, trained_tiny):
        with np.load(trained_tiny) as data:
            arrays = dict(data)
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["adam"]["beta2"] = 0.99
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        other = tmp_path / "other.npz"
        np.savez(other, **arrays)
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "cfg", **EVAL_KEYS),
                       "--checkpoint", str(other), "--missions", "1,1:8,8", "--out", str(out))
        assert code == EXIT_USAGE
        assert "beta2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("checkpoint, rule, message", [
        ("trained_tiny", "drqn100",
         "holds a feedforward network, rule drqn100 needs a recurrent one"),
        ("trained_drqn", "dqn", "holds a recurrent network, rule dqn needs a feedforward one"),
    ], ids=["feedforward-as-drqn100", "recurrent-as-dqn"])
    def test_checkpoint_that_does_not_fit_the_rule_is_a_usage_error(
            self, request, tmp_path, capsys, checkpoint, rule, message):
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "cfg", **EVAL_KEYS),
                       "--rule", rule, "--checkpoint", str(request.getfixturevalue(checkpoint)),
                       "--missions", "1,1:8,8", "--out", str(out))
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_mission_entry_is_a_usage_error(self, tmp_path, capsys, trained_tiny):
        out = tmp_path / "badm"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "cfg", **EVAL_KEYS),
                       "--checkpoint", str(trained_tiny), "--missions", "1,1:x",
                       "--out", str(out))
        assert code == EXIT_USAGE
        assert "bad mission entry '1,1:x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missions", ["1,1,1:5,5", "1:5,5", "150,150:5,5",
                                          "1,1:5,5;2,2:50,50"],
                             ids=["three-coordinates", "one-coordinate", "start-outside",
                                  "second-goal-outside"])
    def test_misshapen_or_outside_mission_entry_is_a_usage_error(
            self, tmp_path, capsys, trained_tiny, missions):
        """Every entry is checked, against the world's bounds too, before
        the first mission flies or any output exists; the last entry is the
        bad one."""
        entry = missions.split(";")[-1]
        out = tmp_path / "badm"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "cfg", **EVAL_KEYS),
                       "--checkpoint", str(trained_tiny), "--missions", missions,
                       "--out", str(out))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"bad mission entry {entry!r}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_single_mission_yields_one_row(self, tmp_path, trained_tiny):
        cfg = write_config(tmp_path / "cfg", **EVAL_KEYS)
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", cfg, "--checkpoint", str(trained_tiny),
                       "--missions", "1,1:8,8", "--seed", "6", "--out", str(out))
        assert code == EXIT_OK
        rows = (out / "missions.csv").read_text().splitlines()
        assert len(rows) == 2
        assert (out / "route_M1.svg").exists()

    def test_weather_flags_reach_the_report(self, tmp_path, trained_tiny):
        cfg = write_config(tmp_path / "cfg", **EVAL_KEYS)
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", cfg, "--checkpoint", str(trained_tiny),
                       "--missions", "1,1:8,8", "--weather", "fog", "--intensity",
                       "0.30", "--seed", "6", "--out", str(out))
        assert code == EXIT_OK
        assert ",fog30," in (out / "missions.csv").read_text().splitlines()[1]

    def test_reruns_are_byte_identical(self, tmp_path, trained_tiny):
        cfg = write_config(tmp_path / "cfg", **EVAL_KEYS)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli("evaluate", "--config", cfg, "--checkpoint",
                           str(trained_tiny), "--missions", "1,1:8,8;2,2:7,7",
                           "--seed", "7", "--out", str(out))
            assert code == EXIT_OK
            outputs.append(
                (
                    (out / "missions.csv").read_bytes(),
                    (out / "missions.json").read_bytes(),
                    (out / "route_M1.svg").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("scene, flags", [
        ({}, ("--weather", "snow", "--intensity", "0.30")),
        ({"domain": "savanna", "dynamic_count": 3}, ()),
    ], ids=["snow", "savanna"])
    def test_drqn_checkpoint_flies_in_snow_and_on_savanna(self, tmp_path, trained_drqn,
                                                          scene, flags):
        cfg = write_config(tmp_path / "cfg", **{**EVAL_KEYS, "mission_step_budget": 20, **scene})
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", cfg, "--rule", "drqn100", "--checkpoint",
                       str(trained_drqn), "--missions", "1,1:8,8", "--seed", "3",
                       "--out", str(out), *flags)
        assert code == EXIT_OK
        report = json.loads((out / "missions.json").read_text())["reports"][0]
        assert report["time_s"] > 0

    def test_budget_flag_sets_the_mission_step_budget(self, tmp_path, trained_tiny):
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", write_config(tmp_path / "cfg", **EVAL_KEYS),
                       "--checkpoint", str(trained_tiny), "--missions", "1,1:8,8",
                       "--budget", "3", "--out", str(out))
        assert code == EXIT_OK
        assert "mission_step_budget = 3\n" in (out / "effective_config.txt").read_text()
        assert json.loads((out / "missions.json").read_text())["reports"][0]["time_s"] == 3

    def test_full_sequence_runs_ten_scaled_missions(self, tmp_path, trained_tiny, monkeypatch):
        flights = []

        def recorded(spec, agent):
            report, flown, env = run_mission(spec, agent)
            flights.append((agent, flown))
            return report, flown, env

        monkeypatch.setattr(cli, "run_mission", recorded)
        cfg = write_config(tmp_path / "cfg", online_train_interval=100000,
                           obstacle_density=1.0, sequence_scale=0.05,
                           mission_step_budget=60)
        out = tmp_path / "o"
        code = run_cli("evaluate", "--config", cfg, "--checkpoint", str(trained_tiny),
                       "--seed", "8", "--out", str(out))
        assert code == EXIT_OK
        reports = json.loads((out / "missions.json").read_text())["reports"]
        assert [r["domain"].split(":")[1] for r in reports] == [t[0] for t in TEST_SEQUENCE]
        for r in reports:
            assert r["predictions"] + r["corrections"] + r["random"] == r["time_s"]
        # each mission starts from the agent the mission before it returned
        assert len(flights) == 10
        for (_, returned), (started, _) in zip(flights, flights[1:]):
            assert started is returned
        # only listed missions draw their route
        assert sorted(os.listdir(out)) == ["effective_config.txt", "missions.csv",
                                           "missions.json"]


class TestDecay:
    def test_outputs_both_rules(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("decay", "--updates", "10", "--out", str(out)) == EXIT_OK
        rows = list(csv.reader(io.StringIO((out / "decay.csv").read_text())))
        assert rows[0] == ["rule", "update", "q"]
        for rule in (UpdateRule.DDQN, UpdateRule.EDDQN):
            own = [r for r in rows[1:] if r[0] == rule.value]
            assert len(own) == 11  # initial row + 10 updates
            assert own[0][1:] == ["0", "-0.04"]
            assert [float(r[2]) for r in own] == decay_experiment(
                rule, gamma=0.95, alpha=0.5, updates=10).tolist()

    def test_zero_updates_gives_flat_single_rows(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("decay", "--updates", "0", "--out", str(out)) == EXIT_OK
        rows = (out / "decay.csv").read_text().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            fields = row.split(",")
            assert fields[1] == "0"
            assert all(float(v) == -0.04 for v in fields[2:])

    def test_rerun_is_byte_identical(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("decay", "--seed", "9", "--out", str(out)) == EXIT_OK
            blobs.append((out / "decay.csv").read_bytes())
        assert blobs[0] == blobs[1]
