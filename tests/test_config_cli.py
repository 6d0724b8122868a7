import copy
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from neurofl.cli import csv_header, main, sse_ratio
from neurofl.config import config_from_dict, load_config
from neurofl.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"


def minimal_config(**overrides):
    cfg = {"plant": {"name": "pendulum"}}
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


NOISE = {"kind": "band-limited-noise", "amplitude": 0.1, "cutoff_hz": 5.0}

# One row per value rule: the dotted key its message begins with, the one
# function that raises it (module.Class for a constructor's check), and the
# sections that break it. Config checks only the JSON's shape and names the
# key of a library ValueError.
VALUE_RULES = [
    ("controller.lambda", "dynamics.GainVector", {"controller": {"lambda": 0.0}}),
    ("controller.mode", "controller.ControllerState", {"controller": {"mode": "adaptive"}}),
    ("controller.u_limit", "controller.ControllerState", {"controller": {"u_limit": -1.0}}),
    ("controller.network.eta", "rbf.RbfNetwork", {"controller": {"network": {"eta": 0.0}}}),
    ("controller.network.kappa", "rbf.RbfNetwork", {"controller": {"network": {"kappa": -0.5}}}),
    ("controller.network.weight_cap", "rbf.RbfNetwork", {"controller": {"network": {"weight_cap": 0.0}}}),
    ("controller.network.neurons", "rbf.default_network", {"controller": {"network": {"neurons": 0}}}),
    ("controller.network.s_range", "rbf.default_network", {"controller": {"network": {"s_range": -1.0}}}),
    ("simulation.T", "simulation._control_steps", {"simulation": {"T": 0.0}}),
    ("simulation.dt_ctrl", "simulation._control_steps", {"simulation": {"dt_ctrl": -1e-3}}),
    ("simulation.substeps", "simulation._control_steps", {"simulation": {"substeps": 0}}),
    ("simulation.x0", "simulation._initial_state", {"simulation": {"x0": [0.1]}}),
    ("simulation.x0", "simulation._initial_state", {"simulation": {"x0": [2e9, 0.0]}}),
    ("disturbance.offset", "plants.DisturbanceSpec", {"disturbance": {"kind": "constant", "offset": 1, "bound": 0.5}}),
    (
        "disturbance.amplitude",
        "plants.DisturbanceSpec",
        {"disturbance": {"kind": "sinusoid", "amplitude": 1.0, "frequency_hz": 1.0, "bound": 0.5}},
    ),
    ("disturbance.cutoff_hz", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "cutoff_hz": 0}}),
    ("disturbance.amplitude", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "amplitude": -0.1}}),
    ("disturbance.sample_dt", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "sample_dt": 0}}),
    ("disturbance.bound", "plants.DisturbanceSpec", {"disturbance": {"kind": "constant", "offset": 0.0, "bound": -1.0}}),
    ("reference.omega", "simulation._sinusoid_terms", {"reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1e200}}),
    (
        "reference.components",
        "simulation._sinusoid_terms",
        {"reference": {"kind": "sum-of-sinusoids", "components": [{"amplitude": 1.0, "omega": 1e200}]}},
    ),
    # a JSON integer has no size limit, and this one is beyond the float range
    ("controller.lambda", "config._number", {"controller": {"lambda": 10**400}}),
]


def raised_in(exc: BaseException) -> str:
    """module.function where exc was raised, or module.Class for a check in
    a dataclass's __post_init__."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    name = code.co_name
    if name == "__post_init__":
        name = type(tb.tb_frame.f_locals["self"]).__name__
    return f"{Path(code.co_filename).stem}.{name}"


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
@pytest.mark.parametrize(
    "key, home, sections", VALUE_RULES, ids=[f"{i}-{key}" for i, (key, _, _) in enumerate(VALUE_RULES)]
)
def test_value_rule_has_one_home_and_names_its_key(key, home, sections, mode):
    raw = minimal_config(**copy.deepcopy(sections))
    raw.setdefault("controller", {}).setdefault("mode", mode)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"{key}: "), str(exc.value)
    # a library rule reaches config as the cause of the ConfigError
    assert raised_in(exc.value.__cause__ or exc.value) == home


class TestConfigValidation:
    def test_minimal_config_gets_defaults(self):
        cfg = config_from_dict(minimal_config())
        assert cfg.plant_name == "pendulum"
        assert cfg.plant_params == {"m": 1.0, "l": 1.0, "c": 0.0, "g": 9.81}
        assert cfg.disturbance == {"kind": "none"}
        assert cfg.reference == {"kind": "constant", "level": 0.0}
        assert cfg.mode == "baseline"
        assert cfg.lam == 1.0
        assert cfg.T == 10.0 and cfg.dt_ctrl == 1e-3 and cfg.substeps == 1
        assert cfg.x0 is None and cfg.seed == 0

    def test_negative_lambda_names_key_and_constraint(self):
        with pytest.raises(ConfigError, match=r"lambda.*must be > 0"):
            config_from_dict(minimal_config(controller={"lambda": -1.0}))

    def test_lambda_beyond_float_range_names_key(self):
        with pytest.raises(ConfigError, match=r"controller\.lambda: lambda=1e\+200 gives order-2 gains"):
            config_from_dict(minimal_config(controller={"lambda": 1e200}))
        # the gains of 1e150 are finite, and checking them warns of no overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config_from_dict(minimal_config(controller={"lambda": 1e150})).lam == 1e150

    def test_unknown_key_suggests_neighbour(self):
        with pytest.raises(ConfigError, match=r"unknown key 'lamda'.*did you mean 'lambda'"):
            config_from_dict(minimal_config(controller={"lamda": 2.0}))

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match=r"unknown key 'plnt'.*did you mean 'plant'"):
            config_from_dict({"plnt": {"name": "pendulum"}, "plant": {"name": "pendulum"}})

    def test_unknown_plant(self):
        with pytest.raises(ConfigError, match=r"plant\.name"):
            config_from_dict({"plant": {"name": "rocket"}})

    def test_unknown_plant_param(self):
        with pytest.raises(ConfigError, match=r"unknown key 'mass'"):
            config_from_dict({"plant": {"name": "pendulum", "params": {"mass": 2.0}}})

    def test_bad_plant_param_value(self):
        with pytest.raises(ConfigError, match=r"mass and length"):
            config_from_dict({"plant": {"name": "pendulum", "params": {"m": -1.0}}})

    def test_missing_plant_section(self):
        with pytest.raises(ConfigError, match=r"plant.*missing"):
            config_from_dict({})

    def test_bad_disturbance_kind(self):
        with pytest.raises(ConfigError, match="disturbance.kind"):
            config_from_dict(minimal_config(disturbance={"kind": "steps"}))

    def test_sinusoid_disturbance_requires_frequency(self):
        with pytest.raises(ConfigError, match="frequency_hz"):
            config_from_dict(minimal_config(disturbance={"kind": "sinusoid", "amplitude": 1.0}))

    def test_x0_length_checked(self):
        with pytest.raises(ConfigError, match="x0"):
            config_from_dict(minimal_config(simulation={"x0": [0.1]}))

    def test_network_validation(self):
        with pytest.raises(ConfigError, match=r"neurons"):
            config_from_dict(
                minimal_config(controller={"mode": "compensated", "network": {"neurons": 0}})
            )
        with pytest.raises(ConfigError, match=r"eta.*must be > 0"):
            config_from_dict(
                minimal_config(controller={"mode": "compensated", "network": {"eta": -2.0}})
            )

    def test_leakage_step_must_decay(self):
        # kappa 1e4 at dt_ctrl 1e-3 grew the weights to inf; 2000 does not
        # decay either. Compare runs both modes, so both are checked.
        for kappa in (1e4, 2000.0):
            for mode in ("baseline", "compensated"):
                raw = minimal_config(
                    controller={"mode": mode, "lambda": 2.0, "network": {"kappa": kappa}},
                    simulation={"T": 1.0, "dt_ctrl": 1e-3, "x0": [0.5, 0.0]},
                )
                with pytest.raises(ConfigError, match=r"controller\.network\.kappa: dt_ctrl\*kappa must be < 2"):
                    config_from_dict(raw)
        raw["controller"]["network"]["kappa"] = 1500.0
        assert config_from_dict(raw).network.kappa == 1500.0

    def test_dt_and_T_validation(self):
        with pytest.raises(ConfigError, match=r"dt_ctrl.*must be > 0"):
            config_from_dict(minimal_config(simulation={"dt_ctrl": 0.0}))
        with pytest.raises(ConfigError, match=r"T.*must be > 0"):
            config_from_dict(minimal_config(simulation={"T": -1.0}))
        with pytest.raises(ConfigError, match=r"substeps"):
            config_from_dict(minimal_config(simulation={"substeps": 0}))

    def test_T_must_be_whole_number_of_dt_ctrl(self):
        # T = 1.0 at dt_ctrl = 0.3 would end the run at t = 0.9
        with pytest.raises(ConfigError, match=r"simulation\.T: must be a whole number of dt_ctrl"):
            config_from_dict(minimal_config(simulation={"T": 1.0, "dt_ctrl": 0.3}))
        with pytest.raises(ConfigError, match=r"simulation\.T"):
            config_from_dict(minimal_config(simulation={"T": 0.5, "dt_ctrl": 1.0}))
        # quotients off an integer by rounding only pass: 0.08/1e-3 = 80.00000000000001
        for T, dt in ((0.08, 1e-3), (0.3, 1e-2), (2.0, 0.01), (1.0, 0.1), (0.9, 0.3)):
            assert config_from_dict(minimal_config(simulation={"T": T, "dt_ctrl": dt})).T == T

    def test_x0_beyond_divergence_limit_rejected(self):
        with pytest.raises(ConfigError, match=r"simulation\.x0: entries must not exceed 1e\+09"):
            config_from_dict(minimal_config(simulation={"x0": [1e307, 1e307]}))
        with pytest.raises(ConfigError, match=r"simulation\.x0"):
            config_from_dict(minimal_config(simulation={"x0": [0.0, -1.5e9]}))
        assert config_from_dict(minimal_config(simulation={"x0": [1e9, -1e9]})).x0 == (1e9, -1e9)

    def test_integer_beyond_float_range_names_key(self, tmp_path):
        # float() of a 401-digit JSON integer raises OverflowError
        huge = 10**400
        cases = (
            ("controller.lambda", {"controller": {"lambda": huge}}),
            ("plant.params.m", {"plant": {"name": "pendulum", "params": {"m": huge}}}),
            ("simulation.x0[1]", {"simulation": {"x0": [0.0, -huge]}}),
        )
        for key, sections in cases:
            path = write_config(tmp_path, minimal_config(**sections))
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: integer is beyond the float range$"):
                load_config(path)
            assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(minimal_config(seed=1.5))

    def test_round_trip(self):
        raw = {
            "name": "roundtrip",
            "seed": 3,
            "plant": {"name": "duffing", "params": {"a": 0.3}},
            "disturbance": {"kind": "sinusoid", "amplitude": 0.5, "frequency_hz": 1.0, "phase": 0.1},
            "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 2.0, "phase": 0.0},
            "controller": {
                "mode": "compensated",
                "lambda": 3.0,
                "u_limit": 20.0,
                "network": {"neurons": 7, "s_range": 2.0, "eta": 10.0, "kappa": 0.1},
            },
            "simulation": {"T": 5.0, "dt_ctrl": 0.01, "substeps": 2, "x0": [0.1, 0.2]},
            "output": {"dir": "somewhere"},
        }
        cfg = config_from_dict(raw)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_load_config_reports_parse_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"plant": }', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 1 column 11"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


class TestCsvContract:
    def test_header_order(self):
        assert csv_header(2) == [
            "t", "x0", "x1", "xd0", "xd1", "u", "s", "d_hat", "d_true", "w_norm", "event",
        ]

    def test_header_scales_with_order(self):
        assert csv_header(3)[:7] == ["t", "x0", "x1", "x2", "xd0", "xd1", "xd2"]


class TestSseRatio:
    def test_zero_over_zero_reads_as_one(self):
        assert sse_ratio(0.0, 0.0) == 1.0

    def test_regular_ratio(self):
        assert sse_ratio(0.125, -0.0125) == pytest.approx(10.0)

    def test_perfect_compensation(self):
        assert sse_ratio(0.125, 0.0) == math.inf


class TestCmdSimulate:
    def test_zero_everything_writes_zero_csv(self, tmp_path):
        cfg = minimal_config(
            reference={"kind": "constant", "level": 0.0},
            simulation={"T": 0.5, "dt_ctrl": 0.01, "x0": [0.0, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(csv_header(2))
        assert len(lines) == 52  # header + floor(0.5/0.01)+1 records
        for line in lines[1:]:
            cells = line.split(",")
            assert all(float(c) == 0.0 for c in cells[1:-1])
            assert cells[-1] == ""
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["bounded"] is True
        assert metrics["rms_error"] == 0.0
        assert metrics["terminal_event"] is None

    def test_diverging_config_exits_with_fault(self, tmp_path):
        # receptive field wide enough to keep pumping as the state runs away;
        # the same config with a small learning rate stays bounded
        cfg = minimal_config(
            plant={"name": "pendulum", "params": {"c": 0.1}},
            disturbance={"kind": "constant", "offset": 0.5},
            controller={
                "mode": "compensated",
                "lambda": 2.0,
                "network": {"neurons": 9, "s_range": 1e12, "eta": 1e8},
            },
            simulation={"T": 2.0, "dt_ctrl": 0.01, "x0": [0.5, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "diverged"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 3
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["terminal_event"] == "divergence"
        assert metrics["bounded"] is False

        cfg["controller"]["network"]["eta"] = 5.0
        cfg["controller"]["network"]["s_range"] = 1.0
        path2 = write_config(tmp_path, cfg, "tame.json")
        assert main(["simulate", "--config", str(path2), "--out-dir", str(tmp_path / "tame")]) == 0

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, minimal_config(controller={"lambda": -1.0}))
        assert main(["simulate", "--config", str(path)]) == 2

    def test_io_error_exit_code(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}))
        assert main(["simulate", "--config", str(path), "--out-dir", str(blocker)]) == 4

    def test_golden_run_matches_frozen_file(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(GOLDEN / "golden_config.json"),
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        got = (tmp_path / "trajectory.csv").read_bytes()
        assert got == (GOLDEN / "compensated.csv").read_bytes()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROFL_OUT_DIR", str(tmp_path / "envout"))
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()


class TestCmdCompare:
    def test_identical_when_nothing_to_compensate(self, tmp_path):
        cfg = minimal_config(
            reference={"kind": "constant", "level": 0.0},
            controller={"lambda": 2.0, "network": {"neurons": 5}},
            simulation={"T": 0.5, "dt_ctrl": 0.01, "x0": [0.0, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 0
        base = (out / "baseline.csv").read_bytes()
        comp = (out / "compensated.csv").read_bytes()
        assert base == comp
        combined = json.loads((out / "compare_metrics.json").read_text())
        assert combined["sse_ratio"] == 1.0

    def test_compensation_beats_baseline_under_constant_load(self, tmp_path):
        cfg = {
            "plant": {"name": "pendulum", "params": {"c": 0.0}},
            "disturbance": {"kind": "constant", "offset": 0.5},
            "reference": {"kind": "constant", "level": 0.0},
            "controller": {
                "mode": "baseline",
                "lambda": 2.0,
                "network": {"neurons": 11, "s_range": 0.5, "eta": 20.0, "kappa": 0.0},
            },
            "simulation": {"T": 10.0, "dt_ctrl": 0.005, "x0": [0.0, 0.0]},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 0
        combined = json.loads((out / "compare_metrics.json").read_text())
        sse_b = combined["baseline"]["steady_state_error"]
        sse_c = combined["compensated"]["steady_state_error"]
        assert sse_b == pytest.approx(0.125, rel=0.01)
        assert abs(sse_c) <= abs(sse_b) / 10.0

    def test_golden_compare_matches_frozen_files(self, tmp_path):
        assert (
            main(
                [
                    "compare",
                    "--config",
                    str(GOLDEN / "golden_config.json"),
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        for name in ("baseline.csv", "compensated.csv"):
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "neurofl" in capsys.readouterr().out
