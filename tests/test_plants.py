import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from neurofl.dynamics import StateVector
from neurofl import plants
from neurofl.errors import ControllabilityFault
from neurofl.plants import (
    MAX_NOISE_SAMPLES,
    DisturbanceSpec,
    Expression,
    _noise_sample_count,
    _noise_series,
    PlantModel,
    constant_disturbance,
    disturbance_sample,
    disturbance_sampler,
    duffing_plant,
    no_disturbance,
    noise_disturbance,
    pendulum_plant,
    sinusoid_disturbance,
    vanderpol_plant,
)
from neurofl.simulation import _plant_deriv


def integrator_plant(order=2, b=1.0):
    return PlantModel(
        order=order,
        f_eval=lambda x, t: 0.0,
        b_eval=lambda x, t: b,
        b_min=abs(b) / 2.0,
        name="integrator",
    )


def highest_derivative(plant, y, u, d, t):
    """x^(n) = f(x,t) + b(x,t)*u + d, as the integrator's right-hand side
    evaluates it."""
    return _plant_deriv(plant, u, lambda tau: d)(list(y), t)


class TestEvalDynamics:
    def test_trivial_plant(self):
        assert highest_derivative(integrator_plant(), [0.0, 0.0], 0.0, 0.0, 0.0) == 0.0

    def test_pendulum_at_rest_with_unit_input(self):
        p = pendulum_plant(m=2.0, l=0.5, c=0.1, g=9.81)
        got = highest_derivative(p, [0.0, 0.0], 1.0, 0.0, 0.0)
        assert got == pytest.approx(1.0 / (2.0 * 0.5**2), rel=1e-15)

    def test_pendulum_horizontal_gravity_torque(self):
        p = pendulum_plant(m=1.0, l=1.0, c=0.0, g=9.81)
        got = highest_derivative(p, [math.pi / 2, 0.0], 0.0, 0.0, 0.0)
        assert got == pytest.approx(-9.81, rel=1e-15)

    def test_b_guard_fault_carries_state_and_time(self):
        p = PlantModel(
            order=2,
            f_eval=lambda x, t: 0.0,
            b_eval=lambda x, t: 0.1,
            b_min=0.5,
            name="weak",
        )
        with pytest.raises(ControllabilityFault) as exc:
            highest_derivative(p, [1.0, 2.0], 1.0, 0.0, 3.5)
        np.testing.assert_array_equal(exc.value.state, [1.0, 2.0])
        assert exc.value.t == 3.5

    def test_affine_in_u_with_slope_b(self):
        for plant in (pendulum_plant(), duffing_plant(), vanderpol_plant(gain=-2.5)):
            x = [0.4, -0.3]
            at0 = highest_derivative(plant, x, 0.0, 0.2, 1.0)
            at1 = highest_derivative(plant, x, 1.0, 0.2, 1.0)
            assert at1 - at0 == pytest.approx(plant.b_eval(x, 1.0), rel=1e-12)


class TestPendulumPlant:
    def test_upright_damping_only(self):
        p = pendulum_plant(m=1.0, l=1.0, c=0.3, g=9.81)
        for v in (-2.0, 0.0, 1.5):
            assert p.f_eval(StateVector([0.0, v]), 0.0) == pytest.approx(-0.3 * v, abs=1e-15)

    def test_b_is_state_independent(self):
        p = pendulum_plant(m=1.3, l=0.7)
        xs = [StateVector([0.0, 0.0]), StateVector([1.0, -5.0]), StateVector([-2.0, 3.0])]
        assert len({p.b_eval(x, 0.0) for x in xs}) == 1

    def test_inverted_position_is_equilibrium(self):
        p = pendulum_plant(c=0.0)
        assert p.f_eval(StateVector([math.pi, 0.0]), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_domain_errors(self):
        # each message begins with the parameter's key
        with pytest.raises(ValueError, match=r"^m: must be > 0$"):
            pendulum_plant(m=0.0)
        with pytest.raises(ValueError, match=r"^l: must be > 0$"):
            pendulum_plant(l=-1.0)
        with pytest.raises(ValueError, match=r"^c: must be >= 0$"):
            pendulum_plant(c=-0.1)
        with pytest.raises(ValueError, match=r"^g: must be >= 0$"):
            pendulum_plant(g=-9.81)
        # m*l^2 overflows (input gain 0) or underflows (division by zero)
        for m, l in ((1e300, 1e300), (1e-200, 1e-100), (1e-300, 1e-10)):
            with pytest.raises(ValueError, match=r"^m: m\*l\^2 = "):
                pendulum_plant(m=m, l=l)


class TestDuffingPlant:
    def test_origin(self):
        assert duffing_plant().f_eval(StateVector([0.0, 0.0]), 0.0) == 0.0

    def test_hand_value(self):
        p = duffing_plant(a=0.2, b1=1.0, b2=1.0)
        assert p.f_eval(StateVector([2.0, 0.0]), 0.0) == pytest.approx(-10.0, rel=1e-15)

    def test_odd_symmetry(self):
        p = duffing_plant(a=0.2, b1=1.0, b2=1.0)
        x = StateVector([0.7, -1.2])
        neg = StateVector([-0.7, 1.2])
        assert p.f_eval(neg, 0.0) == pytest.approx(-p.f_eval(x, 0.0), rel=1e-14)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            duffing_plant(gain=0.0)


class TestVanderpolPlant:
    def test_origin(self):
        assert vanderpol_plant().f_eval(StateVector([0.0, 0.0]), 0.0) == 0.0

    def test_unit_amplitude_kills_damping(self):
        p = vanderpol_plant(mu=1.0)
        assert p.f_eval(StateVector([1.0, 5.0]), 0.0) == pytest.approx(-1.0, rel=1e-15)

    def test_hand_value(self):
        p = vanderpol_plant(mu=2.0)
        assert p.f_eval(StateVector([0.5, 1.0]), 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_zero_gain_rejected(self):
        with pytest.raises(ValueError):
            vanderpol_plant(gain=0.0)


def closure_terms(kind, params):
    """Independent copies of the f and b closures the plant builders returned
    before their terms were Expressions."""
    if kind == "pendulum":
        m, l, c, g = params["m"], params["l"], params["c"], params["g"]
        b = 1.0 / (m * l * l)
        return (lambda x, t: -(g / l) * math.sin(x[0]) - c * x[1]), (lambda x, t: b)
    if kind == "duffing":
        a, b1, b2, gain = params["a"], params["b1"], params["b2"], params["gain"]
        return (lambda x, t: -a * x[1] - b1 * x[0] - b2 * x[0] ** 3), (lambda x, t: gain)
    mu, gain = params["mu"], params["gain"]
    return (lambda x, t: mu * (1.0 - x[0] ** 2) * x[1] - x[0]), (lambda x, t: gain)


def evaluation(fn, x):
    """The bits fn(x, 0.3) returns, or the error it raises."""
    try:
        return ("ok", np.float64(fn(x, 0.3)).view(np.int64).item())
    except (ArithmeticError, ValueError) as exc:
        return (type(exc), str(exc))


class TestPlantsAsData:
    @pytest.mark.parametrize(
        "kind, build",
        [
            ("pendulum", lambda: pendulum_plant(m=1.3, l=0.7, c=0.2, g=9.81)),
            ("duffing", lambda: duffing_plant(a=0.3, b1=-1.1, b2=2.5, gain=-0.8)),
            ("vanderpol", lambda: vanderpol_plant(mu=1.7, gain=0.6)),
        ],
    )
    def test_expression_matches_the_closure_bitwise(self, kind, build):
        # signed magnitudes from 1e-300 to 1e200 with +-0.0, and values near
        # where x**2 and x**3 leave the float range, as the interval passes
        # them (a tuple of Python floats) and as the control law does (an array)
        plant = build()
        f_closure, b_closure = closure_terms(kind, plant.params)
        rng = np.random.default_rng(26)
        count = 4000
        x = 10.0 ** rng.uniform(-300, 200, (count, 2)) * rng.choice([-1.0, 1.0], (count, 2))
        x[rng.random((count, 2)) < 0.1] = 0.0
        x[rng.random((count, 2)) < 0.1] = -0.0
        edge = rng.random(count) < 0.2
        x[edge, 0] = rng.choice([1.0, -1.0], edge.sum()) * 10.0 ** rng.uniform(101.5, 103.0, edge.sum())
        edge = rng.random(count) < 0.1
        x[edge, 0] = rng.choice([1.0, -1.0], edge.sum()) * 10.0 ** rng.uniform(153.5, 155.0, edge.sum())
        kinds = set()
        with np.errstate(over="ignore", invalid="ignore"):
            for row in x:
                for state in (tuple(row.tolist()), row):
                    got = evaluation(plant.f_eval, state)
                    assert got == evaluation(f_closure, state), state
                    assert evaluation(plant.b_eval, state) == evaluation(b_closure, state)
                    kinds.add(got[0])
        assert "ok" in kinds and (kind == "pendulum" or OverflowError in kinds)

    def test_expression_reads_only_the_state_it_names(self):
        e = Expression("k * x2 - sin(t)", {"k": 2.0, "sin": math.sin})
        assert set(e.names) == {"k", "x2", "sin", "t"}
        assert e((None, None, 1.5), 0.0) == 3.0


class TestDisturbances:
    def test_none_is_zero(self):
        spec = no_disturbance()
        for t in (0.0, 1.0, 17.3):
            assert disturbance_sample(spec, t) == 0.0

    def test_constant(self):
        spec = constant_disturbance(0.5)
        for t in (0.0, 1.0, 17.3):
            assert disturbance_sample(spec, t) == 0.5

    def test_sinusoid_quarter_period(self):
        spec = sinusoid_disturbance(1.0, 1.0)
        assert disturbance_sample(spec, 0.25) == pytest.approx(1.0, rel=1e-12)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            disturbance_sample(no_disturbance(), -0.1)

    @pytest.mark.parametrize(
        "spec",
        [
            constant_disturbance(-0.7),
            sinusoid_disturbance(0.9, 2.3, phase=0.4),
            noise_disturbance(1.2, cutoff_hz=5.0, seed=21),
        ],
    )
    def test_bound_holds_on_sampled_grid(self, spec):
        ts = np.linspace(0.0, 20.0, 4001)
        d = disturbance_sampler(spec, ts[-1])
        samples = np.array([d(t) for t in ts])
        assert np.all(np.abs(samples) <= spec.bound + 1e-15)

    def test_noise_is_reproducible(self):
        a = noise_disturbance(1.0, cutoff_hz=4.0, seed=123)
        b = noise_disturbance(1.0, cutoff_hz=4.0, seed=123)
        ts = np.arange(0.0, 0.5, 1e-3)
        da, db = disturbance_sampler(a, ts[-1]), disturbance_sampler(b, ts[-1])
        assert [da(t) for t in ts] == [db(t) for t in ts]

    def test_noise_seed_changes_signal(self):
        a = noise_disturbance(1.0, cutoff_hz=4.0, seed=1)
        b = noise_disturbance(1.0, cutoff_hz=4.0, seed=2)
        ts = np.arange(0.0, 0.2, 1e-3)
        da, db = disturbance_sampler(a, ts[-1]), disturbance_sampler(b, ts[-1])
        assert [da(t) for t in ts] != [db(t) for t in ts]

    def test_noise_prefix_stable_under_cache_growth(self):
        # reading a late sample first must not change earlier samples
        a = noise_disturbance(1.0, cutoff_hz=4.0, seed=9)
        b = noise_disturbance(1.0, cutoff_hz=4.0, seed=9)
        late = disturbance_sample(a, 30.0)
        early_a = [disturbance_sample(a, t) for t in (0.0, 0.01, 0.25)]
        early_b = [disturbance_sample(b, t) for t in (0.0, 0.01, 0.25)]
        assert early_a == early_b
        assert disturbance_sample(b, 30.0) == late

    @pytest.mark.parametrize("seed", [0, 9, 123])
    def test_noise_matches_first_order_filter_bitwise(self, seed):
        # the seeded uniform drive through level += beta * (drive - level),
        # one numpy scalar at a time, then clamped to the bound
        spec = noise_disturbance(0.8, cutoff_hz=3.0, seed=seed, sample_dt=1e-3, bound=0.3)
        drive = np.random.default_rng(seed).uniform(-0.8, 0.8, size=4096)
        beta = 1.0 - math.exp(-2.0 * math.pi * 3.0 * 1e-3)
        level = 0.0
        expected = []
        for i in range(drive.size):
            level += beta * (drive[i] - level)
            expected.append(min(max(level, -0.3), 0.3))
        d = disturbance_sampler(spec, (drive.size - 1) * 1e-3)
        assert [d(k * 1e-3) for k in range(drive.size)] == expected

    def test_noise_holds_between_grid_points(self):
        spec = noise_disturbance(1.0, cutoff_hz=4.0, seed=5, sample_dt=0.01)
        assert disturbance_sample(spec, 0.020) == disturbance_sample(spec, 0.0299)

    @pytest.mark.parametrize(
        "spec",
        [
            no_disturbance(),
            constant_disturbance(-0.7),
            sinusoid_disturbance(0.9, 2.3, phase=0.4),
            noise_disturbance(1.2, cutoff_hz=5.0, seed=21, sample_dt=3e-3),
        ],
        ids=lambda spec: spec.kind,
    )
    def test_run_sampler_matches_disturbance_sample_bitwise(self, spec):
        # a sampler's values do not depend on the horizon it was built for
        ts = [k * 2.5e-4 for k in range(4001)]
        d = disturbance_sampler(spec, ts[-1])
        got = [d(t) for t in ts]
        assert got == [disturbance_sample(spec, t) for t in ts]
        assert all(type(v) is float for v in got)

    def test_run_sampler_matches_written_out_formulas_bitwise(self):
        ts = [k * 2.5e-4 for k in range(4001)]
        d = disturbance_sampler(sinusoid_disturbance(0.9, 2.3, phase=0.4), ts[-1])
        assert [d(t) for t in ts] == [0.9 * math.sin(2.0 * math.pi * 2.3 * t + 0.4) for t in ts]
        d = disturbance_sampler(constant_disturbance(-0.7), ts[-1])
        assert [d(t) for t in ts] == [-0.7] * len(ts)
        d = disturbance_sampler(no_disturbance(), ts[-1])
        assert [d(t) for t in ts] == [0.0] * len(ts)
        # noise: the filtered grid sample at or before t, held in between
        spec = noise_disturbance(1.2, cutoff_hz=5.0, seed=21, sample_dt=3e-3)
        series = _noise_series(spec, 400)
        d = disturbance_sampler(spec, ts[-1])
        assert [d(t) for t in ts] == [float(series[math.floor(t / 3e-3 + 1e-9)]) for t in ts]

    def test_run_sampler_generates_exactly_the_horizon(self, monkeypatch):
        lengths = []

        def recording(spec, count):
            lengths.append(count)
            return _noise_series(spec, count)

        monkeypatch.setattr(plants, "_noise_series", recording)
        spec = noise_disturbance(1.0, cutoff_hz=4.0, seed=5, sample_dt=3e-3)
        d = disturbance_sampler(spec, 0.1)  # 0.1 s ends a third of the way into sample 33
        assert lengths == [34]
        assert d(0.1) == disturbance_sample(spec, 0.1)
        with pytest.raises(IndexError):
            d(0.102)
        disturbance_sampler(noise_disturbance(1.0, cutoff_hz=4.0, sample_dt=1e-3), 0.08)
        assert lengths[-1] == 81

    def test_noise_beyond_the_sample_limit_is_rejected_before_allocating(self, monkeypatch):
        monkeypatch.setattr(plants, "_noise_series", lambda spec, count: pytest.fail("allocated"))
        spec = noise_disturbance(0.1, cutoff_hz=5.0, sample_dt=1e-300)
        for t_end in (1.0, 1e300):
            with pytest.raises(ValueError, match=r"^sample_dt: a run to t = "):
                disturbance_sampler(spec, t_end)
        # floor(t_end/sample_dt + 1e-9) + 1 samples, up to the limit itself
        spec = noise_disturbance(0.1, cutoff_hz=5.0, sample_dt=1.0)
        assert _noise_sample_count(spec, MAX_NOISE_SAMPLES - 1.0) == MAX_NOISE_SAMPLES
        with pytest.raises(ValueError, match=r"^sample_dt: "):
            _noise_sample_count(spec, float(MAX_NOISE_SAMPLES))
        assert _noise_sample_count(constant_disturbance(0.1), 1e300) == 0

    def test_run_sampler_rejects_reads_before_zero(self):
        d = disturbance_sampler(noise_disturbance(1.0, cutoff_hz=4.0, seed=1), 1.0)
        with pytest.raises(IndexError):
            d(-0.5)
        assert d(0.0) == disturbance_sample(noise_disturbance(1.0, cutoff_hz=4.0, seed=1), 0.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DisturbanceSpec(kind="wobble", bound=1.0)
        with pytest.raises(ValueError):
            constant_disturbance(2.0, bound=1.0)
        with pytest.raises(ValueError):
            sinusoid_disturbance(2.0, 1.0, bound=1.0)
        with pytest.raises(ValueError):
            noise_disturbance(1.0, cutoff_hz=0.0)
        with pytest.raises(ValueError):
            noise_disturbance(1.0, cutoff_hz=1.0, sample_dt=0.0)
        with pytest.raises(ValueError, match=r"^seed: must be >= 0 for noise$"):
            noise_disturbance(1.0, cutoff_hz=1.0, seed=-1)

    @pytest.mark.parametrize(
        "frequency_hz, phase, t_end",
        [(1e308, 0.0, 0.0), (1e308, 0.0, 0.01), (1e307, 0.0, 10.0), (1e307, 1.7e308, 1.0)],
    )
    def test_sinusoid_angle_must_stay_finite_up_to_the_horizon(self, frequency_hz, phase, t_end):
        # math.sin of an infinite or NaN angle raised a bare math domain
        # error in the middle of a run
        spec = sinusoid_disturbance(0.1, frequency_hz, phase=phase, bound=0.5)
        with pytest.raises(ValueError, match=r"^frequency_hz: 2\*pi\*frequency_hz\*t \+ phase must stay finite"):
            disturbance_sampler(spec, t_end)
        with pytest.raises(ValueError, match=r"^frequency_hz: "):
            disturbance_sample(spec, t_end)

    def test_sinusoid_angle_within_the_float_range_runs(self):
        d = disturbance_sampler(sinusoid_disturbance(0.1, 1e307, bound=0.5), 2.0)
        assert all(abs(d(t)) <= 0.1 for t in (0.0, 1.0, 2.0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "key, build",
        [
            ("offset", lambda v: constant_disturbance(v, bound=0.5)),
            ("amplitude", lambda v: sinusoid_disturbance(v, 1.0, bound=0.5)),
            ("frequency_hz", lambda v: sinusoid_disturbance(0.1, v, bound=0.5)),
            ("phase", lambda v: sinusoid_disturbance(0.1, 1.0, phase=v, bound=0.5)),
            ("amplitude", lambda v: noise_disturbance(v, 5.0, bound=0.5)),
            ("cutoff_hz", lambda v: noise_disturbance(0.1, v)),
            ("sample_dt", lambda v: noise_disturbance(0.1, 5.0, sample_dt=v)),
        ],
        ids=["offset", "amplitude", "frequency_hz", "phase", "noise-amplitude", "cutoff_hz", "sample_dt"],
    )
    def test_non_finite_fields_are_rejected(self, key, build, value):
        # a NaN offset passes |offset| <= bound, and an infinite frequency
        # would fail in math.sin in the middle of a run
        with pytest.raises(ValueError, match=rf"^{key}: must be finite$"):
            build(value)


# SeedSequence splits a seed into 32-bit words: seeds at and past word boundaries, and
# 20 derandomized seeds of 3 to 250 bits
DRIVE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 5] + [
    random.Random(seed).getrandbits(bits) for seed, bits in enumerate(range(3, 260, 13))
]
SRC = Path(__file__).resolve().parent.parent / "src"


class TestNoiseDrive:
    """The noise's uniform drive is numpy's PCG64 default_rng(seed).uniform
    stream, reproduced without numpy.random, which a run never imports."""

    @pytest.mark.parametrize("amplitude", [0.0, 5e-324, 0.3, 4e307])
    @pytest.mark.parametrize("seed", DRIVE_SEEDS)
    def test_drive_matches_numpy_generator_bitwise(self, seed, amplitude):
        for n in (0, 1, 4096):
            expected = np.random.default_rng(seed).uniform(-amplitude, amplitude, size=n)
            got = np.array(list(itertools.islice(plants._uniform_draws(seed, -amplitude, amplitude), n)), dtype=float)
            assert got.tobytes() == expected.tobytes()

    def test_drive_range_beyond_the_float_range_is_rejected(self):
        # numpy's uniform(-a, a) raised OverflowError, the owned stream would give NaN
        widest = sys.float_info.max / 2.0
        with pytest.raises(ValueError, match=r"^amplitude: the drive's range 2\*amplitude must be finite"):
            noise_disturbance(math.nextafter(widest, math.inf), cutoff_hz=2.0)
        series = _noise_series(noise_disturbance(widest, cutoff_hz=2.0, seed=1), 200)
        assert np.all(np.isfinite(series)) and np.all(np.abs(series) <= widest)

    @pytest.mark.parametrize(
        "script",
        [
            "from neurofl.cli import main\n"
            "assert main(['simulate', '--config', sys.argv[1], '--out-dir', sys.argv[2]]) == 0\n",
            "from neurofl.config import build_experiment, load_config\n"
            "from neurofl.simulation import run_closed_loop\n"
            "s = build_experiment(load_config(sys.argv[1]))\n"
            "traj = run_closed_loop(s.truth, s.nominal, s.ctrl, s.ref, s.dist, s.lam, s.T, s.dt_ctrl, s.substeps, s.x0)\n"
            "assert len(set(traj.d_true)) > 10\n",
        ],
        ids=["cli-simulate", "library-run"],
    )
    def test_noise_run_does_not_import_numpy_random(self, tmp_path, script):
        config = tmp_path / "noise.json"
        config.write_text(
            '{"plant": {"name": "pendulum"}, "disturbance": {"kind": "band-limited-noise", "amplitude": 0.5, '
            '"cutoff_hz": 5.0, "seed": 3}, "controller": {"mode": "compensated"}, '
            '"simulation": {"T": 0.5, "dt_ctrl": 0.01}}',
            encoding="utf-8",
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
        check = "import sys\n" + script + "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'random']))\n"
        proc = subprocess.run(
            [sys.executable, "-c", check, str(config), str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_no_source_names_numpy_random(self):
        sources = sorted(SRC.rglob("*.py"))
        assert sources
        for path in sources:
            text = path.read_text(encoding="utf-8")
            assert "np.random" not in text and "numpy.random" not in text, path
