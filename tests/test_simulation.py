import ast
import builtins
import dataclasses
import importlib.util
import linecache
import math
import pickle
import traceback
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from neurofl import config, generated, plants, simulation
from neurofl.config import build_experiment, config_from_dict
from neurofl.controller import ControllerState, StepLog
from neurofl.dynamics import GainVector, StateVector, filtered_error, tracking_error
from neurofl.errors import ControllabilityFault, DivergenceFault
from neurofl.plants import (
    Expression,
    PlantModel,
    constant_disturbance,
    disturbance_sampler,
    duffing_plant,
    no_disturbance,
    noise_disturbance,
    pendulum_plant,
    sinusoid_disturbance,
    vanderpol_plant,
)
from neurofl.rbf import RbfNetwork, activations, default_network
from neurofl.simulation import (
    DIVERGENCE_LIMIT,
    ReferenceSpec,
    Trajectory,
    _plant_deriv,
    _rk4,
    compute_metrics,
    constant_reference,
    integrate_interval,
    reference_at,
    rk4_step,
    run_closed_loop,
    sinusoid_reference,
    sum_of_sinusoids_reference,
)

import ideal_plant
from ideal_plant import ideal_disturbance_plant

# frozen oracle: e^0.1 evaluated independently; one RK4 step with dt = 0.1 on
# dy/dt = y lands within its local truncation error of it
EXP_TENTH = 1.1051709180756477


def integrator_plant(b=1.0):
    return PlantModel(
        order=2,
        f_eval=lambda x, t: 0.0,
        b_eval=lambda x, t: b,
        b_min=abs(b) / 2.0,
        name="integrator",
    )


def baseline_ctrl(lam=2.0):
    return ControllerState(gains=GainVector(lam, 2))


class TestRk4Step:
    def test_zero_derivative_is_identity(self):
        y = np.array([1.0, -2.0])
        out = rk4_step(lambda y, t: np.zeros(2), y, 0.0, 0.1)
        np.testing.assert_array_equal(out, y)

    def test_constant_derivative_is_exact(self):
        out = rk4_step(lambda y, t: np.ones(1), np.array([1.0]), 0.0, 0.1)
        np.testing.assert_allclose(out, [1.1], rtol=1e-16)

    def test_exponential_one_step(self):
        out = rk4_step(lambda y, t: y, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - EXP_TENTH) < 1e-7

    def test_dt_domain(self):
        with pytest.raises(ValueError):
            rk4_step(lambda y, t: y, np.array([1.0]), 0.0, 0.0)

    def test_non_finite_faults(self):
        with pytest.raises(DivergenceFault):
            rk4_step(lambda y, t: y * np.inf, np.array([1.0]), 0.0, 0.1)

    def test_global_fourth_order(self):
        def run(dt):
            y = np.array([1.0])
            for k in range(round(1.0 / dt)):
                y = rk4_step(lambda y, t: y, y, k * dt, dt)
            return abs(y[0] - math.e)

        e1, e2, e3 = run(1e-2), run(5e-3), run(2.5e-3)
        assert 14.0 <= e1 / e2 <= 18.0
        assert 14.0 <= e2 / e3 <= 18.0


def time_varying_b_plant():
    """The loop oracle's order-2 plant: b varies with the state and with t."""
    return PlantModel(
        order=2,
        f_eval=lambda x, t: -1.3 * math.sin(x[0]) - 0.2 * x[1] + 0.5 * x[0] ** 3,
        b_eval=lambda x, t: 2.0 + 0.5 * math.cos(x[0] + t),
        b_min=0.1,
        name="order2",
    )


def kernel_outcome(step):
    """The bits of the state a step returns, or the fault it raises with its
    message and, for a ControllabilityFault, the bits of its state and its t."""
    try:
        return ("ok", np.array(step(), dtype=float).view(np.int64).tolist())
    except ControllabilityFault as exc:
        return (type(exc), str(exc), np.asarray(exc.state, dtype=float).view(np.int64).tolist(), exc.t)
    except (ArithmeticError, LookupError, ValueError, DivergenceFault) as exc:
        return (type(exc), str(exc))


def generic_interval(plant, y, u, t0, dt, substeps, d):
    """The interval as the list kernel _rk4 runs it on the companion form
    [x1, ..., x(n-1), accel(x, t)], with the domain-error, overflow and
    divergence-limit rules of an interval: the reference the generated
    interval must match."""
    accel = _plant_deriv(plant, u, d)

    def deriv(v, tau):
        try:
            return v[1:] + [accel(v, tau)]
        except ValueError as exc:
            # a stage state that overflowed to inf is a divergence, whatever
            # the plant's math makes of it
            if all(map(math.isfinite, v)):
                raise
            raise DivergenceFault(f"non-finite RK4 stage state at t={tau:.6g}") from exc

    h = dt / substeps
    y = list(y)
    j = 0
    try:
        for j in range(substeps):
            y = _rk4(deriv, y, t0 + j * h, h)
    except OverflowError as exc:
        raise DivergenceFault(f"state overflowed in the RK4 step at t={t0 + j * h:.6g}") from exc
    if max(map(abs, y)) > DIVERGENCE_LIMIT:
        raise DivergenceFault(f"state magnitude exceeded {DIVERGENCE_LIMIT:.0e} at t={t0 + dt:.6g}")
    return y


def called(plant):
    """plant with f_eval and b_eval wrapped in plain functions, as the traced
    benchmark child wraps them: the interval calls them instead of inlining."""
    f, b = plant.f_eval, plant.b_eval
    return dataclasses.replace(plant, f_eval=lambda x, t: f(x, t), b_eval=lambda x, t: b(x, t))


def every_fill(plant, y, u, t, dt, d, substeps=1):
    """kernel_outcome of the generated interval with the plant's terms as
    given (inlined for Expressions), of the same interval calling them, and of
    the generic list kernel."""
    runs = (
        lambda: integrate_interval(plant, y, u, t, dt, substeps, d),
        lambda: integrate_interval(called(plant), y, u, t, dt, substeps, d),
        lambda: generic_interval(plant, y, u, t, dt, substeps, d),
    )
    return tuple(kernel_outcome(run) for run in runs)


def signed_draws(rng, count, lo, hi):
    """Signed log-uniform magnitudes in [10^lo, 10^hi], a tenth of them +-0.0."""
    out = 10.0 ** rng.uniform(lo, hi, count) * rng.choice([-1.0, 1.0], count)
    zeros = rng.random(count) < 0.1
    out[zeros] = rng.choice([0.0, -0.0], zeros.sum())
    return out


def expression_plant(order, f, b=1.0, b_min=0.5, **params):
    return PlantModel(
        order=order, f_eval=Expression(f, params), b_eval=Expression("k", {"k": b}), b_min=b_min, name="expr"
    )


class TestOrder2Kernel:
    """The generated interval against the generic list kernel _rk4, with the
    plant's terms inlined and called."""

    @pytest.mark.parametrize(
        "plant",
        [pendulum_plant(c=0.1), duffing_plant(), vanderpol_plant(mu=1.5), time_varying_b_plant()],
        ids=lambda p: p.name,
    )
    def test_bitwise_equal_to_generic_rk4(self, plant):
        # random draws, including +-0.0, states near the 1e9 divergence limit
        # and inputs near the float range, which give non-finite stages and
        # the overflow and domain errors of the plants' own arithmetic; d is
        # inlined (an Expression) on even draws and called on odd ones
        rng = np.random.default_rng(18)
        count = 2500
        y0 = signed_draws(rng, count, -6, 9)
        y1 = signed_draws(rng, count, -6, 9)
        near_limit = rng.random(count) < 0.1
        y0[near_limit] = rng.choice([-1.0, 1.0], near_limit.sum()) * rng.uniform(0.9e9, 1e9, near_limit.sum())
        u = signed_draws(rng, count, -6, 12)
        huge = rng.random(count) < 0.05
        u[huge] = rng.choice([-1.0, 1.0], huge.sum()) * 10.0 ** rng.uniform(300, 308, huge.sum())
        t = rng.uniform(0.0, 100.0, count)
        dt = 10.0 ** rng.uniform(-5, -1, count)
        inlined_d = disturbance_sampler(sinusoid_disturbance(0.3, 7.0 / (2.0 * math.pi)), 200.0)
        called_d = lambda tau: 0.3 * math.sin(7.0 * tau)  # noqa: E731
        kinds = set()
        for i, (a, b, tk, h, uk) in enumerate(zip(y0.tolist(), y1.tolist(), t.tolist(), dt.tolist(), u.tolist())):
            inlined, calling, generic = every_fill(plant, (a, b), uk, tk, h, called_d if i % 2 else inlined_d)
            assert inlined == calling == generic, (a, b, tk, h, uk)
            kinds.add(inlined[0])
        # every plant reaches both a finite step and at least one fault
        assert "ok" in kinds and len(kinds) >= 2

    def test_non_finite_stage_is_the_same_divergence(self):
        plant = expression_plant(2, "1e300 * x1")
        outcomes = every_fill(plant, (0.0, 1e10), 0.0, 0.25, 0.1, lambda tau: 0.0)
        assert set(outcomes) == {(DivergenceFault, "non-finite state produced at t=0.25")}

    def test_domain_error_on_an_overflowed_stage_is_divergence(self):
        # the second stage y0 + (dt/2)*y1 overflows to inf, and the
        # pendulum's math.sin(inf) raises ValueError: math domain error
        outcomes = every_fill(pendulum_plant(), (1.0, 1e300), 0.0, 0.0, 1e10, lambda tau: 0.0)
        assert set(outcomes) == {(DivergenceFault, "non-finite RK4 stage state at t=5e+09")}

    def test_value_error_on_a_finite_stage_propagates(self):
        def f_eval(x, t):
            raise ValueError(f"plant fault at x0={x[0]:g}")

        plant = PlantModel(order=2, f_eval=f_eval, b_eval=lambda x, t: 1.0, b_min=0.5, name="faulty")
        outcomes = every_fill(plant, (1.0, 1e300), 0.0, 0.0, 1e10, lambda tau: 0.0)
        assert set(outcomes) == {(ValueError, "plant fault at x0=1")}
        plant = expression_plant(2, "log(x0 - 2.0)", log=math.log)
        outcomes = every_fill(plant, (1.0, 1e300), 0.0, 0.0, 1e10, lambda tau: 0.0)
        assert set(outcomes) == {(ValueError, "math domain error")}

    @pytest.mark.parametrize("trip_call", [2, 3])
    def test_controllability_fault_at_a_middle_stage(self, trip_call):
        # b falls below the guard on the trip_call-th evaluation only, so the
        # fault carries that stage's state and time
        def run(step):
            calls = []

            def b_eval(x, t):
                calls.append(t)
                return 0.0 if len(calls) == trip_call else 1.0 + 0.1 * math.sin(x[1])

            plant = PlantModel(
                order=2, f_eval=lambda x, t: -x[0] - 0.3 * x[1], b_eval=b_eval, b_min=0.5, name="tripping"
            )
            return kernel_outcome(lambda: step(plant, (0.4, -1.1), 0.7, 2.0, 0.1, 1, lambda tau: 0.2 * tau))

        generated, generic = run(integrate_interval), run(generic_interval)
        assert generated == generic
        assert generated[0] is ControllabilityFault
        assert generated[3] == 2.0 + 0.5 * 0.1
        # the stage's state, not the state the interval started from
        assert np.array(generated[2], dtype=np.int64).view(float)[0] != 0.4


# Each raise site of the interval: the plant's f with its parameters, its
# constant b and b_min, the initial state (its last entry repeated up to
# the order), t0, dt, whether d is noise, and the fault raised.
FAULTS = {
    "controllability": (
        "-x0", {}, 0.1, 0.5, [0.3, -0.2], 1.5, 0.1, False,
        (ControllabilityFault, "|b|=0.1 below guard 0.5 during integration"),
    ),
    "non-finite-stage": (
        "sin(x0) + k", {"k": 1e300, "sin": math.sin}, 1.0, 0.5, [1.0, 1e300], 0.0, 1e10, False,
        (DivergenceFault, "non-finite RK4 stage state at t=2.5e+09"),
    ),
    "finite-stage-value-error": (
        "log(x0 - 2.0)", {"log": math.log}, 1.0, 0.5, [1.0], 0.0, 0.1, False, (ValueError, "math domain error"),
    ),
    "overflow": (
        "x0 ** 3", {}, 1.0, 0.5, [1e200, 0.0], 0.0, 0.1, False,
        (DivergenceFault, "state overflowed in the RK4 step at t=0"),
    ),
    "non-finite-output": (
        "k * x0", {"k": 1e300}, 1.0, 0.5, [1e10], 0.0, 0.1, False,
        (DivergenceFault, "non-finite state produced at t=0"),
    ),
    "divergence-limit": (
        "k", {"k": 1e9}, 1.0, 0.5, [0.99e9, 1e9], 0.0, 0.1, False,
        (DivergenceFault, "state magnitude exceeded 1e+09 at t=0.1"),
    ),
    "noise-before-zero": (
        "-x0", {}, 1.0, 0.5, [0.1], -0.5, 0.1, True, (IndexError, "noise read at index -500, before the first sample"),
    ),
}


class TestGeneratedInterval:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("fault", list(FAULTS))
    def test_every_raise_site_on_both_fills(self, fault, order):
        f, params, b, b_min, y, t0, dt, noise, expected = FAULTS[fault]
        plant = expression_plant(order, f, b=b, b_min=b_min, **params)
        y = (y + [y[-1]] * order)[:order]
        spec = noise_disturbance(0.1, 4.0, sample_dt=1e-3) if noise else constant_disturbance(0.2)
        inlined, calling, generic = every_fill(plant, y, 0.4, t0, dt, disturbance_sampler(spec, 1.0), substeps=2)
        assert inlined == calling == generic
        assert inlined[:2] == expected
        if fault == "controllability":
            # a constant b below its guard trips at the first stage
            assert inlined[2] == np.array(y).view(np.int64).tolist() and inlined[3] == t0

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_finite_intervals_match_on_both_fills(self, order):
        f = {1: "-0.5 * x0 + sin(t)", 2: "-x0 - 0.3 * x1 ** 3", 3: "-x0 - 2.0 * x1 - cos(x2)"}[order]
        plant = expression_plant(order, f, b=1.3, sin=math.sin, cos=math.cos)
        rng = np.random.default_rng(order)
        for kind in ("none", "constant", "sinusoid", "noise"):
            spec = {
                "none": no_disturbance(),
                "constant": constant_disturbance(-0.4),
                "sinusoid": sinusoid_disturbance(0.3, 2.0, phase=0.5),
                "noise": noise_disturbance(0.5, 5.0, seed=3, sample_dt=1e-3),
            }[kind]
            d = disturbance_sampler(spec, 2.0)
            for _ in range(50):
                y = tuple(rng.uniform(-2.0, 2.0, order).tolist())
                inlined, calling, generic = every_fill(plant, y, rng.uniform(-3.0, 3.0), 0.5, 0.01, d, substeps=3)
                assert inlined == calling == generic and inlined[0] == "ok"

    def test_a_parameter_named_like_the_template_is_called_not_inlined(self):
        # template names begin with "_": such a parameter would be shadowed
        shadowed = expression_plant(2, "-_h * x0 - x1", _h=3.0)
        plain = expression_plant(2, "-h * x0 - x1", h=3.0)
        d = disturbance_sampler(constant_disturbance(0.2), 1.0)
        assert generated.bound_interval(shadowed, d, _plant_deriv).__code__ is generated._interval_code(2, None, None, None)
        assert generated.bound_interval(plain, d, _plant_deriv).__code__ is not generated._interval_code(2, None, None, None)
        assert every_fill(shadowed, (0.3, -0.1), 0.5, 0.0, 0.01, d) == every_fill(plain, (0.3, -0.1), 0.5, 0.0, 0.01, d)

    @pytest.mark.parametrize(
        "f, params",
        [("-h * abs(x0) - x1", {"h": 3.0, "abs": math.fabs}), ("-h * x[0] - x[1]", {"h": 3.0})],
        ids=["parameter-named-like-a-builtin", "reads-the-state-argument"],
    )
    def test_a_term_generated_code_cannot_read_is_called(self, f, params):
        # abs in generated code is the builtin, and x its state argument only
        # inside the Expression's own function
        plant = expression_plant(2, f, **params)
        twin = expression_plant(2, f.replace("x[0]", "x0").replace("x[1]", "x1"), h=3.0)
        d = disturbance_sampler(constant_disturbance(0.2), 1.0)
        assert generated.bound_interval(plant, d, _plant_deriv).__code__ is generated._interval_code(2, None, None, None)
        assert generated.bound_interval(twin, d, _plant_deriv).__code__ is not generated._interval_code(2, None, None, None)
        assert every_fill(plant, (0.3, -0.1), 0.5, 0.0, 0.01, d) == every_fill(twin, (0.3, -0.1), 0.5, 0.0, 0.01, d)

    def test_compiles_each_source_once(self):
        generated._interval_code.cache_clear()
        for plant in (pendulum_plant(), pendulum_plant(c=0.3), called(pendulum_plant()), called(duffing_plant())):
            for spec in (no_disturbance(), constant_disturbance(0.1), constant_disturbance(0.2)):
                integrate_interval(plant, (0.1, 0.0), 0.5, 0.0, 0.01, 2, disturbance_sampler(spec, 1.0))
        # pendulum inlined with d 0.0 or an offset, and one calling source
        assert generated._interval_code.cache_info().misses == 3


def trajectory_bytes(traj):
    return b"".join(
        getattr(traj, name).tobytes() for name in ("t", "x", "x_d", "u", "s", "d_hat", "d_true", "w_norm")
    ) + "\n".join(traj.event).encode()


def traced(fn):
    """A pass-through wrapper, as the benchmark's tracer builds one."""

    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)

    return wrapper


DISTURBANCES = {
    "none": no_disturbance(),
    "constant": constant_disturbance(0.3),
    "sinusoid": sinusoid_disturbance(0.4, 1.5, phase=0.2),
    "noise": noise_disturbance(0.5, 4.0, seed=11),
}


class TestPlantsAsDataInRuns:
    @pytest.mark.parametrize("dist", list(DISTURBANCES))
    @pytest.mark.parametrize("name", ["pendulum", "duffing", "vanderpol"])
    def test_pickled_and_traced_plants_run_the_same_bits(self, name, dist):
        # pickle round-trips each config plant; wrapping f_eval and b_eval as
        # bench/child.py does makes the interval call them instead of
        # inlining them; every trajectory is the same bytes
        setup = build_experiment(
            config_from_dict(
                {
                    "plant": {"name": name},
                    "controller": {"mode": "compensated", "lambda": 3.0},
                    "reference": {"kind": "sinusoid", "amplitude": 0.6, "omega": 2.0},
                    "simulation": {"T": 0.3, "dt_ctrl": 1e-3, "substeps": 3, "x0": [0.2, -0.1]},
                }
            )
        )
        plant = setup.truth
        wrapped = dataclasses.replace(plant, f_eval=traced(plant.f_eval), b_eval=traced(plant.b_eval))
        runs = []
        for truth in (plant, pickle.loads(pickle.dumps(plant)), wrapped):
            runs.append(
                run_closed_loop(
                    truth, truth, setup.ctrl, setup.ref, DISTURBANCES[dist], 3.0, 0.3, 1e-3, 3, x0=setup.x0
                )
            )
        assert runs[0].terminal_event is None and len(runs[0]) == 301
        assert trajectory_bytes(runs[0]) == trajectory_bytes(runs[1]) == trajectory_bytes(runs[2])


# statements in any generated loop (ast.stmt nodes, its def included):
# compiling takes memory and time in proportion to them
MAX_LOOP_STATEMENTS = 45


def sweep_grid_setups():
    """The 96 experiments of the benchmark's sweep-grid workload at seed 0."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [build_experiment(config_from_dict(raw)) for raw in workloads.sweep_grid(0)]


def run_setup(setup):
    return run_closed_loop(
        setup.truth, setup.nominal, setup.ctrl, setup.ref, setup.dist, setup.lam,
        setup.T, setup.dt_ctrl, setup.substeps, x0=setup.x0,
    )


def test_a_sweeps_configs_share_their_network_and_gains(monkeypatch):
    # 96 configs with one network section and four lambdas, all of order 2
    config._built.cache_clear()
    built = []

    def counting(post_init):
        def counted(obj):
            built.append(obj)
            post_init(obj)

        return counted

    for cls in (RbfNetwork, GainVector):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__post_init__))
    setups = sweep_grid_setups()
    networks = [obj for obj in built if isinstance(obj, RbfNetwork)]
    gains = [obj for obj in built if isinstance(obj, GainVector)]
    assert (len(networks), len(gains)) == (1, 4)
    assert {id(s.ctrl.network) for s in setups if s.ctrl.network} == {id(networks[0])}
    assert {id(s.ctrl.gains) for s in setups} == {id(g) for g in gains}


class TestGeneratedLoop:
    @pytest.mark.parametrize("fault", [False, True], ids=["complete", "basis-overflow"])
    def test_a_run_keeps_neither_its_plant_nor_its_disturbance(self, monkeypatch, fault):
        # the loop's globals hold the truth plant and the disturbance with its
        # noise list (2,001 floats here); nothing may hold them after the run
        samplers = []
        real = simulation.disturbance_sampler

        def recording(spec, t_end):
            d = real(spec, t_end)
            samplers.append(weakref.ref(d))
            return d

        monkeypatch.setattr(simulation, "disturbance_sampler", recording)

        def run():
            truth = pendulum_plant(c=0.1)
            dist = noise_disturbance(0.3, 4.0, seed=5, sample_dt=1e-5)
            ctrl = ControllerState(gains=GainVector(2.0, 2), network=default_network(7, 1.0, 5.0))
            ref = constant_reference(1e300, 2) if fault else sinusoid_reference(0.5, 1.0, 0.0, 2)
            traj = run_closed_loop(truth, truth, ctrl, ref, dist, 2.0, 0.02, 1e-3, 2, x0=[0.2, 0.0])
            return traj, [weakref.ref(truth), weakref.ref(dist), weakref.ref(truth.f_eval), samplers[-1]]

        traj, refs = run()
        assert traj.terminal_event == ("divergence" if fault else None)
        assert [ref() for ref in refs] == [None] * 4

    def test_sweep_grid_compiles_one_loop_per_key(self, monkeypatch):
        # one loop per distinct (order, f, b, d, reference shape); the network,
        # u_limit, weight_cap and record_weights are runtime checks. Besides
        # the loops and the basis, only each disturbance text is compiled
        # (text and function)
        setups = sweep_grid_setups()
        caches = (generated._loop_code, generated._interval_code, generated._law_code, plants._expression_code)
        for cache in (*caches, generated._basis_code):
            cache.cache_clear()
        compiled = []
        real = builtins.compile

        def counting(source, filename, *args, **kwargs):
            compiled.append(filename)
            return real(source, filename, *args, **kwargs)

        monkeypatch.setattr(builtins, "compile", counting)
        for setup in setups:
            assert run_setup(setup).terminal_event is None
        keys = {(s.truth.order, s.truth.f_eval.text, s.truth.b_eval.text, s.dist.kind, len(s.ref._terms)) for s in setups}
        loops = [name for name in compiled if name.startswith("<neurofl loop n=2 m=1 #")]
        assert len(loops) == len(keys) == 12
        # every compensated run has 7 neurons: one basis
        bases = [name for name in compiled if name.startswith("<neurofl basis m=")]
        assert {s.ctrl.network.neuron_count for s in setups if s.ctrl.network} == {7}
        assert len(bases) == 1 and bases[0].startswith("<neurofl basis m=7 #")
        assert len(compiled) - len(loops) - len(bases) == 2 * len({s.dist.kind for s in setups}) == 8

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_each_loop_stays_under_the_statement_budget(self, order):
        for m in (0, 1, 2):
            for f, b, d in ((None, None, None), ("x0 * c", "k", "d_offset")):
                code = generated._loop_code(order, m, f, b, d, f, b)
                source = "".join(linecache.getlines(code.co_filename))
                statements = sum(isinstance(node, ast.stmt) for node in ast.walk(ast.parse(source)))
                assert statements <= MAX_LOOP_STATEMENTS, (order, m, f)

    def test_tracebacks_show_the_generated_lines(self):
        # a ValueError on a finite stage leaves the run through the loop,
        # whose registered source names the inlined text
        plant = expression_plant(2, "log(x0 - 2.0)", log=math.log)
        ctrl = ControllerState(gains=GainVector(2.0, 2))
        with pytest.raises(ValueError) as info:
            run_closed_loop(plant, integrator_plant(), ctrl, constant_reference(0.0, 2), no_disturbance(), 2.0,
                            0.1, 1e-2, 1, x0=[1.0, 0.0])
        text = "".join(traceback.format_exception(info.value))
        assert 'File "<neurofl loop n=2 m=0 #' in text and "in loop" in text
        assert "_a1 = (log(x0 - 2.0)) + _bu + (0.0)" in text


class TestReferenceAt:
    def test_constant(self):
        x_d, xd_n = reference_at(constant_reference(0.7, 2), 3.2)
        np.testing.assert_array_equal(x_d.values, [0.7, 0.0])
        assert xd_n == 0.0

    def test_sinusoid_at_zero(self):
        x_d, xd_n = reference_at(sinusoid_reference(1.0, 1.0, 0.0, 2), 0.0)
        np.testing.assert_allclose(x_d.values, [0.0, 1.0], atol=1e-15)
        assert xd_n == pytest.approx(0.0, abs=1e-15)

    def test_sinusoid_at_quarter_period(self):
        x_d, xd_n = reference_at(sinusoid_reference(1.0, 1.0, 0.0, 2), math.pi / 2)
        np.testing.assert_allclose(x_d.values, [1.0, 0.0], atol=1e-12)
        assert xd_n == pytest.approx(-1.0, rel=1e-12)

    def test_derivative_table_scaling(self):
        # A sin(w t + p): k-th derivative magnitude is A w^k
        spec = sinusoid_reference(0.5, 3.0, 0.2, 4)
        x_d, xd_n = reference_at(spec, 0.9)
        for k in range(4):
            expected = 0.5 * 3.0**k * math.sin(3.0 * 0.9 + 0.2 + k * math.pi / 2)
            assert x_d.values[k] == pytest.approx(expected, rel=1e-12)
        assert xd_n == pytest.approx(0.5 * 3.0**4 * math.sin(3.0 * 0.9 + 0.2), rel=1e-12)

    def test_sum_of_sinusoids(self):
        spec = sum_of_sinusoids_reference([(1.0, 1.0, 0.0), (0.3, 5.0, 1.0)], 2)
        x_d, xd_n = reference_at(spec, 0.4)
        a = reference_at(sinusoid_reference(1.0, 1.0, 0.0, 2), 0.4)
        b = reference_at(sinusoid_reference(0.3, 5.0, 1.0, 2), 0.4)
        np.testing.assert_allclose(x_d.values, a[0].values + b[0].values, rtol=1e-15)
        assert xd_n == pytest.approx(a[1] + b[1], rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            reference_at(constant_reference(0.0, 2), -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_reference(0.0, 0)
        with pytest.raises(ValueError):
            sum_of_sinusoids_reference([], 2)
        for omega in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"^omega: must be > 0$"):
                sinusoid_reference(1.0, omega, 0.0, 2)
            with pytest.raises(ValueError, match=r"^components\[1\]\.omega: must be > 0$"):
                sum_of_sinusoids_reference([(1.0, 1.0, 0.0), (1.0, omega, 0.0)], 2)

    def test_non_finite_values_rejected_at_construction(self):
        with pytest.raises(ValueError):
            constant_reference(math.nan, 2)
        with pytest.raises(ValueError):
            sinusoid_reference(1.0, 1.0, math.inf, 2)
        # finite entries whose higher derivatives overflow
        with pytest.raises(ValueError):
            sinusoid_reference(1e300, 1e5, 0.0, 3)
        with pytest.raises(ValueError):
            sinusoid_reference(1.0, 1e200, 0.0, 2)
        with pytest.raises(ValueError):
            sum_of_sinusoids_reference([(1e308, 1.0, 0.0), (1e308, 1.0, 0.0)], 1)

    def test_precomputed_terms_match_direct_formula_bitwise(self):
        # x_d^(k)(t) = sum over components of A w^k sin(w t + p + k pi/2),
        # summed in component order starting from 0.0
        comps = [(0.5, 0.9, 0.1), (0.2, 3.1, 2.0), (1.3, 0.37, -1.1)]
        n = 3
        spec = sum_of_sinusoids_reference(comps, n)
        for t in np.linspace(0.0, 40.0, 2001).tolist():
            expected = [0.0] * (n + 1)
            for amplitude, omega, phase in comps:
                for k in range(n + 1):
                    expected[k] += amplitude * omega**k * math.sin(omega * t + phase + k * math.pi / 2.0)
            x_d, xd_n = reference_at(spec, t)
            assert x_d.values.tolist() == expected[:n]
            assert xd_n == expected[n]

    def test_level_offsets_every_kind(self):
        # x_d = level + the components' sum, whatever the kind
        comps = ((1.0, 1.0, 0.0),)
        spec = ReferenceSpec(kind="sinusoid", order=2, level=2.0, components=comps)
        x_d, xd_n = reference_at(spec, 0.0)
        assert x_d.values.tolist() == [2.0, 1.0]
        assert xd_n == math.sin(math.pi)
        plain = sinusoid_reference(*comps[0], 2)
        for kind in ("constant", "sinusoid", "sum-of-sinusoids"):
            spec = ReferenceSpec(kind=kind, order=2, level=-0.5, components=comps)
            for t in (0.0, 0.7, 3.1):
                x_d, xd_n = reference_at(spec, t)
                want, want_n = reference_at(plain, t)
                assert x_d.values.tolist() == [want[0] - 0.5, want[1]]
                assert xd_n == want_n


class TestRunClosedLoop:
    def test_a_run_equals_only_itself(self):
        runs = [
            run_closed_loop(
                integrator_plant(), integrator_plant(), baseline_ctrl(), constant_reference(0.0, 2),
                no_disturbance(), 2.0, 0.1, 1e-2, 1, x0=[0.0, 0.0],
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[0] and runs[0] != runs[1]
        assert trajectory_bytes(runs[0]) == trajectory_bytes(runs[1])

    def test_zero_everything_stays_zero(self):
        traj = run_closed_loop(
            integrator_plant(),
            integrator_plant(),
            baseline_ctrl(),
            constant_reference(0.0, 2),
            no_disturbance(),
            2.0,
            1.0,
            1e-2,
            1,
            x0=[0.0, 0.0],
        )
        assert len(traj) == 101
        assert np.all(traj.x == 0.0)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.s == 0.0)
        assert traj.terminal_event is None

    def test_record_count_and_grid(self):
        traj = run_closed_loop(
            integrator_plant(),
            integrator_plant(),
            baseline_ctrl(),
            constant_reference(0.0, 2),
            no_disturbance(),
            2.0,
            10.0,
            1e-3,
            1,
        )
        assert len(traj) == 10001
        dts = np.diff(traj.t)
        assert np.all(dts > 0.0)
        np.testing.assert_allclose(dts, 1e-3, rtol=1e-9)

    def test_default_initial_state_matches_reference(self):
        ref = sinusoid_reference(0.8, 1.3, 0.4, 2)
        traj = run_closed_loop(
            integrator_plant(),
            integrator_plant(),
            baseline_ctrl(),
            ref,
            no_disturbance(),
            2.0,
            0.1,
            1e-2,
            1,
        )
        np.testing.assert_array_equal(traj.x[0], reference_at(ref, 0.0)[0].values)

    def test_tracking_converges_to_reference(self):
        plant = pendulum_plant(c=0.0)
        traj = run_closed_loop(
            plant,
            plant,
            baseline_ctrl(lam=2.0),
            sinusoid_reference(1.0, 1.0, 0.0, 2),
            no_disturbance(),
            2.0,
            4.0,
            1e-3,
            1,
            x0=[1.0, 0.0],
        )
        xt = traj.x[:, 0] - traj.x_d[:, 0]
        tail = traj.t >= 3.6
        assert np.sqrt(np.mean(xt[tail] ** 2)) < 5e-3

    def test_determinism_with_noise(self):
        plant = pendulum_plant()
        dist = noise_disturbance(0.5, cutoff_hz=3.0, seed=77)
        args = (
            plant,
            plant,
            baseline_ctrl(),
            sinusoid_reference(0.5, 1.0, 0.0, 2),
        )
        a = run_closed_loop(*args, dist, 2.0, 1.0, 1e-3, 2, x0=[0.2, 0.0])
        b = run_closed_loop(*args, dist, 2.0, 1.0, 1e-3, 2, x0=[0.2, 0.0])
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.d_true, b.d_true)

    def test_input_held_over_substeps(self):
        # replaying each interval from the logged state with the logged (held)
        # input must land exactly on the next logged state
        plant = pendulum_plant(c=0.1)
        dist = sinusoid_disturbance(0.3, 0.7)
        traj = run_closed_loop(
            plant,
            plant,
            baseline_ctrl(),
            sinusoid_reference(0.5, 1.0, 0.0, 2),
            dist,
            2.0,
            0.5,
            1e-2,
            4,
            x0=[0.3, 0.0],
        )
        d = disturbance_sampler(dist, traj.t[-1])
        for k in range(len(traj) - 1):
            replay = integrate_interval(
                plant, traj.x[k].copy(), traj.u[k], traj.t[k], traj.dt_ctrl, 4, d
            )
            np.testing.assert_array_equal(replay, traj.x[k + 1])

    @pytest.mark.parametrize("T, dt_ctrl, substeps, sample_dt, want", [
        (0.08, 1e-3, 4, 1e-3, 81),
        (5.0, 1e-3, 1, 1e-3, 5001),
        (0.25, 1e-2, 3, 3e-3, 84),
    ])
    def test_noise_generated_for_exactly_the_horizon(self, monkeypatch, T, dt_ctrl, substeps, sample_dt, want):
        lengths = []
        real = plants._noise_series

        def recording(spec, count):
            lengths.append(count)
            return real(spec, count)

        monkeypatch.setattr(plants, "_noise_series", recording)
        plant = pendulum_plant(c=0.1)
        dist = noise_disturbance(0.3, 4.0, seed=2, sample_dt=sample_dt)
        traj = run_closed_loop(
            plant, plant, baseline_ctrl(), sinusoid_reference(0.5, 1.0, 0.0, 2), dist, 2.0, T, dt_ctrl, substeps,
        )
        assert lengths == [want]
        assert traj.terminal_event is None

    def test_float_overflow_in_the_plant_is_divergence(self):
        # x**3 on a Python float raises OverflowError where a numpy scalar
        # would overflow to inf; either way the interval ends in DivergenceFault
        plant = duffing_plant(b2=50.0)
        with pytest.raises(DivergenceFault, match="overflowed in the RK4 step at t=0.0025"):
            integrate_interval(plant, np.array([1e9, 0.0]), 0.0, 0.0, 1e-2, 4, lambda t: 0.0)

    def test_rbf_basis_overflow_is_divergence(self):
        # s = lam * 1e9 ~ 1e159: (s - mu)**2 on a Python float raises
        # OverflowError in the basis, which ends the run like any divergence
        cfg = config_from_dict(
            {
                "plant": {"name": "pendulum"},
                "controller": {"mode": "compensated", "lambda": 1e150},
                "simulation": {"T": 0.01, "dt_ctrl": 1e-3, "x0": [1e9, 0.0]},
            }
        )
        setup = build_experiment(cfg)
        traj = run_closed_loop(
            setup.truth, setup.nominal, setup.ctrl, setup.ref, setup.dist, setup.lam,
            setup.T, setup.dt_ctrl, setup.substeps, x0=setup.x0,
        )
        assert traj.terminal_event == "divergence"
        assert traj.event == ["divergence"]
        assert np.isnan(traj.u[0])

    def test_non_finite_control_input_is_divergence(self):
        # baseline, lam = 1e150: the feedback 1e300 * 1e9 overflows np.dot to
        # u = -inf, which math.sin in the pendulum's f would reject inside RK4
        cfg = config_from_dict(
            {
                "plant": {"name": "pendulum"},
                "controller": {"mode": "baseline", "lambda": 1e150},
                "simulation": {"T": 0.01, "dt_ctrl": 1e-3, "x0": [1e9, 0.0]},
            }
        )
        setup = build_experiment(cfg)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            traj = run_closed_loop(
                setup.truth, setup.nominal, setup.ctrl, setup.ref, setup.dist, setup.lam,
                setup.T, setup.dt_ctrl, setup.substeps, x0=setup.x0,
            )
        assert traj.terminal_event == "divergence"
        assert traj.event == ["divergence"]
        assert np.isnan(traj.u[0]) and np.isnan(traj.s[0])

    def test_non_finite_adapted_weights_are_divergence(self):
        # s = 2e9 and eta = 1e300: eta*s overflows and inf*phi(s) would be NaN
        # weights; the run ends at this sample, not one sample later in RK4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = config_from_dict(
                {
                    "plant": {"name": "pendulum"},
                    "controller": {"mode": "compensated", "lambda": 2.0, "network": {"eta": 1e300}},
                    "simulation": {"T": 0.01, "dt_ctrl": 1e-3, "x0": [1e9, 0.0]},
                }
            )
            setup = build_experiment(cfg)
            traj = run_closed_loop(
                setup.truth, setup.nominal, setup.ctrl, setup.ref, setup.dist, setup.lam,
                setup.T, setup.dt_ctrl, setup.substeps, x0=setup.x0, record_weights=True,
            )
        assert traj.terminal_event == "divergence"
        assert traj.event == ["divergence"]
        assert np.isnan(traj.u[0]) and np.isnan(traj.s[0]) and np.isnan(traj.w_norm[0])
        np.testing.assert_array_equal(traj.weights, np.zeros((1, 9)))

    def test_loop_owns_the_weights(self, monkeypatch):
        # compensated, with the weight cap tripping: the loop carries the
        # weights itself and builds no controller, network or log per sample,
        # neither through their constructors nor around them
        plant = pendulum_plant(c=0.2)
        net = default_network(9, 1.0, 50.0, weight_cap=0.05)
        ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
        args = (plant, plant, ctrl, sinusoid_reference(0.5, 1.0, 0.0, 2), sinusoid_disturbance(0.8, 0.5))
        weights = ctrl.network.weights.copy()
        built = []

        def freed(self):
            built.append(f"freed {type(self).__name__}")

        for cls, attr in ((StepLog, "__init__"), (ControllerState, "__post_init__"), (RbfNetwork, "__post_init__")):
            original = getattr(cls, attr)

            def counted(self, *a, _original=original, **k):
                built.append(type(self).__name__)
                return _original(self, *a, **k)

            monkeypatch.setattr(cls, attr, counted)
            # a copy made through object.__new__ skips both, but not this
            monkeypatch.setattr(cls, "__del__", freed, raising=False)
        first = run_closed_loop(*args, 2.0, 1.0, 1e-2, 2, x0=[0.3, 0.0], record_weights=True)
        second = run_closed_loop(*args, 2.0, 1.0, 1e-2, 2, x0=[0.3, 0.0], record_weights=True)
        assert built == []
        assert "weight_cap" in first.event and first.terminal_event is None
        assert np.array_equal(ctrl.network.weights, weights)
        assert not ctrl.network.weights.flags.writeable
        for name in ("x", "u", "s", "d_hat", "w_norm", "weights"):
            assert np.array_equal(getattr(first, name), getattr(second, name)), name
        assert first.event == second.event

    def test_divergence_from_model_mismatch_ends_run(self):
        # truth has strong positive feedback the nominal model knows nothing
        # about, so the loop blows up and the run must stop with the event
        truth = PlantModel(
            order=2,
            f_eval=lambda x, t: 50.0 * x[0] ** 3 + 5.0,
            b_eval=lambda x, t: 1.0,
            b_min=0.5,
            name="unstable",
        )
        traj = run_closed_loop(
            truth,
            integrator_plant(),
            ControllerState(gains=GainVector(0.5, 2)),
            constant_reference(1.0, 2),
            no_disturbance(),
            0.5,
            10.0,
            1e-2,
            1,
            x0=[1.0, 0.0],
        )
        assert traj.terminal_event == "divergence"
        assert len(traj) < 1001
        assert "divergence" in traj.event[-1]
        assert not compute_metrics(traj).bounded

    def test_controllability_fault_ends_run(self):
        fading = PlantModel(
            order=2,
            f_eval=lambda x, t: 0.0,
            b_eval=lambda x, t: 1.0 - 0.4 * t,
            b_min=0.5,
            name="fading",
        )
        traj = run_closed_loop(
            fading,
            fading,
            baseline_ctrl(),
            constant_reference(0.0, 2),
            no_disturbance(),
            2.0,
            10.0,
            1e-2,
            1,
            x0=[0.1, 0.0],
        )
        assert traj.terminal_event == "controllability_fault"
        assert len(traj) < 1001
        assert not compute_metrics(traj).bounded

    @pytest.mark.parametrize("order", [2, 3])
    def test_one_rhs_per_interval_and_four_calls_per_substep(self, monkeypatch, order):
        # the traced simulation.rhs metrics wrap simulation._plant_deriv where
        # integrate_interval looks it up; both kernels must go through it
        builds, calls = [], []
        real = simulation._plant_deriv

        def counting(*args, **kwargs):
            accel = real(*args, **kwargs)
            builds.append(args)

            def counted(y, tau):
                calls.append(tau)
                return accel(y, tau)

            return counted

        monkeypatch.setattr(simulation, "_plant_deriv", counting)
        plant = PlantModel(
            order=order,
            f_eval=lambda x, t: -0.5 * x[0] - 0.2 * x[order - 1],
            b_eval=lambda x, t: 1.0,
            b_min=0.5,
            name=f"linear{order}",
        )
        ctrl = ControllerState(gains=GainVector(2.0, order))
        args = (plant, plant, ctrl, constant_reference(0.2, order), sinusoid_disturbance(0.3, 0.5), 2.0)
        traj = run_closed_loop(*args, 0.2, 1e-2, 3)
        assert traj.terminal_event is None and len(traj) == 21
        assert len(builds) == 20
        assert len(calls) == 4 * 3 * 20
        h = 1e-2 / 3
        assert calls[:4] == [0.0, 0.5 * h, 0.5 * h, h]

    def test_leakage_step_must_decay(self):
        # dt_ctrl*kappa >= 2 makes the explicit Euler leakage step grow the
        # weights geometrically (kappa 1e4 overflowed them to inf)
        def run(kappa):
            plant = pendulum_plant()
            net = default_network(9, 1.0, 5.0, kappa=kappa)
            ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
            return run_closed_loop(
                plant, plant, ctrl, constant_reference(0.0, 2), no_disturbance(), 2.0, 1.0, 1e-3, 1, x0=[0.5, 0.0]
            )

        for kappa in (1e4, 2000.0):
            with pytest.raises(ValueError, match=r"kappa: dt_ctrl\*kappa must be < 2"):
                run(kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run(1500.0)
        assert compute_metrics(traj).bounded
        assert np.isfinite(traj.w_norm).all()

    def test_disturbance_angle_must_stay_finite(self):
        # 2*pi*1e308 overflows: math.sin raised a bare math domain error
        plant = pendulum_plant()
        dist = sinusoid_disturbance(0.1, 1e308, bound=0.5)
        with pytest.raises(ValueError, match=r"^frequency_hz: "):
            run_closed_loop(plant, plant, baseline_ctrl(), constant_reference(0.0, 2), dist, 2.0, 0.01, 1e-3, 1)

    def test_T_must_be_whole_number_of_dt_ctrl(self):
        # T = 1.0 at dt_ctrl = 0.3 would end the run at t = 0.9
        plant = integrator_plant()
        args = (plant, plant, baseline_ctrl(lam=2.0), constant_reference(0.0, 2), no_disturbance(), 2.0)
        with pytest.raises(ValueError, match="T: must be a whole number of dt_ctrl"):
            run_closed_loop(*args, 1.0, 0.3, 1)
        # quotients off an integer by rounding only pass: 0.08/1e-3 = 80.00000000000001
        assert len(run_closed_loop(*args, 0.08, 1e-3, 1)) == 81
        assert len(run_closed_loop(*args, 0.9, 0.3, 1)) == 4

    def test_validation_errors(self):
        plant = integrator_plant()
        ctrl = baseline_ctrl(lam=2.0)
        ref = constant_reference(0.0, 2)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 0.0, 1e-3, 1)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 1.0, 1e-3, 0)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 1.0, 1.0, 1e-3, 1)
        with pytest.raises(ValueError):
            run_closed_loop(
                plant, plant, ctrl, constant_reference(0.0, 3), no_disturbance(), 2.0, 1.0, 1e-3, 1
            )
        with pytest.raises(ValueError):
            run_closed_loop(
                plant, plant, ctrl, ref, no_disturbance(), 2.0, 1.0, 1e-3, 1, x0=[0.0]
            )


@pytest.mark.parametrize(
    "T, dt_ctrl, substeps, key",
    [
        (math.inf, 1e-3, 1, "T"),
        (math.nan, 1e-3, 1, "T"),
        (1.0, math.inf, 1, "dt_ctrl"),
        (1.0, math.nan, 1, "dt_ctrl"),
        # no whole interval fits: the run would hold the initial sample only
        (1.0, 1e12, 1, "T"),
        (1e300, 1e-300, 1, "T"),
        (1.0, 1e-3, 1.5, "substeps"),
        (1.0, 1e-3, 2.0, "substeps"),
    ],
)
def test_horizon_rules_name_their_key(T, dt_ctrl, substeps, key):
    plant = integrator_plant()
    args = (plant, plant, baseline_ctrl(lam=2.0), constant_reference(0.0, 2), no_disturbance(), 2.0)
    with pytest.raises(ValueError, match=rf"^{key}: "):
        run_closed_loop(*args, T, dt_ctrl, substeps)


def test_unforced_pendulum_energy_drift():
    # free swing, no damping: total energy is conserved to integrator accuracy
    m, l, g = 1.0, 1.0, 9.81
    plant = pendulum_plant(m=m, l=l, c=0.0, g=g)

    def deriv(y, t):
        return np.array([y[1], plant.f_eval(y, t)])

    def energy(y):
        return 0.5 * m * l * l * y[1] ** 2 + m * g * l * (1.0 - math.cos(y[0]))

    y = np.array([1.2, 0.0])
    e0 = energy(y)
    dt = 1e-3
    for k in range(10_000):
        y = rk4_step(deriv, y, k * dt, dt)
    assert abs(energy(y) - e0) / e0 < 1e-6


class TestComputeMetrics:
    def synthetic(self, t, xt, u=None):
        n = t.size
        x = np.zeros((n, 2))
        x[:, 0] = xt
        return Trajectory(
            t=t,
            x=x,
            x_d=np.zeros((n, 2)),
            u=np.zeros(n) if u is None else u,
            s=np.zeros(n),
            d_hat=np.zeros(n),
            d_true=np.zeros(n),
            w_norm=np.zeros(n),
            event=[""] * n,
            order=2,
            dt_ctrl=float(t[1] - t[0]) if n > 1 else 1.0,
        )

    def test_identically_zero(self):
        traj = self.synthetic(np.linspace(0, 1, 11), np.zeros(11))
        m = compute_metrics(traj)
        assert m.rms_error == 0.0 and m.iae == 0.0 and m.steady_state_error == 0.0
        assert m.max_abs_u == 0.0 and m.bounded

    def test_constant_error_rectangle(self):
        t = np.linspace(0.0, 10.0, 1001)
        m = compute_metrics(self.synthetic(t, np.full(1001, 0.2)))
        assert m.iae == pytest.approx(2.0, rel=1e-12)
        assert m.steady_state_error == pytest.approx(0.2, rel=1e-12)
        assert m.rms_error == pytest.approx(0.2, rel=1e-12)

    def test_sinusoid_rms(self):
        t = np.arange(0.0, 2.0 * math.pi + 1e-12, 1e-3)
        m = compute_metrics(self.synthetic(t, np.sin(t)))
        assert m.rms_error == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_rms_of_errors_whose_squares_overflow(self):
        # 3e200 and 4e200 square past the float range; the rms is 5e200/sqrt(2)
        t = np.array([0.0, 0.01])
        assert compute_metrics(self.synthetic(t, np.array([3e200, -4e200]))).rms_error == pytest.approx(
            5e200 / math.sqrt(2.0), rel=1e-15
        )
        # an error that squares inside the range keeps the plain form's bits
        xt = np.array([1e150, -3e-3, 7.25])
        plain = float(np.sqrt(np.mean(xt**2)))
        assert compute_metrics(self.synthetic(np.linspace(0.0, 0.02, 3), xt)).rms_error == plain

    def test_max_abs_u(self):
        t = np.linspace(0.0, 1.0, 11)
        u = np.linspace(-3.0, 2.0, 11)
        assert compute_metrics(self.synthetic(t, np.zeros(11), u)).max_abs_u == 3.0

    def test_max_abs_u_skips_the_fault_marker(self):
        # a fault in the control law records u = NaN at its sample; no input
        # was applied there, and none at all when it is the first sample
        t = np.linspace(0.0, 0.2, 3)
        assert compute_metrics(self.synthetic(t, np.zeros(3), np.array([1.0, -3.0, np.nan]))).max_abs_u == 3.0
        t = np.array([0.0])
        assert compute_metrics(self.synthetic(t, np.zeros(1), np.array([np.nan]))).max_abs_u == 0.0

    def test_empty_rejected(self):
        traj = self.synthetic(np.array([0.0]), np.array([0.0]))
        traj.t = traj.t[:0]
        traj.x = traj.x[:0]
        with pytest.raises(ValueError):
            compute_metrics(traj)


class TestIdealDisturbancePlant:
    def test_forcing_equals_target_output_at_current_error(self):
        base = pendulum_plant(c=0.2)
        ref = sinusoid_reference(0.5, 1.0, 0.0, 2)
        lam = 2.0
        target = default_network(7, 1.0, 5.0)
        target = type(target)(
            centers=target.centers,
            widths=target.widths,
            weights=np.linspace(-0.3, 0.3, 7),
            learning_rate=target.learning_rate,
        )
        truth = ideal_disturbance_plant(base, target, ref, lam)
        for t in (0.0, 0.7, 2.1):
            x = StateVector([0.4, -0.2])
            xt = tracking_error(x, reference_at(ref, t)[0])
            s = filtered_error(xt, lam)
            d = float(np.dot(target.weights, activations(target, s)))
            got = truth.f_eval(x, t)
            assert got == pytest.approx(base.f_eval(x, t) + d, rel=1e-12)

    def test_binds_the_basis_once_per_plant(self, monkeypatch):
        # f_eval runs at every RK4 stage; the basis is bound with the plant
        binds = []
        real = ideal_plant.bind_basis
        monkeypatch.setattr(ideal_plant, "bind_basis", lambda net: binds.append(net) or real(net))
        target = dataclasses.replace(default_network(65, 1.0, 5.0), weights=np.linspace(-0.3, 0.3, 65))
        ref = constant_reference(0.0, 2)
        truth = ideal_disturbance_plant(pendulum_plant(), target, ref, 2.0)
        states = [StateVector([0.1 * k, -0.05]) for k in range(10)]
        values = [truth.f_eval(x, 0.0) for x in states]
        assert binds == [target]
        for x, value in zip(states, values):
            s = filtered_error(tracking_error(x, reference_at(ref, 0.0)[0]), 2.0)
            assert value == pendulum_plant().f_eval(x, 0.0) + float(np.dot(target.weights, activations(target, s)))

    def test_order_must_match(self):
        base = pendulum_plant()
        target = default_network(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_disturbance_plant(base, target, constant_reference(0.0, 3), 1.0)
