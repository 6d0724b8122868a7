"""Acceptance suite: one test per gate criterion, each printing a PASS/FAIL
line. Scenario constants and tolerances are frozen here; the expected numbers
were computed from independent oracles (closed forms, exact arithmetic, or
hand algebra) before being asserted.
"""

import math
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

import neurofl as nf
from neurofl.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden"


def report(number, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {title}{suffix}")
    assert ok, f"criterion {number}: {title}{suffix}"


def companion_plus_lambda_is_nilpotent(coeffs, lam):
    """Exact certificate that every root of the monic polynomial equals -lam:
    the companion matrix shifted by +lam*I must be nilpotent. Evaluated in
    rational arithmetic (float coefficients are dyadic, so the shift is exact).
    Float eigensolvers scatter a multiplicity-n root by ~lam*eps^(1/n), far
    above 1e-9, which is why the certificate is exact instead."""
    deg = len(coeffs) - 1
    M = [[Fraction(0)] * deg for _ in range(deg)]
    for i in range(1, deg):
        M[i][i - 1] = Fraction(1)
    for i in range(deg):
        M[i][deg - 1] = -Fraction(coeffs[deg - i])
    lam_f = Fraction(lam)
    for i in range(deg):
        M[i][i] += lam_f
    P = M
    for _ in range(deg - 1):
        P = [
            [sum(P[i][k] * M[k][j] for k in range(deg)) for j in range(deg)]
            for i in range(deg)
        ]
    return all(P[i][j] == 0 for i in range(deg) for j in range(deg))


def test_c1_pole_placement_identity():
    t0 = time.perf_counter()
    ok = True
    worst_mean = 0.0
    for n in range(1, 7):
        for lam in (0.5, 1.0, 2.0, 5.0):
            coeffs = [1.0, *nf.GainVector(lam, n).gains[::-1]]
            ok = ok and companion_plus_lambda_is_nilpotent(coeffs, lam)
            # float companion eigenvalues: the cluster mean is trace-anchored
            mean_dev = abs(np.mean(np.roots(coeffs)) - (-lam))
            worst_mean = max(worst_mean, mean_dev)
            ok = ok and mean_dev < 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(
        1,
        "all closed-loop poles sit at -lambda for n=1..6",
        ok,
        f"worst mean dev {worst_mean:.2e}, {elapsed:.2f}s",
    )


def test_c2_nominal_convergence():
    t0 = time.perf_counter()
    plant = nf.pendulum_plant(m=1.0, l=1.0, c=0.0, g=9.81)
    ctrl = nf.ControllerState(gains=nf.GainVector(2.0, 2))
    ref = nf.sinusoid_reference(1.0, 1.0, 0.0, 2)
    traj = nf.run_closed_loop(
        plant, plant, ctrl, ref, nf.no_disturbance(), 2.0, 10.0, 1e-3, 1, x0=[1.0, 0.0]
    )
    elapsed = time.perf_counter() - t0
    xt = traj.x[:, 0] - traj.x_d[:, 0]
    rms_tail = float(np.sqrt(np.mean(xt[traj.t >= 9.0] ** 2)))
    # closed form of xt'' + 4 xt' + 4 xt = 0 with xt(0)=1, xt'(0)=-1:
    # (1 + t) e^(-2t). The additive floor covers the zero-order-hold ripple
    # (about (dt/2)|du/dt| b / 5 ~ 1e-3), which the RMS bound itself allows.
    envelope = np.abs((1.0 + traj.t) * np.exp(-2.0 * traj.t))
    within = bool(np.all(np.abs(xt) <= 1.05 * envelope + 2e-3))
    ok = rms_tail < 1e-3 and within and traj.terminal_event is None and elapsed < 5.0
    report(
        2,
        "nominal loop tracks sin t with exponential transient decay",
        ok,
        f"tail rms {rms_tail:.2e}, envelope ok {within}, {elapsed:.2f}s",
    )


def _constant_load_scenario(network=None):
    plant = nf.pendulum_plant(m=1.0, l=1.0, c=0.0, g=9.81)
    ctrl = nf.ControllerState(gains=nf.GainVector(2.0, 2), network=network)
    ref = nf.constant_reference(0.0, 2)
    dist = nf.constant_disturbance(0.5)
    return nf.run_closed_loop(
        plant, plant, ctrl, ref, dist, 2.0, 10.0, 1e-3, 1, x0=[0.0, 0.0]
    )


def test_c3_baseline_steady_state_under_constant_load():
    t0 = time.perf_counter()
    traj = _constant_load_scenario()
    elapsed = time.perf_counter() - t0
    sse = nf.compute_metrics(traj).steady_state_error
    # equilibrium of xt'' + 4 xt' + 4 xt = d: xt = d / k0 = 0.5 / 4 = +0.125
    # (substituting the linearizing law into the plant; a positive load pushes
    # the output above the reference, so the offset is positive)
    ok = abs(sse - 0.125) <= 0.01 * 0.125 and elapsed < 5.0
    report(
        3,
        "uncompensated constant load leaves offset d/k0",
        ok,
        f"sse {sse:+.6f} vs +0.125, {elapsed:.2f}s",
    )


def test_c4_compensation_benefit():
    net = nf.default_network(11, 0.5, 20.0)  # s_range covers observed |s| <= 0.07
    traj = _constant_load_scenario(network=net)
    metrics = nf.compute_metrics(traj)
    sse = metrics.steady_state_error
    ok = abs(sse) <= 0.125 / 10.0 and metrics.bounded
    report(
        4,
        "network compensation shrinks the constant-load offset at least 10x",
        ok,
        f"|sse| {abs(sse):.2e} vs 0.0125, bounded {metrics.bounded}",
    )


def test_c5_adaptation_energy_descent():
    lam = 2.0
    dt = 1e-4
    eta = 5.0
    plant = nf.pendulum_plant(m=1.0, l=1.0, c=0.0, g=9.81)
    ref = nf.constant_reference(0.0, 2)
    net = nf.default_network(11, 1.0, eta)
    rng = np.random.default_rng(42)
    target = replace(net, weights=rng.uniform(-0.5, 0.5, net.neuron_count))
    truth = nf.ideal_disturbance_plant(plant, target, ref, lam)
    ctrl = nf.ControllerState(gains=nf.GainVector(lam, 2), network=net)
    traj = nf.run_closed_loop(
        truth, plant, ctrl, ref, nf.no_disturbance(), lam, 10.0, dt, 1,
        x0=[0.3, 0.0], record_weights=True,
    )
    V = 0.5 * traj.s**2 + np.sum((traj.weights - target.weights) ** 2, axis=1) / (2.0 * eta)
    dV = np.diff(V)
    slack = 10.0 * dt * dt
    violations = int(np.sum(dV > slack))
    ok = violations == 0 and traj.terminal_event is None
    report(
        5,
        "adaptation energy is nonincreasing in the representable-load case",
        ok,
        f"{violations} of {dV.size} steps above slack {slack:.1e}, max dV {dV.max():.2e}",
    )


def test_c6_bounded_signals_under_sinusoidal_load():
    plant = nf.pendulum_plant(m=1.0, l=1.0, c=0.0, g=9.81)
    net = nf.default_network(11, 1.0, 10.0)
    ctrl = nf.ControllerState(gains=nf.GainVector(2.0, 2), network=net)
    ref = nf.sinusoid_reference(1.0, 1.0, 0.0, 2)
    dist = nf.sinusoid_disturbance(1.0, 0.5)  # |d| <= 1
    traj = nf.run_closed_loop(plant, plant, ctrl, ref, dist, 2.0, 60.0, 1e-3, 1)
    xt = traj.x[:, 0] - traj.x_d[:, 0]
    caps = {"error": 1.0, "input": 50.0, "weights": 10.0}
    max_xt = float(np.abs(xt).max())
    max_u = float(np.abs(traj.u).max())
    max_w = float(traj.w_norm.max())
    finite = bool(
        np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.u)) and np.all(np.isfinite(traj.w_norm))
    )
    ok = (
        traj.terminal_event is None
        and finite
        and max_xt < caps["error"]
        and max_u < caps["input"]
        and max_w < caps["weights"]
    )
    report(
        6,
        "all closed-loop signals stay in a bounded region over 60 s",
        ok,
        f"max|xt| {max_xt:.3f}, max|u| {max_u:.2f}, max|w| {max_w:.2f}",
    )


def test_c7_integrator_order():
    def global_error(dt):
        y = np.array([1.0])
        for k in range(round(1.0 / dt)):
            y = nf.rk4_step(lambda y, t: y, y, k * dt, dt)
        return abs(y[0] - math.e)

    e1, e2, e3 = global_error(1e-2), global_error(5e-3), global_error(2.5e-3)
    r12, r23 = e1 / e2, e2 / e3
    ok = 14.0 <= r12 <= 18.0 and 14.0 <= r23 <= 18.0
    report(
        7,
        "halving dt shrinks the global integration error ~16x",
        ok,
        f"ratios {r12:.2f}, {r23:.2f}",
    )


def test_c8_reduction_identity():
    rng = np.random.default_rng(1234)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        lam = float(rng.uniform(0.2, 5.0))
        gains = nf.GainVector(lam, n)
        neurons = int(rng.integers(1, 12))
        net = nf.default_network(neurons, float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.5, 20.0)))
        u_limit = float(rng.uniform(1.0, 50.0)) if rng.random() < 0.3 else None
        ctrl_c = nf.ControllerState(gains=gains, network=net, u_limit=u_limit)
        ctrl_b = nf.ControllerState(gains=gains, u_limit=u_limit)
        x = nf.StateVector(rng.uniform(-3.0, 3.0, n))
        x_d = nf.StateVector(rng.uniform(-3.0, 3.0, n))
        xd_n = float(rng.uniform(-5.0, 5.0))
        f_val = float(rng.uniform(-10.0, 10.0))
        b_val = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0))
        # the nominal model evaluates to the drawn f and b at every state
        plant = nf.PlantModel(
            order=n, f_eval=lambda x, t: f_val, b_eval=lambda x, t: b_val, b_min=0.01, name="drawn"
        )
        u_c, _, log_c = nf.control_step(ctrl_c, plant, x, x_d, xd_n, 0.0, 1e-3)
        u_b, _, _ = nf.control_step(ctrl_b, plant, x, x_d, xd_n, 0.0, 1e-3)
        if u_c != u_b or log_c.d_hat != 0.0:
            mismatches += 1
    ok = mismatches == 0
    report(
        8,
        "zero-weight compensated law reproduces the baseline bit for bit",
        ok,
        f"{mismatches} mismatches in 10000 draws",
    )


def test_c9_determinism_of_compare_runs(tmp_path):
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = cli_main(
            ["compare", "--config", str(GOLDEN / "golden_config.json"), "--out-dir", str(out)]
        )
        assert code == 0
        outs.append(out)
    same = all(
        (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in ("baseline.csv", "compensated.csv")
    )
    golden_match = all(
        (outs[0] / name).read_bytes() == (GOLDEN / name).read_bytes()
        for name in ("baseline.csv", "compensated.csv")
    )
    ok = same and golden_match
    report(
        9,
        "repeated compare runs produce byte-identical trajectories",
        ok,
        f"rerun identical {same}, matches frozen goldens {golden_match}",
    )
