"""A run's generated code: the templates of the loop, the control law, the RK4
interval and the RBF basis, their binding to a run's values as the functions'
globals, the compile caches (one code per distinct source, no value written
into one), the linecache registry and the fault rule of their arithmetic."""

from __future__ import annotations

import builtins
import functools
import itertools
import linecache
import math
import struct
import sys
import textwrap
import types
from array import array

import numpy as np

from .errors import ControllabilityFault, DivergenceFault
from .plants import Expression

__all__ = [
    "BASIS_TERMS", "DIVERGENCE_LIMIT", "EVENT_CONTROLLABILITY", "EVENT_DIVERGENCE",
    "bind_basis", "bound_interval", "bound_law", "bound_loop",
]

# A state magnitude past this is treated as divergence even while still finite.
DIVERGENCE_LIMIT = 1e9

EVENT_DIVERGENCE = "divergence"
EVENT_CONTROLLABILITY = "controllability_fault"
EVENT_SATURATION = "saturation"

# numbers the generated sources registered with linecache
_SOURCES = itertools.count()


def _names(pattern: str, count: int) -> str:
    """pattern.format(i) for i = 0, ..., count - 1, comma-separated."""
    return ", ".join(pattern.format(i) for i in range(count))


def _function_code(source: str, name: str):
    """The code of the one function that source defines, its source
    registered with linecache as "<neurofl name #serial>", so that tracebacks
    and profiles through the code show its lines."""
    filename = f"<neurofl {name} #{next(_SOURCES)}>"
    # generated sources share most of their lines
    linecache.cache[filename] = (len(source), None, [sys.intern(line) for line in source.splitlines(True)], filename)
    return next(c for c in compile(source, filename, "exec").co_consts if isinstance(c, types.CodeType))


_BUILTINS = vars(builtins)


def _inline(params: dict, local, *terms) -> bool:
    """Whether generated code may inline the terms' texts with their
    parameters as its globals: each term is an Expression that reads only its
    parameters, the names in local and builtins, and no parameter is named
    like a builtin, begins with "_", as generated code's own names do, or is
    bound in params, or in another term, to another object. If so, the
    parameters are added to params."""
    merged = dict(params)
    for term in terms:
        if not isinstance(term, Expression):
            return False
        own = term.params
        for name in term.names:
            if name not in own and name not in local and name not in _BUILTINS:
                return False
        for name, value in own.items():
            if name.startswith("_") or name in _BUILTINS or merged.setdefault(name, value) is not value:
                return False
    params.update(merged)
    return True


def _inline_plant(plant, params: dict) -> tuple:
    """(f text, b text) of a plant that generated code may inline (see
    _inline), with b a constant that passes the guard b_min; (None, None),
    and params unchanged, when its terms must be called."""
    f, b = plant.f_eval, plant.b_eval
    constant = isinstance(b, Expression) and set(b.names) <= b.params.keys() and not abs(b(None, 0.0)) < plant.b_min
    if constant and _inline(params, {"t", *(f"x{i}" for i in range(plant.order))}, f, b):
        return f.text, b.text
    return None, None


def _as_fault(exc: Exception, t: float, ts: float | None, nominal: tuple, stage: tuple) -> Exception:
    """The fault that an error in a run's generated arithmetic means, raised
    at time t in the control law (ts None), whose nominal f and b are
    nominal, or at stage time t of the RK4 substep from ts, whose stage
    state and start state are stage. A ControllabilityFault or
    DivergenceFault is returned as it is. An overflow, a complex nominal term
    or stage value, or a ValueError on a non-finite stage is returned as a
    DivergenceFault caused by exc. Any other error is raised again."""
    if isinstance(exc, (ControllabilityFault, DivergenceFault)):
        return exc
    law = ts is None
    if isinstance(exc, OverflowError):
        # Python floats raise where numpy scalars overflow to inf
        message = f"control input u overflowed at t={t:.6g}" if law else f"state overflowed in the RK4 step at t={ts:.6g}"
    elif any(isinstance(v, complex) for v in (*nominal, *stage)):
        # a fractional power of a negative number: numpy scalars give NaN
        message = f"control input u is complex at t={t:.6g}" if law else f"complex RK4 stage state at t={t:.6g}"
    elif isinstance(exc, ValueError) and not all(map(math.isfinite, stage)):
        # the plant's math on a stage that overflowed to inf (math.sin(inf))
        message = f"non-finite RK4 stage state at t={t:.6g}"
    else:
        raise exc
    fault = DivergenceFault(message)
    fault.__cause__ = exc
    return fault


def _end(fault: Exception, records: tuple, k: int) -> tuple:
    """End the run at sample k on a fault in its control law, which leaves u,
    s, d_hat and w_norm as allocated, NaN, or in the interval after it; the
    terminal event is appended to the sample's events. Returns (samples,
    terminal event)."""
    terminal = EVENT_CONTROLLABILITY if isinstance(fault, ControllabilityFault) else EVENT_DIVERGENCE
    events = records[8]
    events[k] = terminal if events[k] == "" else f"{events[k]};{terminal}"
    return k + 1, terminal


# the names every generated function reads besides its run's own
_GLOBALS = {
    "_float": float, "_copysign": math.copysign, "_isfinite": math.isfinite, "_sin": math.sin, "_exp": math.exp,
    "_LIMIT": DIVERGENCE_LIMIT, "_DivergenceFault": DivergenceFault, "_as_fault": _as_fault, "_end": _end,
}


# the most terms one compiled basis holds; a wider network is evaluated a
# block at a time through the same code: compiling takes time and memory in
# proportion to the terms (1,000 in one function took 12.6 ms and 5.2 MB)
BASIS_TERMS = 64

# k basis responses as straight-line code on Python floats, packed into the
# bound buffer _phi at byte offset _off: phi_i(s) = exp((s - c_i)**2 / nv_i)
# with nv_i = -2 sigma_i^2, which rounds as exp(-((s - c_i)**2) / (2 sigma_i^2))
# does, since IEEE division is sign-symmetric. Python floats on purpose: for
# a 61-neuron network and s swept over [-3, 3], array squaring (x*x) differed
# from pow(x, 2) on 0.08% of the inputs, and np.exp differed from math.exp in
# the last bit on 1.9% of the exponents (4.9% of uniformly drawn ones).
_BASIS = """\
def basis(s):
    _pack(_phi, _off, {terms})
    return _view
"""


@functools.cache
def _basis_code(k: int):
    """The compiled basis of k <= BASIS_TERMS neurons."""
    # ** 2.0: the bits and the OverflowError of ** 2, with no int exponent to convert per call
    terms = ", ".join(f"_exp((s - _c{i}) ** 2.0 / _nv{i})" for i in range(k))
    return _function_code(_BASIS.format(terms=terms), f"basis m={k}")


def bind_basis(net):
    """basis(s): the responses phi_i(s) of the RbfNetwork net, written into
    the binding's own buffer and returned as a float64 view of it, which the
    next call overwrites; OverflowError where (s - mu_i)**2 overflows. The
    centers and -2 sigma^2 are the code's globals."""
    centers = net.centers.tolist()
    neg_two_var = [-(2.0 * sigma * sigma) for sigma in net.widths.tolist()]
    phi = array("d", bytes(8 * len(centers)))
    view = np.frombuffer(phi)
    blocks = []
    for start in range(0, len(centers), BASIS_TERMS):
        c, nv = centers[start : start + BASIS_TERMS], neg_two_var[start : start + BASIS_TERMS]
        bound = dict(_GLOBALS, _pack=struct.Struct(f"{len(c)}d").pack_into, _phi=phi, _off=8 * start, _view=view)
        bound.update({f"_c{i}": v for i, v in enumerate(c)})
        bound.update({f"_nv{i}": v for i, v in enumerate(nv)})
        blocks.append(types.FunctionType(_basis_code(len(c)), bound))
    if len(blocks) == 1:
        return blocks[0]

    def basis(s):
        for block in blocks:
            block(s)
        return view

    return basis


# The control law of one sample on float locals (the state x0, ..., the
# reference derivatives _xd0, ..., _xd{n} and t), in control_step's order,
# each reduction the same ndarray.dot on the same float64 values as np.dot.
# {nominal} sets the nominal f and b, _fv and _bv, inlined or, in the call
# fill, from the nominal PlantModel's terms on the state as a tuple of
# floats, as the interval's stages call them. The network's step is a call:
# written out, it would double the statements each loop compiles. The last
# check catches a non-finite u before the plant's own arithmetic (math.sin,
# say) fails on it in the interval. No handler: the function that runs the
# block passes any error to _as_fault with _fv and _bv (0.0 before the first
# sample). It leaves _u, _s, _dhat, _wnorm, the adapted weights _w and the
# event _ev.
_LAW = """\
{nominal}
{errors}
_s = _float(_s_dot(_xtv))
_dhat, _wnorm, _w, _ev = (0.0, 0.0, _w, "") if _net is None else _network_step(_net, _basis, _w, _s, _dt, t)
_u = (-_fv + _xd{n} - _float(_k_dot(_xtv)) - _dhat) / _bv
if _ulim is not None and abs(_u) > _ulim:
    _u = _copysign(_ulim, _u)
    _ev = "{saturation}" if _ev == "" else "{saturation};" + _ev
if not _isfinite(_u):
    raise _DivergenceFault("control input u=%s is not finite at t=%.6g" % (_u, t))
"""


def _law_block(n: int, f: str | None, b: str | None) -> str:
    """The law of an order-n loop, the nominal f and b inlined or, where None, called."""
    nominal = f"_fv, _bv = _nterms(({_names('x{}', n)},), t)" if f is None else f"_fv, _bv = ({f}), ({b})"
    errors = f"{_names('_xt[{}]', n)} = {_names('x{0} - _xd{0}', n)}"
    return _LAW.format(nominal=nominal, errors=errors, n=n, saturation=EVENT_SATURATION)


def _bind_law(ctrl, nominal, network_step, bound: dict) -> tuple:
    """The nominal (f, b) texts the law inlines, or (None, None) to call
    them, with the ControllerState ctrl's values and network_step(net, basis,
    w, s, dt, t) added to bound. s and the feedback read the errors through
    one n-element buffer."""
    f, b = _inline_plant(nominal, bound)
    errors = array("d", bytes(8 * ctrl.gains.order))
    bound.update(_GLOBALS, _nterms=nominal.terms, _ulim=ctrl.u_limit)
    bound.update(_net=ctrl.network, _basis=None if ctrl.network is None else bind_basis(ctrl.network))
    bound.update(_network_step=network_step, _xt=errors, _xtv=np.frombuffer(errors))
    bound.update(_s_dot=ctrl.gains.filter_weights.dot, _k_dot=ctrl.gains.gains.dot)
    return f, b


_STEP = """\
def law(_x, _xd, t, _dt, _w):
    {xs}, = _x
    _fv = _bv = 0.0
    {xds}, = _xd
    try:
{law}
    except Exception as _exc:
        raise _as_fault(_exc, t, None, (_fv, _bv), ())
    return _u, _s, _dhat, _wnorm, _w, _ev
"""


@functools.cache
def _law_code(n: int, f: str | None, b: str | None):
    """The law block compiled as its own function, for control_step."""
    law = textwrap.indent(_law_block(n, f, b).rstrip(), " " * 8)
    return _function_code(_STEP.format(xs=_names("x{}", n), xds=_names("_xd{}", n + 1), law=law), f"law n={n}")


def bound_law(ctrl, nominal, network_step):
    """law(x, xd, t, dt, w) -> (u, s, d_hat, w_norm, adapted w, event), one
    sample of ctrl on the nominal plant, x and xd lists of floats."""
    bound: dict = {}
    f, b = _bind_law(ctrl, nominal, network_step, bound)
    return types.FunctionType(_law_code(ctrl.gains.order, f, b), bound)


# One RK4 interval of the truth plant with _u held, on float locals:
# simulation._rk4's operations in its order on the companion form, whose stage
# derivative is [x1, ..., x(n-1), a], {accel} at the stage state x0, ... and
# time t. It advances _y0, ... from _t0 by _dt in _substeps steps of _h, each
# from _ts. No handler: the function that runs the block passes any error to
# _as_fault with the stage state and time. Compiling takes memory in
# proportion to the statements, hence the tuple assignments.
_INTERVAL = """\
{prologue}
for _j in range(_substeps):
    t = _ts = _t0 + _j * _h
    {xs}, = {ys},
    _a1 = {accel}
    {stage2}
    _a2 = {accel}
    {stage3}
    _a3 = {accel}
    {stage4}
    _a4 = {accel}
    {update}
    if not ({finite}):
        raise _DivergenceFault("non-finite state produced at t=%.6g" % _ts)
if {beyond}:
    raise _DivergenceFault("state magnitude exceeded %.0e at t=%.6g" % (_LIMIT, _t0 + _dt))
"""


def _interval_block(n: int, f: str | None, b: str | None, d: str | None) -> str:
    """The interval of an order-n plant: f, a constant b (b*u formed once) and
    d (called where None) inlined or, where f is None, the bound
    plant_deriv's right-hand side called."""
    xs, ys = [f"x{i}" for i in range(n)], [f"_y{i}" for i in range(n)]
    if f is None:
        accel, prologue = f"_accel(({', '.join(xs)},), t)", "_accel = _plant_deriv(_truth, _u, _d)"
    else:
        accel, prologue = f"({f}) + _bu + ({'_d(t)' if d is None else d})", f"_bu = ({b}) * _u"

    def state(c, prev, a):
        # y + c * (the previous stage's derivative [prev1, ..., a])
        return [f"_y{i} + {c} * {prev}{i + 1}" for i in range(n - 1)] + [f"_y{n - 1} + {c} * {a}"]

    def assign(targets, values):
        return f"{', '.join(targets)} = {', '.join(values)}"

    update = [f"_y{i} + _sixth * (_y{i + 1} + 2.0 * _p{i + 1} + 2.0 * _q{i + 1} + x{i + 1})" for i in range(n - 1)]
    return _INTERVAL.format(
        xs=", ".join(xs),
        ys=", ".join(ys),
        prologue=prologue,
        accel=accel,
        stage2=assign([*xs, "t"], [*state("_half", "_y", "_a1"), "_ts + _half"]),
        stage3=assign([f"_p{i}" for i in range(1, n)] + xs, xs[1:] + state("_half", "x", "_a2")),
        stage4=assign([f"_q{i}" for i in range(1, n)] + [*xs, "t"], xs[1:] + [*state("_h", "x", "_a3"), "_ts + _h"]),
        update=assign(ys, update + [f"_y{n - 1} + _sixth * (_a1 + 2.0 * _a2 + 2.0 * _a3 + _a4)"]),
        finite=" and ".join(f"_isfinite({y})" for y in ys),
        beyond=" or ".join(f"abs({y}) > _LIMIT" for y in ys),
    )


# the interval alone, as a function: its test entry, integrate_interval
_INTERVAL_ENTRY = """\
def interval(_y, _u, _t0, _dt, _substeps):
    {ys}, = {xs}, = _y
    t = _ts = _t0
    _h = _dt / _substeps
    _half, _sixth = 0.5 * _h, _h / 6.0
    try:
{interval}
    except Exception as _exc:
        raise _as_fault(_exc, t, _ts, (), ({xs}, {ys}))
    return {ys},
"""


@functools.cache
def _interval_code(n: int, f: str | None, b: str | None, d: str | None):
    """The compiled interval entry of an order-n plant (see _interval_block)."""
    interval = textwrap.indent(_interval_block(n, f, b, d).rstrip(), " " * 8)
    source = _INTERVAL_ENTRY.format(xs=_names("x{}", n), ys=_names("_y{}", n), interval=interval)
    return _function_code(source, f"interval n={n}")


def _bind_truth(truth, d, plant_deriv, bound: dict) -> tuple:
    """The truth's (f, b) and d texts to inline, each None to call it, with
    the values the interval reads added to bound: plant_deriv(truth, u, d)
    builds the right-hand side of an interval that calls the terms."""
    f, b = _inline_plant(truth, bound)
    d_text = d.text if _inline(bound, {"t"}, d) else None
    bound.update(_GLOBALS, _truth=truth, _d=d, _plant_deriv=plant_deriv)
    return f, b, d_text


def bound_interval(truth, d, plant_deriv):
    """interval(y, u, t0, dt, substeps) of the truth plant under the
    disturbance d(t), its values bound as its globals (see _bind_truth)."""
    bound: dict = {}
    f, b, d_text = _bind_truth(truth, d, plant_deriv, bound)
    return types.FunctionType(_interval_code(truth.order, f, b, d_text if f else None), bound)


# One run: for each sample k, the reference derivatives at t = k*dt, the
# records of t, the state, the reference and d(t), the law, and the interval
# to the next sample. _fv and _bv start at 0.0, and _ts is None until the
# interval sets it: the handler passes both to _as_fault. Returns the samples
# recorded and the terminal event.
_LOOP = """\
def loop(_y, _steps, _dt, _substeps, _w, _records):
    _tr, _xr, _xdr, _dtr, _ur, _sr, _dhr, _wnr, _events, _wh = _records
    {ys}, = _y
    _h = _dt / _substeps
    _half, _sixth, _fv, _bv = 0.5 * _h, _h / 6.0, 0.0, 0.0
    for _k in range(_steps + 1):
        t = _t0 = _k * _dt
        {reference}
        _i = _k * {n}
        _tr[_k], {xr}, {xdr}, _dtr[_k], _ts = t, {ys}, {xds}, {d}, None
        if _wh is not None:
            _wh[_k] = _w
        {xs}, = {ys},
        try:
{law}
            _ur[_k], _sr[_k], _dhr[_k], _wnr[_k], _events[_k] = _u, _s, _dhat, _wnorm, _ev
            if _k == _steps:
                return _k + 1, None
{interval}
        except Exception as _exc:
            return _end(_as_fault(_exc, t, _ts, (_fv, _bv), ({xs}, {ys})), _records, _k)
"""


def _reference_block(n: int, m: int) -> str:
    """x_d^(k)(t), k = 0..n, of a reference with m sinusoidal components as
    simulation._reference_values sums them: from the level (k = 0) or 0.0,
    each component j's _cj_k * sin(_aj + k pi/2) added in component order."""
    shifts = [repr(k * math.pi / 2.0) for k in range(n + 1)]
    derivs = [
        " + ".join(["_lvl" if k == 0 else "0.0", *(f"_c{j}_{k} * _sin(_a{j} + {shifts[k]})" for j in range(m))])
        for k in range(n + 1)
    ]
    angles = f"{_names('_a{}', m)} = {_names('_om{0} * t + _ph{0}', m)}\n" if m else ""
    return f"{angles}{_names('_xd{}', n + 1)} = {', '.join(derivs)}"


@functools.cache
def _loop_code(n: int, m: int, f: str | None, b: str | None, d: str | None, nominal_f: str | None, nominal_b: str | None):
    """The compiled loop of an order-n run with an m-component reference; each
    text (truth f and b, d, nominal f and b) is inlined, or called where None."""
    xs, ys = [f"x{i}" for i in range(n)], [f"_y{i}" for i in range(n)]
    source = _LOOP.format(
        n=n,
        xs=", ".join(xs),
        ys=", ".join(ys),
        reference=_reference_block(n, m).replace("\n", "\n" + " " * 8),
        xr=", ".join(["_xr[_i]", *(f"_xr[_i + {i}]" for i in range(1, n))]),
        xdr=", ".join(["_xdr[_i]", *(f"_xdr[_i + {i}]" for i in range(1, n))]),
        xds=_names("_xd{}", n),
        d=f"({'_d(t)' if d is None else d})",
        law=textwrap.indent(_law_block(n, nominal_f, nominal_b).rstrip(), " " * 12),
        interval=textwrap.indent(_interval_block(n, f, b, d).rstrip(), " " * 12),
    )
    return _function_code(source, f"loop n={n} m={m}")


def bound_loop(truth, nominal, ctrl, ref, d, network_step, plant_deriv):
    """loop(y, steps, dt, substeps, w, records) of one run, its values bound
    as its globals: the truth's and the disturbance's (see _bind_truth), the
    controller's (see _bind_law) and the ReferenceSpec ref's."""
    bound: dict = {"_lvl": float(ref.level)}
    f, b, d_text = _bind_truth(truth, d, plant_deriv, bound)
    nominal_f, nominal_b = _bind_law(ctrl, nominal, network_step, bound)
    for j, (omega, phase, coefs) in enumerate(ref._terms):
        bound.update({f"_om{j}": float(omega), f"_ph{j}": float(phase)})
        bound.update({f"_c{j}_{k}": float(coef) for k, (coef, _) in enumerate(coefs)})
    code = _loop_code(truth.order, len(ref._terms), f, b, d_text, nominal_f, nominal_b)
    return types.FunctionType(code, bound)
