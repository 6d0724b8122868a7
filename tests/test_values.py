"""The value types written out as plain classes keep the contract they had as
dataclasses: keyword constructors, frozenness, equality and hashing, copy,
deepcopy and pickle."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

from neurofl import (
    ControllerState,
    DisturbanceSpec,
    Expression,
    GainVector,
    Metrics,
    ReferenceSpec,
    StateVector,
    StepLog,
    Trajectory,
    default_network,
)
from neurofl.config import ExperimentSetup, build_experiment, config_from_dict

SETUP = vars(build_experiment(config_from_dict({"plant": {"name": "pendulum"}, "controller": {"mode": "compensated"}})))

# (class, keyword arguments, how instances compare: "identity" for a value
# that equals only itself, "fields" for one that equals and hashes by its
# fields, "values" for a StateVector, which compares its values and has no
# hash; frozen)
CASES = [
    (GainVector, {"lam": 2.0, "order": 3}, "identity", True),
    (StateVector, {"values": [1.0, -2.0]}, "values", True),
    (ControllerState, {"gains": GainVector(2.0, 2), "network": default_network(), "u_limit": 5.0}, "identity", True),
    (StepLog, {"t": 0.1, "u": 1.5, "s": -0.25, "d_hat": 0.5, "w_norm": 2.0, "event": "weight_cap"}, "fields", True),
    (
        DisturbanceSpec,
        {"kind": "band-limited-noise", "bound": 1.0, "amplitude": 0.5, "cutoff_hz": 2.0, "seed": 7, "sample_dt": 0.01},
        "identity",
        True,
    ),
    (ReferenceSpec, {"kind": "sinusoid", "order": 2, "components": ((1.0, 2.0, 0.5),)}, "identity", True),
    (
        Trajectory,
        {
            **{name: np.array([0.0, 0.25]) for name in ("t", "u", "s", "d_hat", "d_true", "w_norm")},
            **{name: np.array([[0.0, 1.0], [0.5, 1.5]]) for name in ("x", "x_d")},
            "event": ["", "weight_cap"],
            "order": 2,
            "dt_ctrl": 0.25,
            "terminal_event": "divergence",
        },
        "identity",
        False,
    ),
    (Metrics, {"rms_error": 0.5, "iae": 1.5, "steady_state_error": -0.1, "max_abs_u": 3.0, "bounded": True}, "fields", True),
    (ExperimentSetup, SETUP, "fields", True),
]


def plain(value):
    """value as nested plain data, so that a copy compares equal to its
    original field by field, whatever its class's own equality."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Expression):
        return ("Expression", value.text, plain(value.params), value.signature)
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    if hasattr(value, "__dict__") and not callable(value):
        return (type(value).__qualname__, plain(vars(value)))
    return value


@pytest.fixture(params=CASES, ids=[cls.__name__ for cls, *_ in CASES])
def case(request):
    return request.param


def test_the_keyword_constructor_stores_each_field(case):
    cls, kwargs, _, _ = case
    obj = cls(**kwargs)
    assert type(obj) is cls and not dataclasses.is_dataclass(cls)
    for name, value in kwargs.items():
        assert plain(getattr(obj, name)) == plain(value), name
    assert repr(obj).startswith(f"{cls.__name__}(")


def test_assignment_and_deletion_fail_exactly_when_frozen(case):
    cls, kwargs, _, frozen = case
    obj = cls(**kwargs)
    name = next(iter(kwargs))
    if frozen:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
            delattr(obj, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.extra = 1
        assert plain(getattr(obj, name)) == plain(kwargs[name])
    else:
        setattr(obj, name, None)
        assert getattr(obj, name) is None


def test_equality_and_hash(case):
    cls, kwargs, compares, _ = case
    obj, twin = cls(**kwargs), cls(**kwargs)
    assert obj == obj and not obj != obj
    assert obj != object() and obj != kwargs
    if compares == "identity":
        assert obj != twin and len({obj, twin}) == 2 and hash(obj) == hash(obj)
    elif compares == "fields":
        assert obj == twin and hash(obj) == hash(twin) and len({obj, twin}) == 1
        assert obj != cls(**{**kwargs, next(iter(kwargs)): -123.0})
    else:
        assert obj == twin and obj != cls([1.0, 2.0])
        with pytest.raises(TypeError):
            hash(obj)


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copy_deepcopy_and_pickle_round_trip(case, duplicate):
    cls, kwargs, compares, frozen = case
    obj = cls(**kwargs)
    dup = duplicate(obj)
    assert type(dup) is cls and dup is not obj
    assert plain(dup) == plain(obj)
    if compares == "values" or duplicate is copy.copy and compares == "fields":
        assert dup == obj
    elif compares == "fields":
        # equal exactly when each field is: a deep copy of a setup holds new
        # plants and specs, which equal only themselves
        assert (dup == obj) is all(getattr(dup, name) == getattr(obj, name) for name in kwargs)
    if frozen:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dup, next(iter(kwargs)), None)


def test_a_state_vector_runs_its_checks_through_the_class(monkeypatch):
    # the benchmark counts StateVectors by wrapping __post_init__ on the class
    built = []
    post_init = StateVector.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    state = StateVector([1.0, 2.0])
    assert built == [state]
    assert not state.values.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        StateVector([np.nan])
    assert len(built) == 2
