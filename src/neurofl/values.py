"""The bases of the package's frozen value types.

The value types are plain classes, not dataclasses, so that importing the
package generates and compiles no code: each writes out its constructor,
which stores the fields in the instance dict and then runs the checks in its
__post_init__, looked up on the instance as a dataclass's __init__ does.
PlantModel, RbfNetwork and ExperimentConfig stay dataclasses, since callers
use their dataclass API (dataclasses.replace, fields).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError

__all__ = ["Frozen", "Record", "fields_repr"]


def fields_repr(obj) -> str:
    """Class(name=value, ...) over obj's public fields, in the order its
    constructor stored them."""
    fields = ", ".join(f"{name}={value!r}" for name, value in vars(obj).items() if name[0] != "_")
    return f"{type(obj).__qualname__}({fields})"


class Frozen:
    """A value whose fields its constructor sets once: assigning or deleting
    an attribute afterwards raises dataclasses.FrozenInstanceError, as on a
    frozen dataclass. It equals only itself. There are no __slots__, so copy
    and pickle restore the instance dict and never call __setattr__."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    __repr__ = fields_repr


class Record(Frozen):
    """A Frozen value that equals another of its class with equal fields and
    hashes by its fields, as a frozen dataclass with eq does."""

    def __eq__(self, other):
        return vars(self) == vars(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))
