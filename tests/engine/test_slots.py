"""The hot per-state dataclasses carry ``__slots__`` (memory and
attribute-safety test for the simulation fast path)."""

import pytest

from repro.engine.concurrent import _ActorInfo
from repro.engine.state import CSDFState, ReducedState, SDFState


@pytest.mark.parametrize(
    "instance",
    [
        SDFState((1, 0), (2,)),
        CSDFState((1, 0), (0, 1), (2,)),
        ReducedState(SDFState((0,), (1,)), 3),
        _ActorInfo("a", 2),
    ],
    ids=["SDFState", "CSDFState", "ReducedState", "_ActorInfo"],
)
def test_no_per_instance_dict(instance):
    assert not hasattr(instance, "__dict__")
    with pytest.raises((AttributeError, TypeError)):
        instance.unexpected_attribute = 1


def test_slots_do_not_change_identity_semantics():
    a = SDFState((1,), (2,))
    b = SDFState((1,), (2,))
    assert a == b and hash(a) == hash(b)
    assert ReducedState(a, 4, 2) == ReducedState(b, 4, 2)
    assert str(ReducedState(a, 4)) == "(1, 2, 4)"


def test_slots_save_memory_over_dict_layout():
    import sys

    state = SDFState((1, 2, 3), (4, 5))

    class DictState:
        def __init__(self, clocks, tokens):
            self.clocks = clocks
            self.tokens = tokens

    boxed = DictState((1, 2, 3), (4, 5))
    assert sys.getsizeof(state) < sys.getsizeof(boxed) + sys.getsizeof(boxed.__dict__)
