"""The resource caps hold for one ``config.limits`` block, in one context."""

import threading

import pytest

from permres import config
from permres.errors import CapExceeded
from permres.groups import Group
from permres.modules import trivial_module

C2 = Group(2, 1)


def _at_defaults():
    return config.dim_cap() == config.DEFAULT_DIM_CAP and (
        config.order_cap() == config.DEFAULT_ORDER_CAP
    )


def test_a_cap_set_in_one_thread_does_not_reach_another():
    barrier = threading.Barrier(2, timeout=30)
    seen = {}

    def capped():
        with config.limits(dim_cap=3):
            with pytest.raises(CapExceeded):
                trivial_module(C2, 4)
            barrier.wait()  # the block is open while the other thread builds
            barrier.wait()
            seen["capped"] = config.dim_cap()

    def build():
        barrier.wait()
        try:
            seen["built"] = trivial_module(C2, 4).dim
        except Exception as exc:  # reported below, not lost in the thread
            seen["built"] = exc
        finally:
            barrier.wait()

    threads = [threading.Thread(target=capped), threading.Thread(target=build)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert seen == {"capped": 3, "built": 4}
    assert _at_defaults()


@pytest.mark.parametrize(
    "dim_cap, order_cap, refused",
    [(10, 0, "order"), (0, 10, "dimension"), (-1, None, "dimension")],
)
def test_a_refused_cap_sets_neither(dim_cap, order_cap, refused):
    with pytest.raises(ValueError, match=f"{refused} cap must be positive"):
        with config.limits(dim_cap=dim_cap, order_cap=order_cap):
            pytest.fail("the block must not run")
    assert _at_defaults()


def test_cap_exceeded_in_a_nested_block_restores_the_outer_caps():
    with config.limits(dim_cap=100, order_cap=27):
        with pytest.raises(CapExceeded, match="exceeds cap 3"):
            with config.limits(dim_cap=3):
                # None keeps the enclosing block's value
                assert config.order_cap() == 27
                trivial_module(C2, 4)
        assert (config.dim_cap(), config.order_cap()) == (100, 27)
        with pytest.raises(CapExceeded, match="exceeds cap 27"):
            Group(2, 5)
    assert _at_defaults()
    assert trivial_module(C2, 4).dim == 4
