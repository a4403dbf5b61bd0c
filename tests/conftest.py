import faulthandler
import os

import pytest
from hypothesis import settings, strategies as st

from ordercomplete.completion import Cut
from ordercomplete.poset import Poset, build_poset

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


_TERMINAL_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # pytest captures fd 2 during each test, and the guard below exits the
    # process, so it writes to a copy of the terminal's stderr taken here
    config.stash[_TERMINAL_STDERR] = os.dup(2)


@pytest.fixture(autouse=True)
def hang_guard(request):
    """A test still running after two minutes is taken as hung: dump every
    thread's traceback and exit, so a looping kernel fails the run instead
    of stalling it."""
    stderr = request.config.stash[_TERMINAL_STDERR]
    faulthandler.dump_traceback_later(120, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


@st.composite
def posets(draw, max_n: int = 6) -> Poset:
    """Random small posets: seeded forward edges, then the closure."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    labels = tuple(f"e{i}" for i in range(n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((labels[i], labels[j]))
    return build_poset(labels, pairs, "covers")


@st.composite
def posets_with_mask(draw, max_n: int = 6):
    poset = draw(posets(max_n))
    mask = draw(st.integers(min_value=0, max_value=poset.full_mask))
    return poset, mask


@st.composite
def posets_with_two_masks(draw, max_n: int = 6):
    poset = draw(posets(max_n))
    a = draw(st.integers(min_value=0, max_value=poset.full_mask))
    b = draw(st.integers(min_value=0, max_value=poset.full_mask))
    return poset, a, b


def leq(poset: Poset, a: str, b: str) -> bool:
    """a <= b, by label."""
    return bool(poset.up_masks[poset.index(a)] >> poset.index(b) & 1)


def principal(poset: Poset, label: str) -> Cut:
    """The principal cut <x] of an element."""
    return Cut(poset, poset.down_masks[poset.index(label)])
