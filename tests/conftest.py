from hypothesis import settings, strategies as st

from ordercomplete.completion import Cut
from ordercomplete.poset import Poset, build_poset

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


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
    return poset.leq_index(poset.index(a), poset.index(b))


def principal(poset: Poset, label: str) -> Cut:
    """The principal cut <x] of an element."""
    return Cut(poset, poset.down_masks[poset.index(label)])
