"""The package's public surface: ``selfmix.__all__``."""
from __future__ import annotations

import selfmix


def test_all_is_sorted_unique_and_every_name_resolves():
    names = selfmix.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(selfmix, name)]
    assert missing == []
