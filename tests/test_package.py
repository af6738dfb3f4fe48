from __future__ import annotations

import clozebase


def test_every_export_resolves_once():
    names = clozebase.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(clozebase, name)
