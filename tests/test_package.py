"""The public API: ``nctrace.__all__`` lists each export once."""

import collections

import nctrace


def test_every_export_resolves_and_is_listed_once():
    counts = collections.Counter(nctrace.__all__)
    assert [name for name, k in counts.items() if k > 1] == []
    missing = [name for name in nctrace.__all__
               if not hasattr(nctrace, name)]
    assert missing == []
