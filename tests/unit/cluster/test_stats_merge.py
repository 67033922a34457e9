"""The router's one merge rule for the stats blocks of its member nodes."""

from __future__ import annotations

from repro.service.metrics import NO_SUM_KEYS, merge_stats


def test_numbers_sum_bools_or_and_strings_agree_or_become_mixed():
    merged = merge_stats(
        [
            {"hits": 3, "seconds": 0.25, "enabled": False, "policy": "priority", "dir": "/a"},
            {"hits": 4, "seconds": 0.5, "enabled": True, "policy": "priority", "dir": "/b"},
        ]
    )
    assert merged == {
        "hits": 7,
        "seconds": 0.75,
        "enabled": True,
        "policy": "priority",
        "dir": "mixed",
    }


def test_nested_blocks_merge_key_by_key_and_missing_values_are_skipped():
    merged = merge_stats(
        [
            {"counters": {"a": 1}, "tiering": {"enabled": False}, "error": None},
            {"counters": {"a": 2, "b": 5}, "tiering": {"enabled": True, "hot": 3}, "error": "x"},
        ]
    )
    assert merged == {
        "counters": {"a": 3, "b": 5},
        "tiering": {"enabled": True, "hot": 3},
        "error": "x",
    }
    assert merge_stats([]) is None


def test_no_sum_keys_are_not_summed():
    assert "candidate_limit" in NO_SUM_KEYS
    same = merge_stats([{"candidate_limit": 16}, {"candidate_limit": 16}])
    assert same == {"candidate_limit": 16}
    differing = merge_stats([{"candidate_limit": 16}, {"candidate_limit": 8}])
    assert differing == {"candidate_limit": "mixed"}
    for key in NO_SUM_KEYS:
        assert merge_stats([{key: 2}, {key: 2}]) == {key: 2}
