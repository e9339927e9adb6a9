"""Tests for MRBGraph edges and the delta-application semantics (§3.3)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.kvpair import Op
from repro.mrbgraph.graph import (
    DeltaEdge,
    Edge,
    apply_delta,
    group_delta_by_key,
    merge_columns,
)


class TestApplyDelta:
    def test_insert_new_edge(self):
        merged = apply_delta([Edge(1, "a")], [DeltaEdge(2, "b", Op.INSERT)])
        assert merged == [Edge(1, "a"), Edge(2, "b")]

    def test_insert_duplicate_updates(self):
        # "(K2, MK) uniquely identifies a MRBGraph edge" — a duplicate
        # insertion replaces the old value.
        merged = apply_delta([Edge(1, "old")], [DeltaEdge(1, "new", Op.INSERT)])
        assert merged == [Edge(1, "new")]

    def test_delete_removes(self):
        merged = apply_delta([Edge(1, "a"), Edge(2, "b")],
                             [DeltaEdge(1, None, Op.DELETE)])
        assert merged == [Edge(2, "b")]

    def test_delete_missing_is_noop(self):
        merged = apply_delta([Edge(1, "a")], [DeltaEdge(9, None, Op.DELETE)])
        assert merged == [Edge(1, "a")]

    def test_update_is_delete_then_insert(self):
        # A modification arrives as deletion followed by insertion (§3.3).
        merged = apply_delta(
            [Edge(1, 0.3)],
            [DeltaEdge(1, None, Op.DELETE), DeltaEdge(1, 0.6, Op.INSERT)],
        )
        assert merged == [Edge(1, 0.6)]

    def test_empty_result(self):
        merged = apply_delta([Edge(1, "a")], [DeltaEdge(1, None, Op.DELETE)])
        assert merged == []

    def test_result_sorted_by_mk(self):
        merged = apply_delta([], [DeltaEdge(5, "e", Op.INSERT),
                                  DeltaEdge(1, "a", Op.INSERT)])
        assert [e.mk for e in merged] == [1, 5]


class TestGroupDelta:
    def test_groups_and_sorts_by_k2(self):
        edges = [
            ("b", DeltaEdge(1, 1, Op.INSERT)),
            ("a", DeltaEdge(2, 2, Op.INSERT)),
            ("b", DeltaEdge(3, 3, Op.DELETE)),
        ]
        grouped = group_delta_by_key(edges)
        assert [k for k, _ in grouped] == ["a", "b"]
        assert len(dict(grouped)["b"]) == 2


# Property: apply_delta must behave exactly like a dict keyed by MK.
_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),  # mk
        st.integers(),  # value
        st.booleans(),  # is_delete
    ),
    max_size=40,
)


class TestProperties:
    @given(
        st.dictionaries(st.integers(min_value=0, max_value=15), st.integers(),
                        max_size=10),
        _ops,
    )
    @settings(max_examples=200)
    def test_matches_dict_model(self, initial, operations):
        old_entries = [Edge(mk, v) for mk, v in sorted(initial.items())]
        delta = [
            DeltaEdge(mk, None if is_delete else value,
                      Op.DELETE if is_delete else Op.INSERT)
            for mk, value, is_delete in operations
        ]
        model = dict(initial)
        for mk, value, is_delete in operations:
            if is_delete:
                model.pop(mk, None)
            else:
                model[mk] = value
        merged = apply_delta(old_entries, delta)
        assert merged == [Edge(mk, model[mk]) for mk in sorted(model)]

    @given(
        st.dictionaries(st.integers(min_value=0, max_value=15), st.integers(),
                        max_size=10),
        _ops,
    )
    @settings(max_examples=200)
    def test_apply_delta_is_merge_columns_as_edges(self, initial, operations):
        old_entries = [Edge(mk, v) for mk, v in sorted(initial.items())]
        delta = [
            DeltaEdge(mk, None if d else v, Op.DELETE if d else Op.INSERT)
            for mk, v, d in operations
        ]
        mks, values = merge_columns(
            [e.mk for e in old_entries], [e.value for e in old_entries], delta
        )
        assert mks == sorted(mks)
        assert apply_delta(old_entries, delta) == list(map(Edge, mks, values))

    @given(_ops)
    @settings(max_examples=100)
    def test_idempotent_on_empty_delta_tail(self, operations):
        delta = [
            DeltaEdge(mk, None if d else v, Op.DELETE if d else Op.INSERT)
            for mk, v, d in operations
        ]
        once = apply_delta([], delta)
        twice = apply_delta(once, [])
        assert once == twice
