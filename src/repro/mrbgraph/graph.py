"""MRBGraph edge model (§3.2).

A MRBGraph edge records that one Map function call instance (identified by
its globally unique Map key ``MK``) contributed an intermediate value
``V2`` to one Reduce instance (identified by ``K2``).  The preserved state
``M`` of a job is the set of ``(K2, MK, V2)`` triples; a *delta* MRBGraph
additionally marks each edge as inserted or deleted.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Dict, Iterable, List, NamedTuple, Sequence, Tuple

from repro.common.kvpair import Op, sort_key


class Edge(NamedTuple):
    """A preserved MRBGraph edge (within one Reduce instance's chunk)."""

    mk: int
    value: Any


def edges_from_columns(mks: Iterable[int], values: Iterable[Any]) -> List[Edge]:
    """Zip ``(mks, values)`` columns into an edge list.

    Builds each :class:`Edge` with the C-level ``tuple.__new__`` (what
    ``Edge._make`` does underneath), skipping the Python-level
    ``Edge.__new__`` that ``Edge(mk, value)`` runs per edge.
    """
    return list(map(tuple.__new__, repeat(Edge), zip(mks, values)))


class DeltaEdge(NamedTuple):
    """A change to the MRBGraph: an inserted or deleted edge."""

    mk: int
    value: Any
    op: Op


def merge_columns(
    mks: Sequence[int],
    values: Sequence[Any],
    delta_entries: Iterable[DeltaEdge],
) -> Tuple[List[int], List[Any]]:
    """Merge delta edges into a chunk held as two columns (§3.3).

    ``mks[i]`` pairs ``values[i]``.  For each deletion the matching saved
    edge (by MK) is removed; for each insertion the engine "first checks
    duplicates, and inserts the new edge if no duplicate exists, or else
    updates the old edge" — ``(K2, MK)`` uniquely identifies an edge.
    Returns the merged ``(mks, values)`` columns sorted by MK.
    """
    merged: Dict[int, Any] = dict(zip(mks, values))
    for mk, value, op in delta_entries:
        if op is Op.DELETE:
            merged.pop(mk, None)
        else:
            merged[mk] = value
    order = sorted(merged)
    return order, list(map(merged.__getitem__, order))


def apply_delta(
    old_entries: List[Edge],
    delta_entries: Iterable[DeltaEdge],
) -> List[Edge]:
    """Merge delta edges into a chunk's preserved edge list (§3.3).

    The edge-list form of :func:`merge_columns`, which holds the rule.
    """
    mks, values = zip(*old_entries) if old_entries else ((), ())
    return edges_from_columns(*merge_columns(mks, values, delta_entries))


def group_delta_by_key(
    delta_edges: Iterable[Tuple[Any, DeltaEdge]],
) -> List[Tuple[Any, List[DeltaEdge]]]:
    """Group ``(K2, DeltaEdge)`` pairs by K2, sorted by K2.

    The shuffle phase delivers delta edges sorted by K2 (§3.3); this helper
    reproduces that grouping for callers that build delta MRBGraphs
    directly.
    """
    grouped: Dict[Any, List[DeltaEdge]] = {}
    for k2, edge in delta_edges:
        grouped.setdefault(k2, []).append(edge)
    return sorted(grouped.items(), key=lambda item: sort_key(item[0]))
