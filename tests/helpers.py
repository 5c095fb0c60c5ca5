"""Plain-Python views that several test modules share."""

from __future__ import annotations


def neighbor_tuples(graph) -> tuple[tuple[int, ...], ...]:
    """`build_graph`'s CSR table `(indptr, indices)` as one tuple of
    neighbour ids per robot, in robot-id order."""
    indptr, indices = graph
    bounds = indptr.tolist()
    ids = indices.tolist()
    return tuple(tuple(ids[a:b]) for a, b in zip(bounds, bounds[1:]))
