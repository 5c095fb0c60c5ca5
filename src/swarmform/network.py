"""Range-based communication graph and synchronous parameter exchange.

The graph is rebuilt from true positions every tick.  `square_distances`
computes the swarm's pairwise squared distances in one array operation, and
the simulator computes them once per tick: `build_graph` takes them as
given and the potential field reuses them.  Each robot receives exactly its
neighbours' parameter vectors and nothing else ever crosses the robot
boundary, which is what the planner's decentralization contract relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CommGraph:
    """Undirected proximity graph over robot indices.

    An edge joins two distinct robots whose distance is at most `r_c`
    (boundary inclusive).  `r_d` is the range within which communication is
    assumed degradation-free; it is carried in configs for forward
    compatibility but does not alter delivery.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    r_c: float
    r_d: float
    neighbors: tuple[tuple[int, ...], ...] = field(repr=False)

    def degree(self, i: int) -> int:
        return len(self.neighbors[i])


def square_distances(positions) -> np.ndarray:
    """(N, N) squared distances between robots, +inf on the diagonal.

    The infinite diagonal keeps a robot out of its own neighbourhood and
    out of its own nearest-robot search.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return d2


def build_graph(positions, r_c: float, r_d: float, d2=None) -> CommGraph:
    """Build the communication graph from current positions.

    Edges are exactly the pairs within `r_c`, inclusive of the boundary.
    `d2` is the positions' :func:`square_distances`, when already computed.
    Requires r_c > 0 and 0 < r_d <= r_c.
    """
    if not r_c > 0.0:
        raise ValueError(f"r_c must be > 0, got {r_c}")
    if not 0.0 < r_d <= r_c:
        raise ValueError(f"r_d must satisfy 0 < r_d <= r_c, got {r_d}")
    if d2 is None:
        d2 = square_distances(positions)
    rows, cols = np.nonzero(d2 <= r_c * r_c)  # row-major: by robot, then by id
    ends = np.cumsum(np.bincount(rows, minlength=len(d2))).tolist()
    upper = rows < cols
    edges = frozenset(zip(rows[upper].tolist(), cols[upper].tolist()))
    cols = cols.tolist()
    neighbors = tuple(tuple(cols[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return CommGraph(
        n=len(d2),
        edges=edges,
        r_c=float(r_c),
        r_d=float(r_d),
        neighbors=neighbors,
    )


def exchange(graph: CommGraph, all_eta):
    """Deliver to each robot the parameter vectors of its neighbours.

    Entry i holds exactly the eta of every j adjacent to i, ordered by
    robot id.  This is the only path by which parameter data moves between
    robots.
    """
    if len(all_eta) != graph.n:
        raise ValueError(
            f"expected {graph.n} parameter vectors, got {len(all_eta)}"
        )
    return [[all_eta[j] for j in nbrs] for nbrs in graph.neighbors]
