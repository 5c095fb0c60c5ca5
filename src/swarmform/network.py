"""Range-based neighbourhoods and synchronous parameter exchange.

The planner is decentralised: each tick a robot reads its own state and
its neighbours' parameter vectors, so the communication layer comes down
to who neighbours whom.  `square_distances` computes the swarm's pairwise
squared distances in one array operation, and the simulator computes them
once per tick: `build_graph` turns them into each robot's neighbour tuple
and the potential field reuses them.  `exchange` hands each robot exactly
its neighbours' parameter vectors; nothing else crosses the robot boundary.
"""

from __future__ import annotations

import numpy as np


def square_distances(positions) -> np.ndarray:
    """(N, N) squared distances between robots, +inf on the diagonal.

    The infinite diagonal keeps a robot out of its own nearest-robot search.
    """
    pts = np.asarray(positions, dtype=float).reshape(-1, 2)
    dx = pts[:, None, 0] - pts[None, :, 0]
    dy = pts[:, None, 1] - pts[None, :, 1]
    d2 = dx * dx + dy * dy
    np.fill_diagonal(d2, np.inf)
    return d2


def build_graph(positions, r_c: float, d2=None) -> tuple[tuple[int, ...], ...]:
    """Neighbour tuples of the range graph, one per robot in robot-id order.

    Entry i lists, by increasing id, every other robot within `r_c` of
    robot i, boundary inclusive.  `d2` is the positions'
    :func:`square_distances`, when already computed.  Requires r_c > 0.
    """
    if not r_c > 0.0:
        raise ValueError(f"r_c must be > 0, got {r_c}")
    if d2 is None:
        d2 = square_distances(positions)
    within = d2 <= r_c * r_c
    # An infinite r_c * r_c would otherwise admit the +inf diagonal.
    np.fill_diagonal(within, False)
    rows, cols = np.nonzero(within)  # row-major: by robot, then by id
    ends = np.cumsum(np.bincount(rows, minlength=len(d2))).tolist()
    cols = cols.tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends[:-1], ends))


def exchange(neighbors, all_eta):
    """Deliver to each robot the parameter vectors of its neighbours.

    `neighbors` is :func:`build_graph`'s output.  Entry i holds exactly the
    eta of every j adjacent to i, ordered by robot id.  This is the only
    path by which parameter data moves between robots.
    """
    if len(all_eta) != len(neighbors):
        raise ValueError(
            f"expected {len(neighbors)} parameter vectors, got {len(all_eta)}"
        )
    return [[all_eta[j] for j in nbrs] for nbrs in neighbors]
