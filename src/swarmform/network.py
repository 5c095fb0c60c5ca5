"""Range-based neighbourhoods and synchronous parameter exchange.

The planner is decentralised: each tick a robot reads its own state and
its neighbours' parameter vectors, so the communication layer comes down
to who neighbours whom.  The simulator computes the swarm's pairwise
squared distances once per tick with `square_distances`; `build_graph`
turns them into a CSR neighbour table, built by array operations only.
`exchange` hands each robot exactly its neighbours' parameter vectors;
nothing else crosses the robot boundary.
"""

from __future__ import annotations

import numpy as np


def square_distances(positions) -> np.ndarray:
    """(..., N, N) squared distances between the robots of each position set
    in `positions` (..., N, 2): one tick's, or a stack of logged ticks.  The
    +inf on every diagonal keeps a robot out of its own nearest-robot search.
    """
    pts = np.asarray(positions, dtype=float)
    dx = pts[..., None, 0] - pts[..., None, :, 0]
    dy = pts[..., None, 1] - pts[..., None, :, 1]
    d2 = np.square(dx, out=dx)
    d2 += np.square(dy, out=dy)
    n = pts.shape[-2]
    d2.reshape(-1, n * n)[:, :: n + 1] = np.inf
    return d2


def build_graph(positions, r_c: float, d2=None) -> tuple[np.ndarray, np.ndarray]:
    """CSR table `(indptr, indices)` of the range graph.

    Robot i's neighbours are `indices[indptr[i]:indptr[i + 1]]`: by
    increasing id, every other robot within `r_c` of robot i, boundary
    inclusive.  `d2` is the positions' :func:`square_distances`, when
    already computed.  Requires r_c > 0.
    """
    if not r_c > 0.0:
        raise ValueError(f"r_c must be > 0, got {r_c}")
    if d2 is None:
        d2 = square_distances(positions)
    n = len(d2)
    within = d2 <= r_c * r_c
    # An infinite r_c * r_c would otherwise admit the +inf diagonal.
    within.flat[:: n + 1] = False
    robot, indices = within.nonzero()  # row-major: by robot, then by id
    return robot.searchsorted(np.arange(n + 1)), indices


def exchange(graph, all_eta) -> list[list]:
    """Deliver to each robot the parameter vectors of its neighbours.

    `graph` is :func:`build_graph`'s table.  Entry i holds exactly the eta
    of every j adjacent to i, ordered by robot id.  This is the only path
    by which parameter data moves between robots.
    """
    indptr, indices = graph
    n = len(indptr) - 1
    if len(all_eta) != n:
        raise ValueError(f"expected {n} parameter vectors, got {len(all_eta)}")
    delivered = np.fromiter(all_eta, dtype=object, count=n)[indices].tolist()
    bounds = indptr.tolist()
    return [delivered[a:b] for a, b in zip(bounds, bounds[1:])]
