"""Boundary-graded radial meshes and nested interior subdomains.

Continuum solutions of the singular problems blow up at r = R, so every
discrete computation lives on a truncated interval [0, R - eta].  The
nested-subdomain family {d > 1/n} used for large-solution limits is the
same truncation with eta = 1/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError


@dataclass(frozen=True)
class Grid:
    """Strictly increasing radial nodes on [0, R - eta]; build_graded_grid alone makes them."""

    nodes: np.ndarray
    R: float

    @property
    def m(self) -> int:
        return self.nodes.size

    @property
    def spacings(self) -> np.ndarray:
        return np.diff(self.nodes)

    @property
    def half_nodes(self) -> np.ndarray:
        return 0.5 * (self.nodes[:-1] + self.nodes[1:])

    @property
    def cell_widths(self) -> np.ndarray:
        """Dual-cell widths: half of each adjacent spacing, summed."""
        h = self.spacings
        widths = np.empty(self.m)
        widths[0] = 0.5 * h[0]
        widths[-1] = 0.5 * h[-1]
        widths[1:-1] = 0.5 * (h[:-1] + h[1:])
        return widths

    @property
    def boundary_gap(self) -> np.ndarray:
        """d = R - r at every node; bounded below by eta."""
        return self.R - self.nodes


def build_graded_grid(R: float, eta: float, m: int, grading: float = 2.0) -> Grid:
    """Mesh [0, R - eta] with node density increasing toward r = R.

    Nodes follow r_j = (R - eta) * (1 - (1 - j/(m-1))**grading); grading 1
    is uniform, larger values compress spacing into the boundary layer
    where the solution behaves like (R - r)**(-beta).
    """
    if not 0.0 < eta < R:
        raise ParameterError(f"eta must lie in (0, R); got eta={eta}, R={R}", "eta", "R")
    if not R - eta < R:  # the last node would sit at r = R, where the solution blows up
        raise ParameterError(f"R - eta rounds to R; got eta={eta}, R={R}", "eta", "R")
    if m < 3:
        raise ParameterError(f"node count m must be at least 3; got {m}", "m")
    if grading < 1.0:
        raise ParameterError(f"grading must be >= 1; got {grading}", "grading")
    s = np.arange(m, dtype=float) / (m - 1)
    nodes = (R - eta) * (1.0 - (1.0 - s) ** grading)
    nodes[0] = 0.0
    nodes[-1] = R - eta
    if not np.all(np.diff(nodes) > 0.0):
        raise ParameterError("grid nodes must be strictly increasing", "m", "grading")
    return Grid(nodes=nodes, R=R)


def nested_margin(R: float, n: int) -> float:
    """The margin 1/n of the subdomain {r < R - 1/n} of the ball of radius R."""
    if n < 1:
        raise ParameterError(f"subdomain index n must be a positive integer; got {n}", "n")
    if 1.0 / n >= R:
        raise ParameterError(f"margin 1/{n} >= R = {R} leaves an empty subdomain", "n")
    return 1.0 / n

