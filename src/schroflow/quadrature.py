"""Composite Gauss-Legendre quadrature on a radial interval (0, R].

Its nodes are the closed route's sampling grid, and an integral of values
sampled on them is the weighted sum ``np.sum(weights * values)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RadialQuadrature:
    """Panels x nodes Gauss-Legendre rule on (0, r_max].

    ``nodes`` are strictly increasing and strictly positive, so integrands
    with an integrable power singularity at r=0 are handled without special
    casing.
    """

    r_max: float = 30.0
    panels: int = 125
    nodes_per_panel: int = 16
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.r_max <= 0 or self.panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("RadialQuadrature requires r_max > 0 and positive panel counts")
        x, w = np.polynomial.legendre.leggauss(self.nodes_per_panel)
        edges = np.linspace(0.0, self.r_max, self.panels + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        weights = (half[:, None] * w[None, :]).ravel()
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.nodes)
