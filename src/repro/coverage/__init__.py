"""Coverage geometry: deployments, sensing regions, the coverage
relation ``a_ij`` and the subregion arrangement of Fig. 3.

The paper places ``n`` sensors in a 2-D region; each sensor ``v_i``
monitors a fixed region ``R(v_i)`` (Sec. II-A).  Two monitoring modes
are supported:

- **Targets** (Fig. 3a): discrete points ``O_1..O_m``; the coverage
  relation ``a_ij`` says which sensors can monitor which target.
  Built by :func:`~repro.coverage.matrix.coverage_sets` /
  :func:`~repro.coverage.matrix.coverage_matrix`.
- **Region** (Fig. 3b): the whole region Omega is subdivided into the
  cells of the arrangement of the sensing regions, bounded by a
  polynomial number of subregions; each cell becomes a
  :class:`~repro.utility.area.Subregion` with an area and preference
  weight.  Built by :func:`~repro.coverage.arrangement.compute_subregions`.
"""

from repro.coverage.geometry import (
    Disk,
    Point,
    Rectangle,
    disks_intersect,
    distance,
)
from repro.coverage.sensing import (
    DiskSensingModel,
    ProbabilisticSensingModel,
    SensingModel,
)
from repro.coverage.deployment import (
    Deployment,
    uniform_deployment,
)
from repro.coverage.matrix import (
    coverage_matrix,
    coverage_sets,
    detection_probabilities,
    ensure_coverable,
)
from repro.coverage.arrangement import compute_subregions, count_subregions

__all__ = [
    "Point",
    "Disk",
    "Rectangle",
    "distance",
    "disks_intersect",
    "SensingModel",
    "DiskSensingModel",
    "ProbabilisticSensingModel",
    "Deployment",
    "uniform_deployment",
    "coverage_sets",
    "coverage_matrix",
    "detection_probabilities",
    "ensure_coverable",
    "compute_subregions",
    "count_subregions",
]
