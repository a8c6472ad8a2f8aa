"""The coverage relation: ``a_ij``, ``V(O_i)`` and helpers (Sec. IV-A-1).

Given a deployment and a sensing model, these functions compute the
indicator

.. math::

    a_{ij} = \\begin{cases} 1 & \\text{if sensor } v_j \\text{ covers
    target } O_i \\\\ 0 & \\text{else} \\end{cases}

and the per-target sensor sets ``V(O_i)`` used everywhere in the
scheduling layer.

At fleet scale the all-pairs loop is the bottleneck (``O(n * m)``
``covers`` calls), so every helper here routes through the uniform-grid
index of :mod:`repro.coverage.spatial` whenever
:func:`~repro.coverage.spatial.index_for` builds one -- bit-identical
results by the index's ascending-id contract.  Small fleets and
unbounded models keep the brute-force scan.
"""

from __future__ import annotations

from typing import FrozenSet, List

import numpy as np

from repro.coverage.deployment import Deployment
from repro.coverage.sensing import SensingModel
from repro.coverage.spatial import index_for


def coverage_sets(
    deployment: Deployment, model: SensingModel
) -> List[FrozenSet[int]]:
    """``V(O_i)`` for every target: sensors whose region contains it."""
    index = index_for(deployment.sensors, model)
    if index is not None:
        return [
            index.covering_sensors(target) for target in deployment.targets
        ]
    sets: List[FrozenSet[int]] = []
    for target in deployment.targets:
        covering = frozenset(
            j
            for j, sensor in enumerate(deployment.sensors)
            if model.covers(sensor, target)
        )
        sets.append(covering)
    return sets


def coverage_matrix(deployment: Deployment, model: SensingModel) -> np.ndarray:
    """Indicator matrix ``a`` of shape ``(m, n)``, ``a[i, j] = a_ij``."""
    m = deployment.num_targets
    n = deployment.num_sensors
    a = np.zeros((m, n), dtype=np.int8)
    for i, covering in enumerate(coverage_sets(deployment, model)):
        for j in covering:
            a[i, j] = 1
    return a


def detection_probabilities(
    deployment: Deployment, model: SensingModel
) -> List[dict]:
    """Per-target ``{sensor: p}`` maps from the sensing model.

    For a :class:`~repro.coverage.sensing.DiskSensingModel` every
    in-range probability is the constant ``p``; probabilistic models
    give distance-dependent values.  Feed each map into
    :class:`~repro.utility.detection.DetectionUtility`.
    """
    index = index_for(deployment.sensors, model)
    if index is not None:
        # Positive detection probability implies coverage distance for
        # both built-in models, so the candidate superset is valid here
        # too; ascending-id insertion keeps the dicts bit-identical.
        return [index.detection_map(target) for target in deployment.targets]
    maps: List[dict] = []
    for target in deployment.targets:
        probs = {}
        for j, sensor in enumerate(deployment.sensors):
            p = model.detection_probability(sensor, target)
            if p > 0.0:
                probs[j] = p
        maps.append(probs)
    return maps


def ensure_coverable(
    deployment: Deployment, model: SensingModel
) -> Deployment:
    """Drop targets no sensor can cover.

    Random deployments can leave targets outside every sensing disk;
    such targets contribute zero utility under any schedule and only
    dilute the "average utility per target" metric.  The paper's
    testbed scenarios implicitly have every target covered (p=0.4 per
    covering sensor); this helper reproduces that precondition.
    """
    sets = coverage_sets(deployment, model)
    kept = [
        target
        for target, covering in zip(deployment.targets, sets)
        if covering
    ]
    if len(kept) == deployment.num_targets:
        return deployment
    return deployment.with_targets(kept)
