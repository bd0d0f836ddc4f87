"""Magnetic-sublevel degeneracy of the coupling transition.

For linearly polarized, parallel fields the coupling Rabi frequency of each
M component scales with the direction-cosine matrix element of the
|2> -> |3> transition: |M| for a Q line (Delta J = 0, M = 0 dark) and
sqrt(J_max^2 - M^2) for P/R lines.  The spectrum summed over M is a sum of
lineshapes evaluated at the scaled Rabi frequencies, with one probe Rabi
frequency Omega_1 for every component.  That is a simplification, not an
overall constant: a weak-probe component scales as Omega_1(M)^2, and
Omega_1(M) follows the same direction-cosine rule.  Weighting it is an
open correction (ROADMAP item 2; acceptance criterion 4: 799.72 -> 658.19 MHz).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import SelectionRuleError
from .model import DriveParams


@dataclass(frozen=True)
class MSublevelWeights:
    """Per-M coupling weights, normalized so the strongest component is 1."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise SelectionRuleError("an M sum needs at least one component")

    def folded(self) -> list[tuple[float, int]]:
        """(weight, multiplicity) pairs; exploits the M -> -M symmetry."""
        counts: dict[float, int] = {}
        for _, w in self.entries:
            counts[w] = counts.get(w, 0) + 1
        return sorted(counts.items())


def weights(j2: int, j3: int) -> MSublevelWeights:
    """Coupling-field weights over M in [-J_min, J_min] for linearly
    polarized, parallel fields, the only polarization modeled.  Raises
    SelectionRuleError for J = 0 -> 0 and |j3 - j2| > 1; every other pair
    has a component of weight 1."""
    if j2 < 0 or j3 < 0:
        raise SelectionRuleError("rotational quantum numbers must be >= 0")
    if abs(j3 - j2) > 1:
        raise SelectionRuleError(f"|j3 - j2| = {abs(j3 - j2)} violates the dipole rule")
    j_min, j_max = min(j2, j3), max(j2, j3)
    ms = np.arange(-j_min, j_min + 1)
    if j2 == j3:
        if j2 == 0:
            raise SelectionRuleError("J = 0 -> J = 0 is forbidden")
        vals = np.abs(ms).astype(float)
    else:
        vals = np.sqrt(float(j_max) ** 2 - ms.astype(float) ** 2)
    vals = vals / vals.max()
    return MSublevelWeights(entries=tuple((int(m), float(v)) for m, v in zip(ms, vals)))


def m_summed(engine_op, wts: MSublevelWeights, drive: DriveParams, *args, **kwargs):
    """Sum engine_op over M components with the coupling Rabi frequency
    scaled per component.  Zero-weight components contribute their
    Omega_2 = 0 evaluation.  Linear, so it commutes with velocity averaging.
    """
    return folded_sum((engine_op(replace(drive, rabi_2=drive.rabi_2 * weight),
                                 *args, **kwargs)
                       for weight, _ in wts.folded()), wts)


def folded_weights(wts: MSublevelWeights | None) -> np.ndarray:
    """The weights of ``wts.folded()`` in order, or the single weight 1.0
    when ``wts`` is None (no M sum)."""
    return np.array([1.0] if wts is None else [w for w, _ in wts.folded()])


def folded_sum(terms, wts: MSublevelWeights | None):
    """Sum per-component values given in :func:`folded_weights` order, each
    times its multiplicity: the one summation order of every M sum.  With
    ``wts`` None the one term is returned as it is."""
    counts = [1] if wts is None else [count for _, count in wts.folded()]
    total = None
    for count, val in zip(counts, terms):
        term = count * val if count > 1 else val
        total = term if total is None else total + term
    return total
