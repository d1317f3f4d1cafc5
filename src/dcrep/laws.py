"""One law source: ``threshold_law`` gives every model's {0,1} threshold
law, so no caller chooses between an exact and a Monte Carlo law."""

from __future__ import annotations

from . import gaussian, stable
from .partitions import BinaryLaw


def threshold_law(model, h: float, samples: int | None = None, seed=None) -> BinaryLaw:
    """The threshold law at h of a ``BinaryLaw`` (itself), a ``CovarianceSpec``
    or a ``StableLinearModel``: given ``samples``, the Monte Carlo law, so a
    new exact route never changes such a call; otherwise the exact law where
    one is known (today the standard n = 3 Gaussian at h = 0), else
    ValueError.  The samplers are looked up on their modules, where a tracer
    wraps them."""
    if isinstance(model, BinaryLaw):
        return model
    is_gaussian = isinstance(model, gaussian.CovarianceSpec)
    if samples is not None:
        if is_gaussian:
            return gaussian.threshold_law_mc(model, h, samples, seed)
        return stable.stable_threshold_law_mc(model, h, samples, seed)
    if is_gaussian and h == 0.0 and model.n == 3 and model.is_standard:
        return gaussian.zero_threshold_law_3(model)
    raise ValueError("this model needs --samples for a Monte Carlo law" if is_gaussian
                     else "stable laws need --samples for a Monte Carlo law")
