"""Verdict vocabulary shared by the classifiers and the CLI, and ``_plain``,
the one rule by which a result becomes JSON."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum

import numpy as np

from .partitions import BinaryLaw, PartitionDistribution


class Verdict(str, Enum):
    COLOR_REP = "ColorRep"
    NO_COLOR_REP = "NoColorRep"
    UNDETERMINED = "Undetermined"


class Regime(str, Enum):
    H_ZERO = "h=0"
    SMALL_H = "small-h"
    LARGE_H = "large-h"
    ALL_H = "all-h"
    ALL_POSITIVE_H = "all-positive-h"


@dataclass(frozen=True)
class ClassificationReport:
    """One classifier's answer, tagged with the h-regime it speaks about.

    Verdicts never extrapolate across regimes: representability is not
    monotone in h, so a large-h verdict says nothing about small h.
    """

    verdict: Verdict
    regime: Regime
    source: str
    witness: dict = field(default_factory=dict)


_JSON_SCALARS = {str, int, float, bool, type(None)}


def _plain(obj):
    """The JSON form of a result, recursively: a dataclass is the dict of its
    fields, a ``PartitionDistribution`` its {key: weight} mapping, a law its
    ``to_json_dict``, a mapping a dict, a tuple or array a list, a numpy
    scalar a Python number and an enum its value.  Another result whose JSON
    is not its fields converts itself first (``SpectralMeasure.to_json_dict``)."""
    if type(obj) in _JSON_SCALARS:      # most of a payload: no test below applies
        return obj
    if isinstance(obj, PartitionDistribution):
        obj = obj.weights
    elif isinstance(obj, BinaryLaw):
        obj = obj.to_json_dict()
    if isinstance(obj, Mapping):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Enum):
        return obj.value
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)}
    return obj
