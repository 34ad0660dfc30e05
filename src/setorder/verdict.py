"""Three-valued check outcomes.

Quantified statements over infinite index sets are only ever sampled, so
checks return a Verdict instead of a bool: Holds carries a certificate,
Fails carries a counterexample, Inconclusive carries a reason. Verdicts
refuse truthiness on purpose; write `v.is_holds`, not `if v:`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping


class Status(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    status: Status
    reason: str = ""
    #: True when the verdict rests on sampled quantifier instantiation and a
    #: clean pass is therefore evidence, not proof.
    sampled: bool = False
    certificate: Mapping[str, Any] = field(default_factory=dict)
    counterexample: Mapping[str, Any] = field(default_factory=dict)

    @staticmethod
    def holds(reason: str = "", *, sampled: bool = False,
              certificate: Mapping[str, Any] | None = None) -> "Verdict":
        return Verdict(Status.HOLDS, reason, sampled, dict(certificate or {}), {})

    @staticmethod
    def fails(reason: str = "", *, sampled: bool = False,
              counterexample: Mapping[str, Any] | None = None) -> "Verdict":
        return Verdict(Status.FAILS, reason, sampled, {}, dict(counterexample or {}))

    @staticmethod
    def inconclusive(reason: str, *, sampled: bool = False) -> "Verdict":
        return Verdict(Status.INCONCLUSIVE, reason, sampled, {}, {})

    @property
    def is_holds(self) -> bool:
        return self.status is Status.HOLDS

    @property
    def is_fails(self) -> bool:
        return self.status is Status.FAILS

    @property
    def is_inconclusive(self) -> bool:
        return self.status is Status.INCONCLUSIVE

    def __bool__(self) -> bool:
        raise TypeError("Verdict is three-valued; test .is_holds / .is_fails")

    def to_json(self) -> dict[str, Any]:
        out: dict[str, Any] = {"status": self.status.value, "sampled": self.sampled}
        if self.reason:
            out["reason"] = self.reason
        if self.certificate:
            out["certificate"] = _jsonify(self.certificate)
        if self.counterexample:
            out["counterexample"] = _jsonify(self.counterexample)
        return out


def _jsonify(value: Any) -> Any:
    """The serializer of every report value: mappings (keys as str),
    tuples, lists, arrays, NumPy scalars and Verdicts become plain JSON
    values, recursively, and ±inf the strings "inf" and "-inf"."""
    import numpy as np

    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return _jsonify(value.item())
    if isinstance(value, float) and value in (float("inf"), float("-inf")):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, Verdict):
        return value.to_json()
    return value
