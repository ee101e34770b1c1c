"""Per-substream cardinality estimators.

The contract: an estimator consumes an unweighted edge stream and returns
an estimate ``value`` with ``value <= MCM <= LAM * value``. Each estimator
class declares its factor ``LAM`` and whether it accepts deletes
(``SUPPORTS_DELETES``), and is registered by name in ``ESTIMATORS``. Two
deterministic references ship here: a streaming greedy maximal matching
(insert-only) and an exact-offline estimator (handles deletes by retaining
the surviving edge set and asking the oracle).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, ParameterError, StreamError
from .oracle import exact_mcm
from .stream_io import DELETE, DYNAMIC, INSERT, GraphSnapshot

EXACT_OFFLINE = "exact"
GREEDY = "greedy"


@dataclass(frozen=True)
class EstimatorSpec:
    lam: float
    delta_prime: float
    supports_deletes: bool

    def __post_init__(self):
        if self.lam < 1.0:
            raise ParameterError(f"lambda must be >= 1, got {self.lam}")
        if not (0.0 < self.delta_prime < 1.0):
            raise ParameterError(
                f"delta_prime must be in (0, 1), got {self.delta_prime}"
            )


@dataclass(frozen=True)
class McmEstimate:
    value: float
    words_stored: int


class GreedyEstimator:
    """Maximal matching built greedily in stream order: an edge is taken
    iff both endpoints are currently unmatched. 2-approximation to MCM.
    Cannot un-match, so deletes are refused."""

    LAM = 2.0
    SUPPORTS_DELETES = False

    def __init__(self, n: int, delta_prime: float):
        self.n = n
        self.spec = EstimatorSpec(self.LAM, delta_prime, self.SUPPORTS_DELETES)
        self._matched: set[int] = set()
        self._size = 0

    def update(self, op: str, u: int, v: int) -> None:
        if op == DELETE:
            raise CapabilityError("greedy estimator cannot process deletes")
        if u not in self._matched and v not in self._matched:
            self._matched.add(u)
            self._matched.add(v)
            self._size += 1

    @property
    def words_stored(self) -> int:
        # the matching only grows, so current size is the peak
        return self._size

    def finalize(self) -> McmEstimate:
        return McmEstimate(float(self._size), self._size)


class ExactOfflineEstimator:
    """Retains the surviving edge multiset and computes the exact MCM at
    finalize via the oracle. Exact, but deliberately not sublinear in
    space; the words counter makes that visible."""

    LAM = 1.0
    SUPPORTS_DELETES = True

    def __init__(self, n: int, delta_prime: float):
        self.n = n
        self.spec = EstimatorSpec(self.LAM, delta_prime, self.SUPPORTS_DELETES)
        self._mult: dict[tuple[int, int], int] = {}
        self._peak = 0

    def update(self, op: str, u: int, v: int) -> None:
        key = (u, v) if u < v else (v, u)
        if op == INSERT:
            self._mult[key] = self._mult.get(key, 0) + 1
            self._peak = max(self._peak, len(self._mult))
        else:
            count = self._mult.get(key, 0)
            if count <= 0:
                raise StreamError(f"delete of absent edge {key}")
            if count == 1:
                del self._mult[key]
            else:
                self._mult[key] = count - 1

    @property
    def words_stored(self) -> int:
        return self._peak

    def finalize(self) -> McmEstimate:
        edges = tuple(sorted((u, v, 1.0) for (u, v) in self._mult))
        result = exact_mcm(GraphSnapshot(self.n, edges))
        return McmEstimate(float(result.value), self._peak)


# Estimator name -> class; adding an estimator means adding one entry here.
ESTIMATORS = {EXACT_OFFLINE: ExactOfflineEstimator, GREEDY: GreedyEstimator}
KINDS = tuple(ESTIMATORS)


def make_estimator(kind: str, n: int, delta_prime: float, model: str):
    """Instantiate a fresh estimator, refusing capability mismatches."""
    cls = ESTIMATORS.get(kind)
    if cls is None:
        raise ParameterError(f"unknown estimator kind {kind!r}")
    if model == DYNAMIC and not cls.SUPPORTS_DELETES:
        raise CapabilityError(f"{kind} estimator does not support dynamic streams")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    return cls(n, delta_prime)
