"""Streaming weighted-matching estimation toolkit.

Reduces weighted matching estimation to per-weight-class cardinality
estimation: one estimator counts each update on the nested weight levels it
reaches, and a descending greedy combine turns the per-level cardinality
estimates into a weight estimate with a 2*lambda*(1+epsilon) guarantee.
"""

from .errors import (
    CapabilityError,
    CapacityError,
    InvariantError,
    ParameterError,
    ParseError,
    StreamError,
    WeightRangeError,
    WmStreamError,
)
from .estimators import ESTIMATORS, McmEstimate, make_estimator
from .generators import GenConfig, dynamify, generate
from .oracle import OracleResult, exact_mcm, exact_mwm
from .reduction import (
    LevelState,
    RunReport,
    Verdict,
    check_lemma1,
    check_lemma2,
    check_observations,
    check_sandwich,
    combine,
    report_to_dict,
    run,
    verify,
)
from .schedule import LevelSchedule, build_schedule, top_level
from .stream_io import (
    GraphSnapshot,
    StreamHeader,
    StreamUpdate,
    parse_stream,
    replay,
    serialize,
)

__version__ = "0.1.0"
