"""Chain-of-thought curation and gap-weighted preference-optimization numerics.

The package has two halves. The curation half rates each reasoning trace,
rewrites unsuitable ones until they verify and re-rate as medium, and emits a
curated dataset plus per-problem record families. The numerics half turns
families into gap-labeled preference pairs and implements the preference loss
whose beta is selected per pair by gap, with a toy policy for end-to-end
gradient verification.
"""

from .agents import AgentError, Agents, CorruptionNotIncorrect, load_templates
from .gateway import (
    ChatRequest,
    ChatResponse,
    ConfigError,
    Endpoint,
    GatewayError,
    HTTPBackend,
    ModelRole,
    ProviderError,
    SamplingParams,
    ScriptedBackend,
    ScriptExhausted,
    TransportError,
    UnknownKey,
    load_script,
)
from .loss import (
    EmptyBatch,
    GradCheckReport,
    JoinError,
    LossReport,
    NonFinite,
    NonPositiveBeta,
    TokenOutOfRange,
    TokenPair,
    ToyPolicy,
    beta_dpo_adjust,
    cogpo_loss,
    cogpo_token_loss,
    dpo_loss,
    grad_check,
    margin,
    sequence_logprob,
)
from .pairs import EmptyFamily, assign_beta, build_pairs
from .pipeline import (
    CorruptCheckpoint,
    DuplicateId,
    PipelineConfig,
    complexity_report,
    format_complexity_report,
    run_crv,
)
from .records import (
    BetaSchedule,
    ComplexityLevel,
    CoTRecord,
    GapType,
    LogProbQuad,
    ParseError,
    PipelineStats,
    PreferencePair,
    RecordFamily,
    Source,
    parse_complexity,
    parse_verdict,
    validate_record,
)

__version__ = "0.1.0"
