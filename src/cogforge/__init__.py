"""Chain-of-thought curation and gap-weighted preference-optimization numerics.

The package has two halves. The curation half rates each reasoning trace,
rewrites unsuitable ones until they verify and re-rate as medium, and emits a
curated dataset plus per-problem record families. The numerics half turns
families into gap-labeled preference pairs and implements the preference loss
whose beta is selected per pair by gap, with a toy policy for end-to-end
gradient verification.
"""

import importlib

# Each public name and the module that defines it. A name is imported on
# first use (PEP 562), so ``import cogforge`` loads no submodule and a
# command loads only the layers it runs.
_EXPORTS = {
    "agents": ("AgentError", "Agents", "CorruptionNotIncorrect", "load_templates"),
    "config": ("ConfigError", "Endpoint", "GatewayError", "ModelRole", "PipelineConfig",
               "SamplingParams"),
    "gateway": ("ChatRequest", "ChatResponse", "HTTPBackend", "ProviderError", "ScriptedBackend",
                "ScriptExhausted", "TransportError", "UnknownKey", "load_script"),
    "loss": ("EmptyBatch", "GradCheckReport", "JoinError", "LossReport", "NonFinite",
             "NonPositiveBeta", "TokenOutOfRange", "TokenPair", "ToyPolicy", "beta_dpo_adjust",
             "cogpo_loss", "cogpo_token_loss", "dpo_loss", "grad_check", "sequence_logprob"),
    "pairs": ("EmptyFamily", "assign_beta", "build_pairs"),
    "pipeline": ("CorruptCheckpoint", "DuplicateId", "complexity_report", "run_crv"),
    "records": ("BetaSchedule", "ComplexityLevel", "CoTRecord", "GapType", "LogProbQuad",
                "ParseError", "PipelineStats", "PreferencePair", "RecordFamily", "Source",
                "parse_complexity", "parse_verdict", "validate_record"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
