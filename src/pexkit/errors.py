"""Exception hierarchy shared across the toolkit."""


class PexError(Exception):
    """Base class for all toolkit errors."""


class CorpusError(PexError):
    """Corpus file missing, malformed, or violating a gold-standard invariant."""


class ModelError(PexError):
    """World-model construction or serialization error."""


class PromptError(PexError):
    """Prompt rendering failure (missing binding, unknown question)."""


class BackendError(PexError):
    """Completion backend failure (transport, HTTP status, exhausted retries)."""


class CacheMissError(BackendError):
    """Replay backend asked for a digest that is not in the transcript cache."""


class CacheConflictError(BackendError):
    """Two different completions recorded under the same digest."""


class CacheCorruptError(BackendError):
    """Transcript cache line that does not parse, other than a torn final line."""
