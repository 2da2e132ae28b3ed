"""Exception hierarchy shared across the package."""


def error_text(exc: BaseException) -> str:
    """The error's message behind the step or round labels its handlers
    noted, outermost first: ``round 1: step 0 (Remove rain): <message>``."""
    notes = getattr(exc, "__notes__", ())
    return "".join(f"{note}: " for note in reversed(notes)) + str(exc)


class StereoEditError(Exception):
    """Base class for all package errors; ``exit_code`` is the CLI's exit
    status for the error (2 input rejected, 3 I/O, 4 otherwise)."""

    exit_code = 4


# --- audio ingestion ---

class UnreadableFile(StereoEditError):
    exit_code = 3


class UnsupportedFormat(StereoEditError):
    exit_code = 2


class SilentClip(StereoEditError):
    pass


# --- edit engine ---

class TargetNotFound(StereoEditError):
    pass


class AmbiguousTarget(StereoEditError):
    pass


class EmptySceneResult(StereoEditError):
    pass


# --- plan language ---

class ParseError(StereoEditError):
    """Template-text parse failure; the message quotes the expected shape."""

    exit_code = 2


class JsonSyntaxError(StereoEditError):
    exit_code = 2


class SchemaError(StereoEditError):
    exit_code = 2


# --- designer ---

class NoCompatibleScenario(StereoEditError):
    pass


class EndpointUnreachable(StereoEditError):
    pass


class AuthFailure(StereoEditError):
    pass


class MalformedResponse(StereoEditError):
    pass


class ValidationFailed(StereoEditError):
    exit_code = 2


# --- catalog / pipeline ---

class EmptyCatalog(StereoEditError):
    pass


class CatalogMiss(StereoEditError):
    pass


class FailureBudgetExceeded(StereoEditError):
    pass


class OutputDirNotWritable(StereoEditError):
    exit_code = 3


# --- external editor adapters ---

class AdapterTimeout(StereoEditError):
    pass


class AdapterProtocolError(StereoEditError):
    pass


# --- metrics ---

class LengthMismatch(StereoEditError):
    pass


class NoVoicedFrames(StereoEditError):
    pass
