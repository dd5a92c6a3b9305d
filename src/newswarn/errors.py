"""Exception hierarchy shared across the pipeline.

Exit codes: 1 config, 2 data, 3 numerical.
"""


class PipelineError(Exception):
    exit_code = 1


class ConfigError(PipelineError):
    exit_code = 1


class DataError(PipelineError):
    exit_code = 2


class NumericalError(PipelineError):
    """A numerical failure; the message names the cause, and any design columns at fault."""

    exit_code = 3
