"""Built-in rule modules; importing this package registers them all."""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    clocks,
    concurrency,
    determinism,
    layering,
    lifecycle,
    locks,
)
