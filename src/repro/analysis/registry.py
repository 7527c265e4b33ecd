"""The pluggable rule registry behind ``repro-lint``.

A rule is a named check function registered with the :func:`rule`
decorator.  Two scopes exist:

* ``file`` — called once per scanned :class:`~repro.analysis.core.
  SourceFile` with ``(source_file, project)``; yields findings for that
  file only.
* ``project`` — called once per invocation with ``(project,)``; used by
  cross-file contracts (lock-order needs the whole call graph in
  hand).

Registration is import-driven: :mod:`repro.analysis.rules` imports the
built-in rule modules, and anything else that imports ``registry`` and
decorates a function participates on equal terms — the CLI discovers
rules only through this table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List

from repro.analysis.core import ENGINE_RULES

FILE_SCOPE = "file"
PROJECT_SCOPE = "project"


@dataclass(frozen=True)
class Rule:
    name: str
    scope: str
    contract: str  # one line: the invariant this rule encodes
    check: Callable


RULES: Dict[str, Rule] = {}


def rule(name: str, *, scope: str = FILE_SCOPE, contract: str) -> Callable:
    """Register a check function under ``name``; returns it unchanged."""
    if scope not in (FILE_SCOPE, PROJECT_SCOPE):
        raise ValueError(f"unknown rule scope {scope!r}")
    if name in RULES or name in ENGINE_RULES:
        raise ValueError(f"rule {name!r} is already registered")

    def decorate(fn: Callable) -> Callable:
        RULES[name] = Rule(name=name, scope=scope, contract=contract, check=fn)
        return fn

    return decorate


def all_rules() -> List[Rule]:
    return [RULES[name] for name in sorted(RULES)]


def iter_rules(scope: str) -> Iterator[Rule]:
    for registered in all_rules():
        if registered.scope == scope:
            yield registered


def known_rule_names() -> List[str]:
    return sorted(set(RULES) | set(ENGINE_RULES))
