"""Per-file lint result cache keyed by content fingerprint.

``repro-lint --cache`` stores, per source file, the post-suppression
file-rule findings (with the line text each fingerprint was computed
from), the suppressed-finding count, and the suppression-hygiene
findings — everything the CLI would otherwise recompute by parsing and
running every file-scoped rule.  Entries are keyed by a crc32 of the
file bytes plus a *salt* derived from the effective config and the
registered rule set, so editing ``pyproject.toml``, adding a rule, or
bumping the schema version silently invalidates the whole cache rather
than serving stale verdicts.

Project-scoped rules (layer cycles, lock-order) are
whole-program by construction and are always recomputed; the cache only
short-circuits the per-file work, which is where the time goes.

The cache file (default ``.repro-lint-cache.json``) is plain JSON,
safe to delete at any time, and written atomically (tmp + replace) so
an interrupted run cannot leave a truncated file behind.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.analysis.core import Finding

_SCHEMA_VERSION = 1


def _crc(data: bytes) -> str:
    return format(zlib.crc32(data) & 0xFFFFFFFF, "08x")


def config_salt(config, rule_names: Tuple[str, ...]) -> str:
    """A fingerprint of everything that changes what a run would find."""
    from dataclasses import asdict

    payload = repr((_SCHEMA_VERSION, sorted(rule_names), sorted(asdict(config).items())))
    return _crc(payload.encode("utf-8"))


def _finding_to_json(finding: Finding, line_text: str) -> Dict:
    return {
        "rule": finding.rule,
        "path": finding.path,
        "line": finding.line,
        "message": finding.message,
        "text": line_text,
    }


def _finding_from_json(entry: Dict) -> Tuple[Finding, str]:
    return (
        Finding(entry["rule"], entry["path"], int(entry["line"]), entry["message"]),
        entry.get("text", ""),
    )


class ResultCache:
    """Load/store per-file results; ``dirty`` tracks whether to rewrite."""

    def __init__(self, path: Path, salt: str) -> None:
        self.path = Path(path)
        self.salt = salt
        self.entries: Dict[str, Dict] = {}
        self.dirty = False
        self.hits = 0
        self.misses = 0

    @classmethod
    def load(cls, path: Path, config, rule_names: Tuple[str, ...]) -> "ResultCache":
        cache = cls(path, config_salt(config, rule_names))
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return cache
        if (
            isinstance(raw, dict)
            and raw.get("version") == _SCHEMA_VERSION
            and raw.get("salt") == cache.salt
            and isinstance(raw.get("files"), dict)
        ):
            cache.entries = raw["files"]
        return cache

    # ------------------------------------------------------------------
    def fingerprint(self, root: Path, relpath: str) -> Optional[str]:
        try:
            return _crc((root / relpath).read_bytes())
        except OSError:
            return None

    def get(
        self, relpath: str, fingerprint: Optional[str]
    ) -> Optional[Tuple[List[Tuple[Finding, str]], List[Tuple[Finding, str]], int]]:
        """Cached ``(findings, hygiene, suppressed_count)`` or ``None``."""
        if fingerprint is None:
            return None
        entry = self.entries.get(relpath)
        if not isinstance(entry, dict) or entry.get("fp") != fingerprint:
            self.misses += 1
            return None
        try:
            findings = [_finding_from_json(e) for e in entry["findings"]]
            hygiene = [_finding_from_json(e) for e in entry.get("hygiene", [])]
            suppressed = int(entry.get("suppressed", 0))
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return findings, hygiene, suppressed

    def put(
        self,
        relpath: str,
        fingerprint: Optional[str],
        findings: List[Tuple[Finding, str]],
        hygiene: List[Tuple[Finding, str]],
        suppressed: int,
    ) -> None:
        if fingerprint is None:
            return
        self.entries[relpath] = {
            "fp": fingerprint,
            "findings": [_finding_to_json(f, t) for f, t in findings],
            "hygiene": [_finding_to_json(f, t) for f, t in hygiene],
            "suppressed": suppressed,
        }
        self.dirty = True

    def save(self) -> None:
        if not self.dirty:
            return
        payload = {
            "version": _SCHEMA_VERSION,
            "salt": self.salt,
            "files": self.entries,
        }
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=0, sort_keys=True), encoding="utf-8")
        tmp.replace(self.path)
        self.dirty = False
