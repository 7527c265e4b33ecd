"""Core datatypes of the ``repro-lint`` engine.

This module owns everything the rules share: the parsed view of one
source file (:class:`SourceFile` — AST, parent links, an import-alias
table for resolving dotted call targets, and the per-line suppression
table), the :class:`Finding` record, the :class:`Project` facade handed
to every rule, and the checked-in :class:`Baseline` of grandfathered
findings (target: empty, and kept empty in this repo).

Suppressions are per-line comments with **mandatory rule names**::

    risky_call()  # repro-lint: allow[lock-blocking]

A suppression may also sit on its own comment line directly above the
flagged line.  ``allow`` without a bracketed rule list, or naming a rule
that does not exist, is itself reported (rule ``bad-suppression``) — a
suppression that silently matched nothing is how contracts rot.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Rule names reserved by the engine itself (never registered rules).
ENGINE_RULES = ("bad-suppression", "parse-error")


def path_under(path: str, roots: Iterable[str]) -> bool:
    """Whether a project-relative posix path sits under any of ``roots``."""
    for root in roots:
        root = root.rstrip("/")
        if path == root or path.startswith(root + "/"):
            return True
    return False


def path_matches(path: str, patterns: Iterable[str]) -> bool:
    """fnmatch against any pattern (patterns are posix-relative globs)."""
    import fnmatch

    return any(fnmatch.fnmatch(path, pattern) for pattern in patterns)

_SUPPRESS_RE = re.compile(r"repro-lint\s*:\s*(?P<directive>[^\n]*)")
_ALLOW_RE = re.compile(r"^allow\s*\[(?P<rules>[^\]]*)\]\s*$")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source line."""

    rule: str
    path: str  # project-relative posix path
    line: int  # 1-indexed
    message: str

    def fingerprint(self, line_text: str) -> str:
        """A line-number-independent identity used by the baseline.

        CRC32 over length-prefixed fields (the repo's one checksum
        convention — see :mod:`repro.engine.wire`): rule, path and the
        stripped source text of the flagged line, so reformatting that
        moves a finding does not invalidate its baseline entry, while
        editing the flagged code does.
        """
        crc = 0
        for part in (self.rule, self.path, line_text.strip()):
            data = part.encode("utf-8")
            crc = zlib.crc32(data, zlib.crc32(f"{len(data)}:".encode("ascii"), crc))
        return f"{crc & 0xFFFFFFFF:08x}"

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


class SourceFile:
    """One parsed python file plus the derived tables rules query.

    * ``tree``/``parents`` — the AST with child→parent links, so lexical
      rules (is this call inside a ``with <lock>:`` body?) can walk up;
    * ``imports`` — local name → canonical dotted prefix (``np`` →
      ``numpy``, ``monotonic`` → ``time.monotonic``), so attribute chains
      resolve to canonical targets regardless of aliasing;
    * ``allows`` — line → set of rule names suppressed on that line
      (real comments only, found with :mod:`tokenize`, so a string that
      merely *contains* the marker never suppresses anything).
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.imports = self._collect_imports(self.tree)
        self.allows: Dict[int, Set[str]] = {}
        #: One entry per allow[...] directive (line, names) — the engine
        #: validates the names against the registry exactly once each.
        self.allow_directives: List[Tuple[int, Set[str]]] = []
        self.suppression_errors: List[Tuple[int, str]] = []
        self._collect_suppressions()

    # ------------------------------------------------------------------
    # imports and name resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _collect_imports(tree: ast.Module) -> Dict[str, str]:
        table: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    table[local] = alias.name if alias.asname else alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{node.module}.{alias.name}"
        return table

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted path of a Name/Attribute chain, or ``None``.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the file imported ``numpy as
        np``; a chain rooted in a local variable resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.imports.get(node.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        while node in self.parents:
            node = self.parents[node]
            yield node

    def in_function(self, node: ast.AST) -> bool:
        return any(
            isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            for anc in self.ancestors(node)
        )

    # ------------------------------------------------------------------
    # suppressions
    # ------------------------------------------------------------------
    def _collect_suppressions(self) -> None:
        comment_only_lines: Set[int] = set()
        directives: List[Tuple[int, str]] = []
        try:
            tokens = list(tokenize.generate_tokens(io.StringIO(self.source).readline))
        except tokenize.TokenError:  # pragma: no cover - ast.parse succeeded
            tokens = []
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            line_no = tok.start[0]
            if self.lines[line_no - 1].strip().startswith("#"):
                comment_only_lines.add(line_no)
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                directives.append((line_no, match.group("directive").strip()))
        for line_no, directive in directives:
            allow = _ALLOW_RE.match(directive)
            if not allow:
                self.suppression_errors.append(
                    (
                        line_no,
                        f"malformed suppression {directive!r}: expected "
                        f"'repro-lint: allow[rule-name, ...]' with explicit "
                        f"rule names",
                    )
                )
                continue
            names = {name.strip() for name in allow.group("rules").split(",") if name.strip()}
            if not names:
                self.suppression_errors.append(
                    (line_no, "suppression names no rules: allow[] is not allowed")
                )
                continue
            self.allow_directives.append((line_no, names))
            targets = [line_no]
            # A comment-only suppression line covers the next line of code.
            if line_no in comment_only_lines:
                targets.append(line_no + 1)
            for target in targets:
                self.allows.setdefault(target, set()).update(names)

    def suppressed(self, finding: Finding) -> bool:
        return finding.rule in self.allows.get(finding.line, ())

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Project:
    """What an invocation of the linter sees: root, config, parsed files.

    ``files`` holds every scanned file keyed by project-relative posix
    path.  Project-scoped rules (e.g. lock-order) may :meth:`load` extra
    files by path; they are cached here too so suppression and baseline
    handling treat them uniformly.
    """

    def __init__(self, root: Path, config) -> None:
        self.root = Path(root)
        self.config = config
        self.files: Dict[str, SourceFile] = {}
        self.parse_errors: List[Finding] = []

    def add(self, relpath: str, source: Optional[str] = None) -> Optional[SourceFile]:
        relpath = Path(relpath).as_posix()
        if relpath in self.files:
            return self.files[relpath]
        if source is None:
            full = self.root / relpath
            if not full.is_file():
                return None
            source = full.read_text(encoding="utf-8")
        try:
            parsed = SourceFile(relpath, source)
        except SyntaxError as exc:
            self.parse_errors.append(
                Finding("parse-error", relpath, exc.lineno or 1, f"file does not parse: {exc.msg}")
            )
            return None
        self.files[relpath] = parsed
        return parsed

    def load(self, relpath: str) -> Optional[SourceFile]:
        """Fetch a file by path, scanning it on demand (project rules)."""
        return self.add(relpath)


@dataclass
class Baseline:
    """The checked-in list of grandfathered findings (kept empty here).

    Matching is by :meth:`Finding.fingerprint` and consumes entries —
    two identical findings need two baseline entries, so fixing one of
    two duplicated violations still surfaces the survivor.
    """

    entries: List[Dict[str, str]] = field(default_factory=list)

    @classmethod
    def read(cls, path: Path) -> "Baseline":
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(entries=list(data.get("findings", [])))

    def write(self, path: Path) -> None:
        payload = {"version": 1, "findings": self.entries}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def entry(cls, finding: Finding, line_text: str) -> Dict[str, str]:
        return {
            "rule": finding.rule,
            "path": finding.path,
            "fingerprint": finding.fingerprint(line_text),
        }

    def split(
        self, findings: List[Tuple[Finding, str]]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Partition into (new, baselined), consuming baseline entries."""
        budget: Dict[Tuple[str, str, str], int] = {}
        for entry in self.entries:
            key = (entry.get("rule", ""), entry.get("path", ""), entry.get("fingerprint", ""))
            budget[key] = budget.get(key, 0) + 1
        fresh: List[Finding] = []
        grandfathered: List[Finding] = []
        for finding, line_text in findings:
            key = (finding.rule, finding.path, finding.fingerprint(line_text))
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        return fresh, grandfathered
