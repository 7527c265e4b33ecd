"""The ``repro-lint`` console script.

Runs every registered rule over the given paths (defaults come from
``[tool.repro-lint] paths``), applies per-line suppressions and the
checked-in baseline, and reports what survives::

    repro-lint src tests benchmarks          # human output, exit 1 on findings
    repro-lint --format json src             # machine-readable (CI annotations)
    repro-lint --format sarif src            # SARIF 2.1.0 (code-scanning upload)
    repro-lint --since origin/main           # lint only git-changed files
    repro-lint --cache src                   # per-file result cache
    repro-lint --write-baseline src          # grandfather current findings
    repro-lint --list-rules                  # the rule/contract table

``--since REV`` restricts file-scoped rules to files git reports as
changed against ``REV`` (plus untracked files); project-scoped rules
still see the whole program — the call graph is loaded on demand
regardless of which files were pointed at.  Outside a git
checkout the flag degrades to a full run with a note on stderr.

``--cache`` keys per-file results on a content fingerprint salted with
the effective config and rule set, so unchanged files skip parsing and
every file-scoped rule on the second run.

Exit codes: 0 clean (baselined findings are reported but don't fail),
1 at least one non-baselined finding, 2 configuration/usage error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set, Tuple

import repro.analysis.rules  # noqa: F401  (registers the built-in rules)
from repro.analysis.cache import ResultCache
from repro.analysis.config import LintConfig, LintConfigError, find_pyproject
from repro.analysis.core import Baseline, Finding, Project
from repro.analysis.registry import all_rules, iter_rules, known_rule_names

DEFAULT_CACHE_PATH = ".repro-lint-cache.json"


def _collect_files(root: Path, paths) -> List[str]:
    """Project-relative posix paths of every .py file under ``paths``."""
    seen = []
    for raw in paths:
        candidate = Path(raw)
        if not candidate.is_absolute():
            candidate = root / candidate
        if candidate.is_file():
            found = [candidate]
        elif candidate.is_dir():
            found = [p for p in candidate.rglob("*.py") if "__pycache__" not in p.parts]
        else:
            found = []
        for path in found:
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = path.as_posix()
            seen.append(rel)
    return sorted(set(seen))


def changed_files(root: Path, rev: str) -> Optional[Set[str]]:
    """Files changed against ``rev`` plus untracked files, or ``None``
    when git is unavailable / the revision does not resolve."""
    changed: Set[str] = set()
    for cmd in (
        ["git", "-C", str(root), "diff", "--name-only", rev, "--"],
        ["git", "-C", str(root), "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, timeout=30, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        changed.update(line.strip() for line in proc.stdout.splitlines() if line.strip())
    return changed


def _file_hygiene(sf, known: Set[str]) -> List[Finding]:
    """Suppression hygiene: malformed directives and unknown rule names
    are findings themselves, and are not suppressible."""
    found: List[Finding] = []
    for line, message in sf.suppression_errors:
        found.append(Finding("bad-suppression", sf.path, line, message))
    for line, names in sf.allow_directives:
        for name in sorted(names - known):
            found.append(
                Finding(
                    "bad-suppression",
                    sf.path,
                    line,
                    f"suppression names unknown rule {name!r} "
                    f"(known: {', '.join(sorted(known))})",
                )
            )
    return found


def run_lint(
    root: Path,
    config: LintConfig,
    paths,
    only_rules: Optional[set] = None,
    cache: Optional[ResultCache] = None,
    restrict: Optional[Set[str]] = None,
) -> Tuple[Project, List[Tuple[Finding, str]], int]:
    """Lint ``paths`` under ``root``; returns (project, findings, suppressed).

    ``findings`` pairs each surviving finding with its source line text
    (the baseline fingerprint input); suppressed is the count of findings
    silenced by per-line ``allow[...]`` comments.  ``restrict`` (the
    ``--since`` set) limits which files the file-scoped rules run over;
    ``cache`` short-circuits unchanged files entirely.
    """
    project = Project(root, config)
    rels = _collect_files(root, paths)
    if restrict is not None:
        rels = [rel for rel in rels if rel in restrict]
    file_rules = [
        r for r in iter_rules("file") if only_rules is None or r.name in only_rules
    ]
    project_rules = [
        r for r in iter_rules("project") if only_rules is None or r.name in only_rules
    ]
    known = set(known_rule_names())

    survivors: List[Tuple[Finding, str]] = []
    suppressed = 0
    handled_rels: Set[str] = set()

    for rel in rels:
        fingerprint = cache.fingerprint(root, rel) if cache is not None else None
        if cache is not None:
            hit = cache.get(rel, fingerprint)
            if hit is not None:
                file_findings, hygiene, file_suppressed = hit
                survivors.extend(file_findings)
                survivors.extend(hygiene)
                suppressed += file_suppressed
                handled_rels.add(rel)
                continue
        errors_before = len(project.parse_errors)
        sf = project.add(rel)
        handled_rels.add(rel)
        raw: List[Finding] = list(project.parse_errors[errors_before:])
        hygiene_raw: List[Finding] = []
        if sf is not None:
            for registered in file_rules:
                raw.extend(registered.check(sf, project))
            hygiene_raw = _file_hygiene(sf, known)
        file_survivors: List[Tuple[Finding, str]] = []
        file_suppressed = 0
        for finding in raw:
            if sf is not None and sf.suppressed(finding):
                file_suppressed += 1
                continue
            file_survivors.append(
                (finding, sf.line_text(finding.line) if sf is not None else "")
            )
        hygiene_pairs = [
            (f, sf.line_text(f.line) if sf is not None else "") for f in hygiene_raw
        ]
        if cache is not None:
            cache.put(rel, fingerprint, file_survivors, hygiene_pairs, file_suppressed)
        survivors.extend(file_survivors)
        survivors.extend(hygiene_pairs)
        suppressed += file_suppressed

    # Project-scoped rules see the whole program: they load files on
    # demand (the call graph) regardless of --since/--cache.
    for registered in project_rules:
        for finding in registered.check(project):
            sf = project.files.get(finding.path)
            if (
                sf is not None
                and finding.rule != "bad-suppression"
                and sf.suppressed(finding)
            ):
                suppressed += 1
                continue
            survivors.append(
                (finding, sf.line_text(finding.line) if sf is not None else "")
            )

    # Hygiene for files the project rules pulled in beyond the lint set
    # (their file-rule results were not requested, but a malformed
    # suppression is a finding wherever it lives).
    for rel in sorted(set(project.files) - handled_rels):
        for finding in _file_hygiene(project.files[rel], known):
            survivors.append((finding, project.files[rel].line_text(finding.line)))

    survivors.sort(
        key=lambda pair: (pair[0].path, pair[0].line, pair[0].rule, pair[0].message)
    )
    return project, survivors, suppressed


def _sarif_payload(fresh: List[Finding]) -> dict:
    """A minimal SARIF 2.1.0 run for code-scanning upload."""
    rule_ids = sorted({f.rule for f in fresh} | set(known_rule_names()))
    contracts = {r.name: r.contract for r in all_rules()}
    return {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": [
                            {
                                "id": rule_id,
                                "shortDescription": {
                                    "text": contracts.get(rule_id, rule_id)
                                },
                            }
                            for rule_id in rule_ids
                        ],
                    }
                },
                "results": [
                    {
                        "ruleId": f.rule,
                        "level": "error",
                        "message": {"text": f.message},
                        "locations": [
                            {
                                "physicalLocation": {
                                    "artifactLocation": {"uri": f.path},
                                    "region": {"startLine": f.line},
                                }
                            }
                        ],
                    }
                    for f in fresh
                ],
            }
        ],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker for this repository's determinism, "
            "clock, layering, concurrency and lifecycle contracts "
            "(configured in [tool.repro-lint] of pyproject.toml)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: [tool.repro-lint] paths)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default=None,
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="alias for --format json (kept for existing CI wiring)",
    )
    parser.add_argument(
        "--since",
        default=None,
        metavar="REV",
        help="lint only files changed against REV (full run outside git)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=f"enable the per-file result cache ({DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--cache-path",
        default=None,
        metavar="PATH",
        help="cache file location (implies --cache)",
    )
    parser.add_argument(
        "--project-root",
        default=None,
        help="project root (default: directory of the nearest pyproject.toml)",
    )
    parser.add_argument(
        "--baseline", default=None, help="baseline file (default from config)"
    )
    parser.add_argument(
        "--no-baseline", action="store_true", help="ignore the baseline file"
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather every current finding into the baseline and exit 0",
    )
    parser.add_argument(
        "--rules", default=None, help="comma-separated rule names to run (default: all)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule/contract table"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for registered in all_rules():
            print(f"{registered.name:<22} [{registered.scope}] {registered.contract}")
        return 0

    out_format = args.format or ("json" if args.json else "text")

    try:
        if args.project_root is not None:
            root = Path(args.project_root).resolve()
            pyproject = root / "pyproject.toml"
        else:
            pyproject = find_pyproject(Path.cwd())
            root = pyproject.parent if pyproject is not None else Path.cwd()
        if pyproject is not None and pyproject.is_file():
            config = LintConfig.from_pyproject(pyproject)
        else:
            config = LintConfig()
    except LintConfigError as exc:
        print(f"repro-lint: configuration error: {exc}", file=sys.stderr)
        return 2

    only_rules = None
    if args.rules:
        only_rules = {name.strip() for name in args.rules.split(",") if name.strip()}
        unknown = only_rules - set(known_rule_names())
        if unknown:
            print(
                f"repro-lint: unknown rule(s): {', '.join(sorted(unknown))}",
                file=sys.stderr,
            )
            return 2

    restrict = None
    if args.since is not None:
        restrict = changed_files(root, args.since)
        if restrict is None:
            print(
                f"repro-lint: --since {args.since}: git unavailable or revision "
                f"unknown; falling back to a full run",
                file=sys.stderr,
            )

    cache = None
    if args.cache or args.cache_path is not None:
        cache_path = Path(args.cache_path or DEFAULT_CACHE_PATH)
        if not cache_path.is_absolute():
            cache_path = root / cache_path
        # The salt covers the *effective* rule selection: a --rules run
        # must never serve its partial verdicts to a full run.
        effective = tuple(sorted(only_rules)) if only_rules else tuple(known_rule_names())
        cache = ResultCache.load(cache_path, config, effective)

    paths = args.paths or list(config.paths)
    project, survivors, suppressed = run_lint(
        root, config, paths, only_rules, cache=cache, restrict=restrict
    )
    if cache is not None:
        cache.save()

    baseline_path = Path(args.baseline) if args.baseline else root / config.baseline
    if args.write_baseline:
        baseline = Baseline(
            entries=[Baseline.entry(f, text) for f, text in survivors]
        )
        baseline.write(baseline_path)
        print(
            f"repro-lint: wrote {len(baseline.entries)} baseline entr"
            f"{'y' if len(baseline.entries) == 1 else 'ies'} to {baseline_path}"
        )
        return 0

    baseline = Baseline() if args.no_baseline else Baseline.read(baseline_path)
    fresh, grandfathered = baseline.split(survivors)

    if out_format == "json":
        payload = {
            "findings": [
                {
                    "rule": f.rule,
                    "path": f.path,
                    "line": f.line,
                    "message": f.message,
                }
                for f in fresh
            ],
            "baselined": len(grandfathered),
            "suppressed": suppressed,
            "files": len(project.files),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif out_format == "sarif":
        print(json.dumps(_sarif_payload(fresh), indent=2, sort_keys=True))
    else:
        for finding in fresh:
            print(finding.render())
        summary = (
            f"repro-lint: {len(fresh)} finding{'s' if len(fresh) != 1 else ''} "
            f"({len(grandfathered)} baselined, {suppressed} suppressed) "
            f"across {len(project.files)} files"
        )
        print(summary)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
