"""A project-wide call graph over the files of a lint run.

Built from the :class:`~repro.analysis.core.Project`'s files under the
configured enforced roots (``src/repro`` here).  Indexing is by
*qualified name*: ``repro.engine.remote.client.RemoteBackend.close`` for a
method, ``repro.engine.database.context_expired`` for a module-level
function.

Resolution is deliberately modest and honest about it:

* ``name(...)`` resolves through the module's own top-level functions,
  then the file's import-alias table (``from x import f`` / ``import m``);
* ``self.m(...)`` / ``cls.m(...)`` resolve through the enclosing class
  and its project-local base classes (breadth-first);
* ``Class(...)`` resolves to ``Class.__init__`` when the class (and the
  initializer) are in the project;
* everything else — a method on an arbitrary local variable, a stdlib
  call, a dynamically fetched attribute — becomes an explicit **unknown**
  node (``"?name"``) rather than silently vanishing, so rules can decide
  what an unresolved call means for their contract (lock-order, for
  example, treats unknown callees as acquiring nothing and documents
  that as its soundness caveat).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.core import Project, SourceFile, path_under


def module_name(relpath: str) -> Optional[str]:
    """``src/repro/engine/backend.py`` → ``repro.engine.backend``."""
    if not relpath.endswith(".py"):
        return None
    parts = relpath[: -len(".py")].split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


@dataclass
class FunctionInfo:
    """One indexed function/method definition."""

    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    sf: SourceFile
    module: str
    cls: Optional[str] = None  # qualname of the enclosing class


@dataclass
class ClassInfo:
    qualname: str
    node: ast.ClassDef
    module: str
    bases: List[str] = field(default_factory=list)  # qualnames or bare names
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qualname


@dataclass(frozen=True)
class CallSite:
    caller: str
    callee: str  # qualname, or "?name" when unresolved
    line: int

    @property
    def unknown(self) -> bool:
        return self.callee.startswith("?")


class CallGraph:
    """Functions, classes and resolved call sites of the project."""

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.calls: Dict[str, List[CallSite]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, project: Project, roots: Optional[Tuple[str, ...]] = None) -> "CallGraph":
        """Index every project file under ``roots`` and resolve its calls.

        Files under the roots that are not yet parsed are loaded on
        demand (project-scoped rules must see the whole program even
        when the CLI was pointed at a subset of paths).
        """
        graph = cls()
        roots = roots if roots is not None else tuple(project.config.enforced_roots)
        for root in roots:
            base = project.root / root
            if base.is_dir():
                for path in sorted(base.rglob("*.py")):
                    if "__pycache__" in path.parts:
                        continue
                    rel = path.relative_to(project.root).as_posix()
                    project.load(rel)
        files = {
            rel: sf
            for rel, sf in project.files.items()
            if path_under(rel, roots) and module_name(rel) is not None
        }
        for rel in sorted(files):
            graph._index_file(files[rel])
        for rel in sorted(files):
            graph._resolve_file(files[rel])
        return graph

    def _index_file(self, sf: SourceFile) -> None:
        module = module_name(sf.path)
        for node in sf.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{node.name}"
                self.functions[qual] = FunctionInfo(qual, node, sf, module)
            elif isinstance(node, ast.ClassDef):
                cqual = f"{module}.{node.name}"
                info = ClassInfo(cqual, node, module)
                for base in node.bases:
                    resolved = sf.resolve(base)
                    if resolved is None and isinstance(base, ast.Name):
                        resolved = f"{module}.{base.id}"  # same-module class
                    info.bases.append(resolved or ast.unparse(base))
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fqual = f"{cqual}.{child.name}"
                        self.functions[fqual] = FunctionInfo(
                            fqual, child, sf, module, cls=cqual
                        )
                        info.methods[child.name] = fqual
                self.classes[cqual] = info

    # ------------------------------------------------------------------
    # method lookup through the class hierarchy
    # ------------------------------------------------------------------
    def resolve_method(self, class_qual: str, name: str) -> Optional[str]:
        """The qualname defining ``name`` on the class or a project base."""
        seen = set()
        queue = [class_qual]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            if name in info.methods:
                return info.methods[name]
            queue.extend(info.bases)
        return None

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def _resolve_file(self, sf: SourceFile) -> None:
        module = module_name(sf.path)
        for qual, info in self.functions.items():
            if info.sf is not sf:
                continue
            sites = self.calls.setdefault(qual, [])
            for call in self._own_calls(info.node):
                sites.append(
                    CallSite(qual, self._resolve_call(call, info, module), call.lineno)
                )

    @staticmethod
    def _own_calls(func: ast.AST) -> Iterator[ast.Call]:
        """Calls lexically inside ``func`` but not inside a nested def."""

        def walk(node: ast.AST) -> Iterator[ast.Call]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    continue
                if isinstance(child, ast.Call):
                    yield child
                yield from walk(child)

        return walk(func)

    def _resolve_call(self, call: ast.Call, info: FunctionInfo, module: str) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            local = f"{module}.{func.id}"
            if local in self.functions:
                return local
            if local in self.classes:
                return self.resolve_method(local, "__init__") or local
            resolved = info.sf.resolve(func)
            if resolved is not None:
                if resolved in self.functions:
                    return resolved
                if resolved in self.classes:
                    return self.resolve_method(resolved, "__init__") or resolved
            return f"?{func.id}"
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
                if info.cls is not None:
                    hit = self.resolve_method(info.cls, func.attr)
                    if hit is not None:
                        return hit
                return f"?{func.attr}"
            resolved = info.sf.resolve(func)
            if resolved is not None:
                if resolved in self.functions:
                    return resolved
                if resolved in self.classes:
                    return self.resolve_method(resolved, "__init__") or resolved
            return f"?{func.attr}"
        return "?<dynamic>"

    def callees(self, qualname: str) -> List[CallSite]:
        return self.calls.get(qualname, [])
