"""Source loading for sdnlint: discovery, parsing, and name resolution.

The loader turns a set of files/directories into :class:`ModuleInfo`
records: parsed AST (with parent back-links annotated on every node), the
module's dotted name inferred from its package layout, an import table
mapping every local alias to the fully qualified name it stands for, and
a per-type node index.  All three tables come out of one walk over the
tree, so detectors query :meth:`ModuleInfo.nodes` instead of walking the
module again.  The import table is what lets detectors ask *semantic*
questions ("is this call ``numpy.random.default_rng``?") instead of
string-matching on whatever alias the file happens to use.
"""

from __future__ import annotations

import ast
import heapq
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import StaticAnalysisError


@dataclass
class ModuleInfo:
    """One parsed source module plus its resolution tables."""

    path: Path  # absolute
    name: str  # dotted module name, e.g. "repro.recovery.journal"
    package: str  # dotted package, e.g. "repro.recovery"
    tree: ast.Module
    source: str
    #: alias visible in this module -> fully qualified dotted name.
    imports: dict[str, str] = field(default_factory=dict)
    #: concrete node type -> its nodes in ``ast.walk`` order.
    index: dict[type, list[ast.AST]] = field(default_factory=dict, repr=False)
    #: node -> position in ``ast.walk`` order (merges multi-type queries).
    order: dict[ast.AST, int] = field(default_factory=dict, repr=False)

    def nodes(self, *types: type) -> list[ast.AST]:
        """Every node of the given concrete types, in ``ast.walk`` order."""
        if len(types) == 1:
            return self.index.get(types[0], [])
        lists = [self.index.get(t, []) for t in types]
        return list(heapq.merge(*lists, key=self.order.__getitem__))

    @property
    def lines(self) -> list[str]:
        return self.source.splitlines()

    def line_text(self, lineno: int) -> str:
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1]
        return ""

    def resolve(self, node: ast.AST) -> str | None:
        """Fully qualified dotted name for a Name/Attribute chain, or None.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``"numpy.random.default_rng"``; a bare builtin like ``open`` (no
        import shadowing it) resolves to ``"open"``.
        """
        parts: list[str] = []
        cursor = node
        while isinstance(cursor, ast.Attribute):
            parts.append(cursor.attr)
            cursor = cursor.value
        if not isinstance(cursor, ast.Name):
            return None
        parts.append(cursor.id)
        parts.reverse()
        head = parts[0]
        mapped = self.imports.get(head)
        if mapped is not None:
            parts[0:1] = mapped.split(".")
        return ".".join(parts)


def parent_of(node: ast.AST) -> ast.AST | None:
    return getattr(node, "sdnlint_parent", None)


def _index_tree(tree: ast.Module, info: ModuleInfo) -> None:
    """The one walk over ``tree``: parent links, imports and the type index.

    Visits nodes in ``ast.walk`` (breadth-first) order and attaches a
    ``sdnlint_parent`` back-link to every child on the way.
    """
    todo: deque[ast.AST] = deque([tree])
    while todo:
        node = todo.popleft()
        info.order[node] = len(info.order)
        info.index.setdefault(type(node), []).append(node)
        for child in ast.iter_child_nodes(node):
            child.sdnlint_parent = node  # type: ignore[attr-defined]
            todo.append(child)
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    info.imports[alias.asname] = alias.name
                else:
                    # ``import os.path`` binds the *top-level* name ``os``.
                    top = alias.name.split(".")[0]
                    info.imports[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports: module name is ambiguous here
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                info.imports[bound] = f"{node.module}.{alias.name}"


def module_name_for(path: Path) -> tuple[str, str]:
    """Infer (dotted module name, dotted package) from the package layout.

    Walks up while ``__init__.py`` siblings exist, so
    ``src/repro/recovery/journal.py`` becomes ``repro.recovery.journal``
    in package ``repro.recovery``.  A file outside any package is its own
    single-segment module.
    """
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    cursor = path.parent
    while (cursor / "__init__.py").exists():
        parts.insert(0, cursor.name)
        parent = cursor.parent
        if parent == cursor:
            break
        cursor = parent
    if not parts:
        parts = [path.stem]
    name = ".".join(parts)
    if path.name == "__init__.py":
        package = name
    else:
        package = ".".join(parts[:-1]) or name
    return name, package


def iter_source_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """All ``.py`` files under ``paths``, deterministically ordered."""
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise StaticAnalysisError(f"no such path: {path}")
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise StaticAnalysisError(f"not a Python source path: {path}")
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield resolved


def load_module(path: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises on syntax errors)."""
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        raise StaticAnalysisError(
            f"{path}:{exc.lineno or 0}: syntax error: {exc.msg}"
        ) from exc
    name, package = module_name_for(path)
    info = ModuleInfo(
        path=path,
        name=name,
        package=package,
        tree=tree,
        source=source,
    )
    _index_tree(tree, info)
    return info


def load_paths(paths: Iterable[str | Path]) -> list[ModuleInfo]:
    """Load every module under ``paths``, in deterministic path order."""
    return [load_module(path) for path in iter_source_files(paths)]
