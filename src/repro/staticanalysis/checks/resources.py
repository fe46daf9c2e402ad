"""Resource-handling detectors (paper: ecosystem/system-call interactions).

The study's non-controller-logic root causes are dominated by ecosystem
interactions — and file descriptors plus rename-based publication are the
two such interactions this repo leans on hardest (journal, artifact
cache, corpus shards).

* ``open-no-with`` — an ``open()`` whose handle is neither managed by a
  ``with`` block, closed in the same scope, nor owned by an object
  (``self.handle = open(...)``): a leak under any exception path.
* ``raw-publish`` — any ``os.replace``/``os.rename`` outside
  :mod:`repro.recovery.durable`: its ``atomic_write`` is the one publish
  that fsyncs before the rename and never leaves a tmp file behind, so a
  hand-rolled rename is a second crash model to keep correct.  This also
  covers the torn write the recovery harness injects (data renamed into
  place with no fsync): every such rename is a rename outside the
  durable module.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.staticanalysis.checks.base import (
    AnalysisContext,
    Detector,
    enclosing_function,
    iter_own_nodes,
)
from repro.staticanalysis.loader import ModuleInfo, parent_of
from repro.staticanalysis.model import Finding, Severity
from repro.taxonomy import BugType, RootCause


class OpenNoWithDetector(Detector):
    id = "open-no-with"
    family = "resources"
    description = "open() not guarded by with/close (leaks on error paths)"
    severity = Severity.WARNING
    bug_type = BugType.DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        for node in module.nodes(ast.Call):
            if not _is_open_call(node, module) or self._is_managed(node, module):
                continue
            found = self.finding(
                module, ctx, node,
                "open() without a with-block or same-scope close(); the "
                "descriptor leaks on any exception path",
            )
            if found is not None:
                yield found

    @staticmethod
    def _is_managed(call: ast.Call, module: ModuleInfo) -> bool:
        parent = parent_of(call)
        # with open(...) as f:  /  with closing(open(...)):
        if isinstance(parent, ast.withitem):
            return True
        if (
            isinstance(parent, ast.Call)
            and module.resolve(parent.func)
            in ("contextlib.closing", "contextlib.ExitStack.enter_context")
        ):
            return True
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            # self.handle = open(...): ownership moves to the object, whose
            # close()/__exit__ is that type's concern, not this scope's.
            if isinstance(target, ast.Attribute):
                return True
            if isinstance(target, ast.Name):
                scope = enclosing_function(parent) or module.tree
                return _scope_closes_or_returns(scope, target.id)
        return False


def _is_open_call(call: ast.Call, module: ModuleInfo) -> bool:
    qualified = module.resolve(call.func)
    if qualified == "open" or qualified == "io.open":
        return True
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "open"):
        return False
    # ``path.open(...)`` on a pathlib-style object counts; ``mod.open(...)``
    # on some other imported module (webbrowser, gzip, ...) does not.
    root = (qualified or "").split(".")[0]
    return root not in module.imports


def _scope_closes_or_returns(scope: ast.AST, name: str) -> bool:
    for node in iter_own_nodes(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "close"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
        ):
            return True
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            return True  # ownership transferred to the caller
    return False


#: The one module allowed to rename files into place.
_DURABLE_MODULE = "repro.recovery.durable"


class RawPublishDetector(Detector):
    id = "raw-publish"
    family = "resources"
    description = "os.replace/os.rename outside repro.recovery.durable"
    severity = Severity.ERROR
    bug_type = BugType.NON_DETERMINISTIC
    root_cause = RootCause.ECOSYSTEM_SYSTEM_CALL

    def check_module(
        self, module: ModuleInfo, ctx: AnalysisContext
    ) -> Iterator[Finding]:
        if module.name == _DURABLE_MODULE:
            return
        for node in module.nodes(ast.Call):
            verb = module.resolve(node.func)
            if verb not in ("os.replace", "os.rename"):
                continue
            found = self.finding(
                module, ctx, node,
                f"{verb} outside {_DURABLE_MODULE}: publish through "
                "atomic_write, which fsyncs before the rename and always "
                "removes its tmp file",
            )
            if found is not None:
                yield found
