"""AST invariant linter: the rule engine behind ``repro check``.

The engine parses every tracked Python file under ``src/`` and runs two kinds
of rules over the syntax trees:

* **file rules** see one :class:`FileContext` (tree, source lines, parent
  map) at a time — e.g. REP001's pickle ban or REP002's wall-clock audit;
* **project rules** see the whole :class:`ProjectIndex` at once — e.g.
  REP004's schema-coverage check must correlate dataclass definitions in one
  module with ``register_dataclass`` calls in another.

Findings carry ``file:line``, a rule id, a severity and a message, and are
rendered by :func:`render_text` / :func:`render_json`.  A finding can be
acknowledged in place with an inline suppression::

    now = time.time()  # repro: allow[REP002] display-only timestamp

The suppression must name the rule id *and* carry a reason — a reason-less
suppression suppresses nothing and is itself reported (REP010), so the
"why" of every exception to an invariant lives next to the code.  A
suppression comment alone on a line applies to the following line (for
statements too long to annotate in place).

Rule catalogue (one line each; the rule docstrings carry the full
rationale):

========  =======================================================================
REP001    no ``pickle`` imports anywhere (the allowlist is empty)
REP002    no wall-clock ``time.time`` — durations use ``time.monotonic``
REP003    no ``reduceat``/pairwise-association reductions in kernel backends
REP004    every wire-reachable dataclass has a registered codec schema
REP005    metric names match ``repro_[a-z_]+`` and are created at one site
REP006    hot-path dataclasses declare ``slots=True``
REP007    attributes documented ``#: guarded by _lock`` only touched under it
REP008    no blocking call while a lock is held
REP009    ``except Exception`` must re-raise, return, or log via the event log
REP010    suppressions are well-formed, justified, and actually used
========  =======================================================================
"""

from __future__ import annotations

import ast
import io
import json
import re
import subprocess
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

__all__ = [
    "CheckReport",
    "FileContext",
    "Finding",
    "ProjectIndex",
    "render_json",
    "render_text",
    "rule_catalogue",
    "run_checks",
    "tracked_python_files",
]

#: The inline suppression syntax: "repro: allow" + [rule ids] + reason,
#: inside a comment (spelled out in the module docstring above).
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow\[([^\]]*)\]\s*(.*)$")

#: Well-formed rule ids inside the brackets.
_RULE_ID_RE = re.compile(r"^REP\d{3}$")

#: Reserved id for files the engine itself cannot process (syntax errors).
PARSE_RULE_ID = "REP000"


@dataclass(slots=True)
class Finding:
    """One rule violation (or acknowledged exception) at ``path:line``."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"
    suppressed: bool = False
    reason: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def as_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": self.severity,
            "message": self.message,
            "suppressed": self.suppressed,
            "reason": self.reason,
        }


@dataclass(frozen=True, slots=True)
class RuleInfo:
    """Registry entry: identity, severity and the one-line rationale."""

    id: str
    name: str
    severity: str
    rationale: str
    project: bool
    check: Callable[..., Iterable[Finding]]


_RULES: dict[str, RuleInfo] = {}


def rule(
    rule_id: str, name: str, rationale: str, severity: str = "error", project: bool = False
) -> Callable[[Callable[..., Iterable[Finding]]], Callable[..., Iterable[Finding]]]:
    """Register a rule function under ``rule_id`` (decorator)."""

    def decorate(fn: Callable[..., Iterable[Finding]]) -> Callable[..., Iterable[Finding]]:
        if rule_id in _RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = RuleInfo(
            id=rule_id,
            name=name,
            severity=severity,
            rationale=rationale,
            project=project,
            check=fn,
        )
        return fn

    return decorate


def rule_catalogue() -> list[RuleInfo]:
    """Every registered rule, id-ordered (``repro check --list-rules``)."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES)]


# -- file / project context -------------------------------------------------------


@dataclass(slots=True)
class Suppression:
    """One parsed ``# repro: allow[...]`` comment."""

    path: str
    comment_line: int
    target_line: int
    rule_ids: tuple[str, ...]
    reason: str
    used: bool = False


class FileContext:
    """One parsed source file: tree, lines, parent links and suppressions."""

    def __init__(self, path: Path, relpath: str, source: str):
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=relpath)
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.suppressions = _parse_suppressions(relpath, source)

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self.parents.get(node)

    def finding(self, info_id: str, node: ast.AST, message: str) -> Finding:
        info = _RULES[info_id]
        return Finding(
            rule=info_id,
            path=self.relpath,
            line=getattr(node, "lineno", 1),
            message=message,
            severity=info.severity,
        )


def _parse_suppressions(relpath: str, source: str) -> list[Suppression]:
    # Tokenize so only *real* comments count — a docstring that quotes the
    # suppression syntax (this engine's own documentation, say) is not a
    # suppression.
    suppressions: list[Suppression] = []
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError):  # unreachable after ast.parse
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is None:
            continue
        ids = tuple(part.strip() for part in match.group(1).split(",") if part.strip())
        reason = match.group(2).strip().lstrip("-: ").strip()
        index = token.start[0]
        # A suppression alone on its line annotates the *next* line.
        standalone = token.line[: token.start[1]].strip() == ""
        suppressions.append(
            Suppression(
                path=relpath,
                comment_line=index,
                target_line=index + 1 if standalone else index,
                rule_ids=ids,
                reason=reason,
            )
        )
    return suppressions


class ProjectIndex:
    """Every parsed file plus cross-file indexes for the project rules."""

    def __init__(self, contexts: list[FileContext]):
        self.contexts = contexts
        #: class name -> (context, ClassDef, {field name -> annotation text})
        self.dataclasses: dict[str, tuple[FileContext, ast.ClassDef, dict[str, str]]] = {}
        #: class names with a ``register_dataclass``/``register_schema(type=...)`` entry
        self.registered: set[str] = set()
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef) and _dataclass_decorator(node) is not None:
                    fields = {
                        stmt.target.id: ast.unparse(stmt.annotation)
                        for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                    }
                    self.dataclasses[node.name] = (ctx, node, fields)
                elif isinstance(node, ast.Call):
                    name = _call_name(node)
                    if name == "register_dataclass" and node.args:
                        first = node.args[0]
                        if isinstance(first, ast.Name):
                            self.registered.add(first.id)
                    elif name == "register_schema":
                        for keyword in node.keywords:
                            if keyword.arg == "type" and isinstance(keyword.value, ast.Name):
                                self.registered.add(keyword.value.id)


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return ""


def _dataclass_decorator(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` / ``@dataclass(...)`` decorator of a class, if any."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return decorator
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return decorator
    return None


# -- engine -----------------------------------------------------------------------


@dataclass(slots=True)
class CheckReport:
    """Outcome of one :func:`run_checks` pass."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def as_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "rules_run": self.rules_run,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
        }


def tracked_python_files(root: Path) -> list[Path]:
    """Python files under ``root/src`` that the repository tracks.

    Uses ``git ls-files`` so generated/ignored files never enter the gate;
    outside a work tree (an sdist, a bare checkout) it falls back to a
    filesystem walk of ``src/``.
    """
    root = Path(root)
    try:
        listing = subprocess.run(
            # --others --exclude-standard adds files not yet committed, so a
            # brand-new module cannot escape the gate until its first commit.
            ["git", "-C", str(root), "ls-files", "--cached", "--others",
             "--exclude-standard", "src/**/*.py", "src/*.py"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()
        files = [root / line for line in sorted(set(listing)) if line.strip()]
    except (OSError, subprocess.CalledProcessError):
        files = sorted((root / "src").rglob("*.py"))
    return [path for path in files if path.is_file()]


def run_checks(
    files: Iterable[Path],
    root: Path,
    rules: Iterable[str] | None = None,
) -> CheckReport:
    """Run the (selected) rules over ``files``; paths report relative to ``root``.

    ``rules=None`` runs everything, including REP010's unused-suppression
    audit; an explicit rule subset skips that audit (a suppression for a
    rule that was not run is not evidence of a stale suppression).
    """
    root = Path(root)
    selected = sorted(_RULES) if rules is None else sorted(set(rules))
    unknown = [rule_id for rule_id in selected if rule_id not in _RULES]
    if unknown:
        raise ValueError(f"unknown rule id(s) {unknown}; known rules: {sorted(_RULES)}")
    report = CheckReport(rules_run=selected)

    contexts: list[FileContext] = []
    for path in files:
        path = Path(path)
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        try:
            source = path.read_text(encoding="utf-8")
            contexts.append(FileContext(path, relpath, source))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            line = getattr(exc, "lineno", None) or 1
            report.findings.append(
                Finding(
                    rule=PARSE_RULE_ID,
                    path=relpath,
                    line=line,
                    message=f"file cannot be checked: {exc}",
                )
            )
    report.files_checked = len(contexts)

    raw: list[Finding] = []
    project = ProjectIndex(contexts)
    for rule_id in selected:
        info = _RULES[rule_id]
        if info.project:
            raw.extend(info.check(project))
        else:
            for ctx in contexts:
                raw.extend(info.check(ctx))

    # Apply suppressions: a finding is acknowledged when a well-formed
    # suppression (known rule id + reason) targets its line and names its rule.
    by_location: dict[tuple[str, int], list[Suppression]] = {}
    for ctx in contexts:
        for suppression in ctx.suppressions:
            by_location.setdefault((ctx.relpath, suppression.target_line), []).append(suppression)
    for finding in raw:
        matched = None
        for suppression in by_location.get((finding.path, finding.line), ()):
            if finding.rule in suppression.rule_ids and suppression.reason:
                matched = suppression
                break
        if matched is not None:
            matched.used = True
            finding.suppressed = True
            finding.reason = matched.reason
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    # REP010: suppression hygiene (only meaningful over the full rule set —
    # a partial run cannot tell a stale suppression from a not-run rule).
    if "REP010" in selected:
        audit_unused = rules is None
        for ctx in contexts:
            report.findings.extend(_audit_suppressions(ctx, audit_unused=audit_unused))

    report.findings.sort(key=lambda f: (f.path, f.line, f.rule))
    report.suppressed.sort(key=lambda f: (f.path, f.line, f.rule))
    return report


def render_text(report: CheckReport, verbose: bool = False) -> str:
    """Human-readable report: one ``path:line: RULE message`` line per finding."""
    lines = []
    for finding in report.findings:
        lines.append(f"{finding.location()}: [{finding.severity}] {finding.rule} {finding.message}")
    if verbose:
        for finding in report.suppressed:
            lines.append(
                f"{finding.location()}: [suppressed] {finding.rule} "
                f"{finding.message} (reason: {finding.reason})"
            )
    lines.append(
        f"repro check: {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, {report.files_checked} file(s) checked"
    )
    return "\n".join(lines)


def render_json(report: CheckReport) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


# -- shared AST helpers -----------------------------------------------------------


def _attribute_chain(node: ast.expr) -> str:
    """Dotted-name text of an expression, or "" when it is not a plain chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _functions(tree: ast.AST) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# -- REP001 -----------------------------------------------------------------------

#: Modules allowed to import pickle: none.  An audited exception (a
#: picklability guard that never deserializes) takes a suppression comment.
_PICKLE_ALLOWLIST: frozenset[str] = frozenset()
_PICKLE_MODULES = {"pickle", "cPickle", "dill", "cloudpickle"}


@rule(
    "REP001",
    "no-pickle",
    "The wire and the artifact store are pickle-free by design (PR 4): pickles "
    "execute arbitrary code on load and break cross-version compatibility.  "
    "The allowlist is empty: no module may import pickle.",
)
def _check_no_pickle(ctx: FileContext) -> Iterator[Finding]:
    if ctx.relpath in _PICKLE_ALLOWLIST:
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _PICKLE_MODULES:
                    yield ctx.finding(
                        "REP001",
                        node,
                        f"import of {alias.name!r}: no module may import pickle",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _PICKLE_MODULES:
                yield ctx.finding(
                    "REP001",
                    node,
                    f"import from {node.module!r}: no module may import pickle",
                )


# -- REP002 -----------------------------------------------------------------------


@rule(
    "REP002",
    "monotonic-durations",
    "time.time() jumps under NTP steps/slews and DST; every duration, timeout "
    "or rate-limit computation must use time.monotonic().  Display-only wall "
    "timestamps carry an annotated suppression.",
)
def _check_wall_clock(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Attribute)
            and node.attr == "time"
            and isinstance(node.value, ast.Name)
            and node.value.id == "time"
        ):
            continue
        # Climb to the nearest statement, noting arithmetic/comparison parents:
        # `time.time() - t0` is always a bug; a bare read needs a justification.
        in_math = False
        cursor: ast.AST | None = node
        while cursor is not None and not isinstance(cursor, ast.stmt):
            if isinstance(cursor, (ast.BinOp, ast.Compare, ast.AugAssign)):
                in_math = True
            cursor = ctx.parent(cursor)
        if in_math:
            message = (
                "time.time() used in arithmetic/comparison: duration math must "
                "use time.monotonic()"
            )
        else:
            message = (
                "wall-clock time.time() read: use time.monotonic() for durations, "
                "or suppress with a reason for display-only timestamps"
            )
        yield ctx.finding("REP002", node, message)


# -- REP003 -----------------------------------------------------------------------


@rule(
    "REP003",
    "no-pairwise-reductions",
    "np.add.reduceat (and pairwise-association reductions generally) make "
    "float sums depend on batch shape by 1 ulp — the PR 8 bit-identity bug.  "
    "Kernel backends must reduce with a shape-independent association "
    "(sequential fancy-indexed accumulation, e.g. _segment_sums).",
)
def _check_reduceat(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.relpath.startswith("src/repro/accelerator/backends/"):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Attribute) and node.attr in ("reduceat", "logsumexp"):
            yield ctx.finding(
                "REP003",
                node,
                f"{_attribute_chain(node) or node.attr} in a kernel backend: "
                "pairwise-association reductions silently change results with "
                "batch shape; use a sequential segment accumulation",
            )


# -- REP004 -----------------------------------------------------------------------

#: Identifiers that look like types but never need registration.
_ANNOTATION_NOISE = {
    "Any", "Callable", "Iterable", "Iterator", "Mapping", "Sequence", "Optional",
    "Union", "ClassVar", "Final", "None", "np", "numpy", "ndarray", "field",
    "str", "int", "float", "bool", "bytes", "list", "dict", "tuple", "set",
    "frozenset", "object", "type", "BaseException", "Exception", "threading",
    "Path", "Enum",
}


@rule(
    "REP004",
    "schema-coverage",
    "Every dataclass reachable from the wire surfaces (serve/specs.py, "
    "core/schemas.py registrations) must have a register_dataclass/"
    "register_schema entry, or a new field silently makes a result "
    "unstorable/unshippable at runtime.",
    project=True,
)
def _check_schema_coverage(project: ProjectIndex) -> Iterator[Finding]:
    seeds = sorted(project.registered & set(project.dataclasses))
    visited: set[str] = set()
    queue = list(seeds)
    while queue:
        name = queue.pop()
        if name in visited:
            continue
        visited.add(name)
        _, _, fields = project.dataclasses[name]
        for field_name, annotation in fields.items():
            for ident in _IDENTIFIER_RE.findall(annotation):
                if ident in _ANNOTATION_NOISE or ident not in project.dataclasses:
                    continue
                if ident not in project.registered and ident not in visited:
                    ctx, node, _ = project.dataclasses[ident]
                    yield ctx.finding(
                        "REP004",
                        node,
                        f"dataclass {ident} is wire-reachable (field "
                        f"{name}.{field_name}) but has no register_dataclass/"
                        "register_schema entry",
                    )
                if ident not in visited:
                    queue.append(ident)


# -- REP005 -----------------------------------------------------------------------

_METRIC_FACTORIES = {"counter", "gauge", "histogram"}
_METRIC_NAME_RE = re.compile(r"^repro_[a-z_]+$")


@rule(
    "REP005",
    "metric-names",
    "Metric names form the stable scrape contract: they must match "
    "repro_[a-z_]+ and be created at exactly one call site, so a renamed or "
    "duplicated metric cannot silently fork the time series.",
    project=True,
)
def _check_metric_names(project: ProjectIndex) -> Iterator[Finding]:
    sites: dict[str, list[tuple[FileContext, ast.Call]]] = {}
    for ctx in project.contexts:
        if ctx.relpath == "src/repro/core/telemetry.py":
            continue  # the registry itself (metric classes, not call sites)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_FACTORIES
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            name = node.args[0].value
            sites.setdefault(name, []).append((ctx, node))
            if not _METRIC_NAME_RE.match(name):
                yield ctx.finding(
                    "REP005",
                    node,
                    f"metric name {name!r} does not match repro_[a-z_]+",
                )
    for name, occurrences in sorted(sites.items()):
        if len(occurrences) > 1:
            locations = ", ".join(f"{ctx.relpath}:{node.lineno}" for ctx, node in occurrences)
            for ctx, node in occurrences:
                yield ctx.finding(
                    "REP005",
                    node,
                    f"metric {name!r} is created at {len(occurrences)} sites "
                    f"({locations}); each metric must have exactly one owner",
                )


# -- REP006 -----------------------------------------------------------------------

_SLOTS_SCOPES = ("src/repro/accelerator/", "src/repro/core/columnar.py")


@rule(
    "REP006",
    "hot-path-slots",
    "Hot-path dataclasses (accelerator/, core/columnar.py) are constructed in "
    "bulk by the simulation kernels; slots=True removes the per-instance "
    "__dict__ (smaller, faster, and typo-assignments fail loudly).",
)
def _check_slots(ctx: FileContext) -> Iterator[Finding]:
    if not ctx.relpath.startswith(_SLOTS_SCOPES[0]) and ctx.relpath != _SLOTS_SCOPES[1]:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = _dataclass_decorator(node)
        if decorator is None:
            continue
        has_slots = isinstance(decorator, ast.Call) and any(
            keyword.arg == "slots"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in decorator.keywords
        )
        if not has_slots:
            yield ctx.finding(
                "REP006",
                node,
                f"hot-path dataclass {node.name} must declare @dataclass(slots=True)",
            )


# -- REP007 -----------------------------------------------------------------------

_GUARD_RE = re.compile(r"#:\s*guarded by\s+(?:self\.)?(\w+)")


def _guarded_attributes(ctx: FileContext, cls: ast.ClassDef) -> dict[str, str]:
    """``{attr: lock_attr}`` declared via ``#: guarded by _lock`` comments.

    The comment sits on (or directly above) either a dataclass field
    declaration in the class body or a ``self.attr = ...`` assignment in
    ``__init__``.
    """

    def guard_near(lineno: int) -> str | None:
        if 1 <= lineno <= len(ctx.lines):
            match = _GUARD_RE.search(ctx.lines[lineno - 1])
            if match:
                return match.group(1)
        # A standalone comment line directly above also counts.
        if 2 <= lineno and ctx.lines[lineno - 2].strip().startswith("#"):
            match = _GUARD_RE.search(ctx.lines[lineno - 2])
            if match:
                return match.group(1)
        return None

    def assigned_attrs(node: ast.stmt) -> Iterator[str]:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr

    guarded: dict[str, str] = {}
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            lock = guard_near(stmt.lineno)
            if lock:
                guarded[stmt.target.id] = lock
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name in (
            "__init__",
            "__post_init__",
        ):
            for node in ast.walk(stmt):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    lock = guard_near(node.lineno)
                    if lock:
                        for attr in assigned_attrs(node):
                            guarded[attr] = lock
    return guarded


def _walk_with_locks(
    node: ast.AST, held: frozenset[str], visit: Callable[[ast.AST, frozenset[str]], None]
) -> None:
    """Depth-first walk tracking which ``self.<lock>`` contexts enclose a node."""
    visit(node, held)
    if isinstance(node, ast.With):
        entered = set(held)
        for item in node.items:
            chain = _attribute_chain(item.context_expr)
            if chain.startswith("self."):
                entered.add(chain[len("self.") :])
        for item in node.items:
            _walk_with_locks(item.context_expr, held, visit)
        for child in node.body:
            _walk_with_locks(child, frozenset(entered), visit)
        return
    for child in ast.iter_child_nodes(node):
        _walk_with_locks(child, held, visit)


@rule(
    "REP007",
    "lock-guarded-attributes",
    "An attribute documented `#: guarded by _lock` is part of a class's "
    "locking contract; touching it outside `with self._lock` is a data race "
    "waiting for a scheduler to expose it.  Methods named *_locked are "
    "called with the lock already held and are exempt, as is __init__ "
    "(publication happens-before thread start).",
)
def _check_guarded_attributes(ctx: FileContext) -> Iterator[Finding]:
    findings: list[Finding] = []
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        guarded = _guarded_attributes(ctx, cls)
        if not guarded:
            continue
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name in ("__init__", "__post_init__") or method.name.endswith("_locked"):
                continue

            def visit(node: ast.AST, held: frozenset[str]) -> None:
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                    and guarded[node.attr] not in held
                ):
                    findings.append(
                        ctx.finding(
                            "REP007",
                            node,
                            f"self.{node.attr} is documented '#: guarded by "
                            f"{guarded[node.attr]}' but is touched outside "
                            f"'with self.{guarded[node.attr]}'",
                        )
                    )

            _walk_with_locks(method, frozenset(), visit)
    yield from findings


# -- REP008 -----------------------------------------------------------------------

#: With-context expressions treated as lock acquisitions (lowercased match).
_LOCKISH_RE = re.compile(r"(lock|condition|mutex|_transitions)\w*(\(\))?$", re.IGNORECASE)

#: Call targets that block the calling thread.
_BLOCKING_CHAINS = {"time.sleep"}
_BLOCKING_ATTRS = {"urlopen", "result"}


def _lockish(expr: ast.expr) -> str | None:
    """The dotted text of ``expr`` when it looks like a lock acquisition."""
    node = expr.func if isinstance(expr, ast.Call) else expr
    chain = _attribute_chain(node)
    if chain and _LOCKISH_RE.search(chain.split(".")[-1]):
        return chain
    return None


@rule(
    "REP008",
    "no-blocking-under-lock",
    "A blocking call (sleep, future.result, urlopen, queue.get, thread.join) "
    "made while holding a lock turns every sibling of that lock into the "
    "slowest I/O on the box — and into a deadlock once the blocked-on work "
    "needs the same lock.  Condition.wait on the *held* condition is the one "
    "sanctioned wait (it releases the lock).",
)
def _check_blocking_under_lock(ctx: FileContext) -> Iterator[Finding]:
    findings: list[Finding] = []

    def visit_function(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        def walk(node: ast.AST, held: tuple[str, ...]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
                return  # nested defs run later, under their caller's locks
            if isinstance(node, ast.With):
                entered = list(held)
                for item in node.items:
                    lock = _lockish(item.context_expr)
                    if lock is not None:
                        entered.append(lock)
                for child in node.body:
                    walk(child, tuple(entered))
                return
            if isinstance(node, ast.Call) and held:
                chain = _attribute_chain(node.func)
                blocking = None
                if chain in _BLOCKING_CHAINS:
                    blocking = chain
                elif isinstance(node.func, ast.Attribute):
                    attr = node.func.attr
                    receiver = _attribute_chain(node.func.value)
                    if attr in _BLOCKING_ATTRS:
                        blocking = chain or attr
                    elif attr == "wait" and receiver not in held:
                        # Waiting on anything but the held condition keeps the
                        # lock pinned for the whole wait.
                        blocking = chain or attr
                    elif attr == "get" and "queue" in receiver.lower():
                        blocking = chain or attr
                    elif attr == "join" and (
                        "thread" in receiver.lower()
                        or receiver.split(".")[-1] in ("_scheduler", "_monitor", "_watcher")
                    ):
                        blocking = chain or attr
                if blocking is not None:
                    findings.append(
                        ctx.finding(
                            "REP008",
                            node,
                            f"blocking call {blocking}() while holding "
                            f"{', '.join(held)}",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                walk(child, held)

        walk(fn, ())

    for fn in _functions(ctx.tree):
        visit_function(fn)
    yield from findings


# -- REP009 -----------------------------------------------------------------------

#: Handler calls that count as "the error was routed somewhere deliberate".
_HANDLED_CALLS = {"emit", "mark_failed", "fail", "set_exception", "mark_cancelled"}


@rule(
    "REP009",
    "no-silent-except",
    "`except Exception` that neither re-raises, returns a sentinel, nor logs "
    "via the event log turns real failures (a fleet completion lost, a "
    "corrupted artifact) into silence.  Intentional swallows carry an "
    "annotated suppression explaining why.",
)
def _check_silent_except(ctx: FileContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not isinstance(node.type, ast.Name):
            continue
        if node.type.id not in ("Exception", "BaseException"):
            continue
        handled = False
        for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(child, (ast.Raise, ast.Return)):
                handled = True
                break
            if isinstance(child, ast.Call):
                name = _call_name(child)
                if name in _HANDLED_CALLS:
                    handled = True
                    break
        if not handled:
            yield ctx.finding(
                "REP009",
                node,
                "except Exception swallows the error: re-raise, return an "
                "explicit sentinel, or log it via the event log "
                "(telemetry.event_log().emit)",
            )


# -- REP010 -----------------------------------------------------------------------


@rule(
    "REP010",
    "suppression-hygiene",
    "A suppression is a signed waiver: it must name a known rule, carry a "
    "reason, and still match a real finding — otherwise it is noise that "
    "hides future regressions.",
)
def _check_suppression_stub(ctx: FileContext) -> Iterator[Finding]:
    # REP010 findings are produced by the engine (``_audit_suppressions``)
    # after suppression matching; the registry entry exists so the rule shows
    # up in the catalogue and can be selected/suppressed like any other.
    return iter(())


def _audit_suppressions(ctx: FileContext, audit_unused: bool) -> Iterator[Finding]:
    for suppression in ctx.suppressions:
        anchor = ast.Module(body=[], type_ignores=[])  # findings carry their own line
        del anchor
        if not suppression.rule_ids:
            yield Finding(
                rule="REP010",
                path=ctx.relpath,
                line=suppression.comment_line,
                message="suppression names no rule id: use # repro: allow[REPnnn] reason",
            )
            continue
        bad_ids = [rid for rid in suppression.rule_ids if not _RULE_ID_RE.match(rid)]
        unknown = [
            rid
            for rid in suppression.rule_ids
            if _RULE_ID_RE.match(rid) and rid not in _RULES and rid != PARSE_RULE_ID
        ]
        if bad_ids or unknown:
            yield Finding(
                rule="REP010",
                path=ctx.relpath,
                line=suppression.comment_line,
                message=f"suppression names unknown rule id(s) {bad_ids + unknown}",
            )
            continue
        if not suppression.reason:
            yield Finding(
                rule="REP010",
                path=ctx.relpath,
                line=suppression.comment_line,
                message=(
                    "suppression has no reason; a waiver must say why "
                    f"({', '.join(suppression.rule_ids)} stays unsuppressed)"
                ),
            )
            continue
        if audit_unused and not suppression.used:
            yield Finding(
                rule="REP010",
                path=ctx.relpath,
                line=suppression.comment_line,
                message=(
                    f"unused suppression for {', '.join(suppression.rule_ids)}: "
                    "nothing on this line triggers the rule any more"
                ),
            )
