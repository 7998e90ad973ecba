"""repro-lint: AST-based checker for the project's correctness invariants.

The serving stack enforces a handful of invariants only by convention —
monotonic-clock deadline arithmetic, seeded randomness, ``with``-guarded
locks, single-``write()`` ``O_APPEND`` journal appends.  Each rule here
turns one of those conventions into a lint-time failure, so a regression
is caught in CI instead of a SIGKILL drill:

========  ==================  ==============================================
rule id   pragma alias        invariant
========  ==================  ==============================================
RL001     unseeded-random     no global ``np.random.*`` (use ``default_rng``
                              with a derived seed — determinism contract)
RL002     wall-clock          no ``time.time()`` (deadlines and latency
                              math must be monotonic; wall stamps need an
                              explicit pragma)
RL003     lock-discipline     every ``Lock.acquire()`` happens via ``with``
                              or inside ``try``/``finally: release()``
RL004     append-open         no append-mode ``open()``; journal appends
                              must be one ``os.write`` on an ``O_APPEND``
                              descriptor (:func:`repro.engine.cache.append_record_line`)
RL005     pickle              no ``pickle``/``allow_pickle=True`` outside
                              the guarded artifact codec
RL006     swallow             no bare ``except:`` / silent
                              ``except Exception`` (re-raise, log, or
                              capture the traceback)
RL007     model-ref           public ``repro.api`` surfaces take
                              :class:`~repro.api.refs.ModelRef`, not raw
                              ``model_id: str`` parameters
RL008     mutable-default     no mutable default argument values
RL009     no-print            no ``print()`` in ``repro`` library code
                              (CLI entry points — ``cli.py`` /
                              ``__main__.py`` — are exempt; use
                              :mod:`logging` so servers stay quiet)
========  ==================  ==============================================

Suppression is per line: a trailing (or immediately preceding whole-line)
comment ``# repro-lint: allow[<alias-or-rule-id>]`` silences the named
rules on that line, and a committed baseline
(``tools/repro_lint_baseline.json``) grandfathers pre-existing findings by
``(file, rule)`` count so the tool can gate *new* regressions while old
debt is paid down incrementally.

The linter is stdlib-only (``ast`` + ``tokenize``) on purpose: it runs in
every environment the test suite runs in, including fully offline ones.
"""

from __future__ import annotations

import ast
import io
import json
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "LintReport",
    "RULES",
    "RULE_ALIASES",
    "collect_pragmas",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "baseline_counts",
]

PRAGMA_PATTERN = re.compile(r"#\s*repro-lint:\s*allow\[([^\]]+)\]")

#: rule id -> short pragma alias (both forms are accepted in pragmas)
RULE_ALIASES: Dict[str, str] = {
    "RL001": "unseeded-random",
    "RL002": "wall-clock",
    "RL003": "lock-discipline",
    "RL004": "append-open",
    "RL005": "pickle",
    "RL006": "swallow",
    "RL007": "model-ref",
    "RL008": "mutable-default",
    "RL009": "no-print",
}

#: file names where ``print()`` IS the output channel (RL009 exempt)
_PRINT_ALLOWED_NAMES = ("cli.py", "__main__.py")

#: legacy ``np.random`` module-level functions that share global state or
#: hide their seed; the generator API is exempt.
_NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "RandomState",
    "BitGenerator", "PCG64", "Philox", "SFC64", "MT19937",
}

#: handler-body calls that count as "the error was reported, not swallowed"
_LOGGING_CALL_NAMES = {
    "debug", "info", "warning", "warn", "error", "exception", "critical",
    "log", "print", "format_exc", "print_exc", "print_exception", "fail",
}

_PICKLE_MODULES = {"pickle", "cPickle", "dill", "shelve", "marshal"}

#: files allowed to touch pickle-adjacent codecs: the artifact codec owns
#: the untrusted-class guard (``load_imputer_bytes``)
_PICKLE_ALLOWED_SUFFIXES = ("repro/engine/artifacts.py",)

_MUTABLE_CTOR_NAMES = {
    "list", "dict", "set", "bytearray", "OrderedDict", "defaultdict",
    "deque", "Counter",
}


@dataclass
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    grandfathered: bool = False

    def render(self) -> str:
        text = (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule} {self.message}")
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path, "line": self.line, "col": self.col,
            "rule": self.rule, "message": self.message, "hint": self.hint,
            "grandfathered": self.grandfathered,
        }


@dataclass
class LintReport:
    """Findings split into live failures and baseline-grandfathered ones."""

    findings: List[Finding] = field(default_factory=lambda: [])
    grandfathered: List[Finding] = field(default_factory=lambda: [])
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "files_checked": self.files_checked,
            "findings": [f.to_dict() for f in self.findings],
            "grandfathered": [f.to_dict() for f in self.grandfathered],
        }


# ---------------------------------------------------------------------- #
# pragmas
# ---------------------------------------------------------------------- #
def collect_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map line number -> set of allowed tags from ``repro-lint`` comments.

    Only real comment tokens are considered (a pragma spelled inside a
    string literal is inert), via :mod:`tokenize`.  A pragma on its own
    line also covers the line directly below it, so long expressions can
    carry an annotation without exceeding the line width.
    """
    pragmas: Dict[int, Set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = PRAGMA_PATTERN.search(token.string)
            if not match:
                continue
            tags = {tag.strip() for tag in match.group(1).split(",")
                    if tag.strip()}
            line = token.start[0]
            pragmas.setdefault(line, set()).update(tags)
            # a whole-line pragma comment annotates the next line too
            if token.line.strip().startswith("#"):
                pragmas.setdefault(line + 1, set()).update(tags)
    except tokenize.TokenError:
        pass  # syntactically broken file: the ast parse reports it
    return pragmas


def _suppressed(finding: Finding, pragmas: Dict[int, Set[str]]) -> bool:
    tags = pragmas.get(finding.line, set())
    alias = RULE_ALIASES.get(finding.rule, "")
    return bool(tags & {finding.rule, alias, "all"})


# ---------------------------------------------------------------------- #
# shared AST helpers
# ---------------------------------------------------------------------- #
def _dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def _constant_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


# ---------------------------------------------------------------------- #
# the rules
# ---------------------------------------------------------------------- #
def _rule_rl001(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL001: no unseeded/global ``np.random.*`` usage."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (len(parts) >= 3 and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in _NP_RANDOM_ALLOWED):
                yield Finding(
                    path, node.lineno, node.col_offset, "RL001",
                    f"global numpy RNG call {dotted}() breaks the "
                    "determinism contract (masks and batches must derive "
                    "from explicit seeds)",
                    hint="use np.random.default_rng(seed) — see the "
                         "fingerprint-derived mask seeds in "
                         "repro.engine.jobs (JobSpec.mask_seed)")
        elif isinstance(node, ast.ImportFrom):
            if node.module in ("numpy.random", "np.random"):
                for alias in node.names:
                    if alias.name not in _NP_RANDOM_ALLOWED:
                        yield Finding(
                            path, node.lineno, node.col_offset, "RL001",
                            f"importing {alias.name!r} from numpy.random "
                            "pulls in the global RNG",
                            hint="import default_rng and seed it "
                                 "explicitly")


def _rule_rl002(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL002: no wall-clock ``time.time()`` (monotonic required)."""
    wall_aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    wall_aliases.add(alias.asname or alias.name)
                    yield Finding(
                        path, node.lineno, node.col_offset, "RL002",
                        "'from time import time' imports the wall clock; "
                        "deadline and latency arithmetic must be monotonic",
                        hint="use time.monotonic() or time.perf_counter(); "
                             "intentional wall stamps need "
                             "'# repro-lint: allow[wall-clock]'")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_name(node.func)
        if dotted == "time.time" or (dotted in wall_aliases and dotted):
            yield Finding(
                path, node.lineno, node.col_offset, "RL002",
                "wall-clock time.time() is not monotonic: NTP steps and "
                "DST make deadline/latency arithmetic go backwards",
                hint="use time.monotonic() (deadlines) or "
                     "time.perf_counter() (latency); journal wall stamps "
                     "carry '# repro-lint: allow[wall-clock]'")


def _rule_rl003(tree: ast.AST, path: str,
                parents: Dict[ast.AST, ast.AST]) -> Iterable[Finding]:
    """RL003: ``.acquire()`` only via ``with`` or try/finally release."""
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "acquire"):
            continue
        receiver = ast.dump(node.func.value)
        guarded = False
        cursor: Optional[ast.AST] = node
        while cursor is not None:
            parent = parents.get(cursor)
            if isinstance(parent, ast.Try) and cursor in parent.body:
                for final_node in ast.walk(
                        ast.Module(body=list(parent.finalbody),
                                   type_ignores=[])):
                    if (isinstance(final_node, ast.Call)
                            and isinstance(final_node.func, ast.Attribute)
                            and final_node.func.attr == "release"
                            and ast.dump(final_node.func.value) == receiver):
                        guarded = True
                        break
            if guarded:
                break
            cursor = parent
        if not guarded:
            yield Finding(
                path, node.lineno, node.col_offset, "RL003",
                "bare .acquire() without a matching try/finally release: "
                "an exception between acquire and release deadlocks every "
                "other thread",
                hint="prefer 'with lock:'; if acquire needs a timeout, "
                     "wrap the guarded region in try/finally: "
                     "lock.release()")


def _looks_like_mode(text: Optional[str]) -> bool:
    """True for strings that are plausibly an ``open()`` mode ("a", "ab+")."""
    return (text is not None and 0 < len(text) <= 3
            and all(char in "rwxabt+U" for char in text))


def _rule_rl004(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL004: no append-mode ``open()``; journals append via O_APPEND."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        mode: Optional[str] = None
        is_open = False
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            is_open = True
            if len(node.args) >= 2:
                mode = _constant_str(node.args[1])
        elif isinstance(node.func, ast.Attribute) and \
                node.func.attr == "open":
            is_open = True
            if node.args:
                mode = _constant_str(node.args[0])
        if not is_open:
            continue
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = _constant_str(keyword.value)
        if _looks_like_mode(mode) and "a" in mode and "r" not in mode:
            yield Finding(
                path, node.lineno, node.col_offset, "RL004",
                f"append-mode open(mode={mode!r}): buffered appends can "
                "tear records across processes and survive SIGKILL "
                "half-written",
                hint="append exactly one os.write() of a complete line on "
                     "an os.O_APPEND descriptor — use "
                     "repro.engine.cache.append_record_line "
                     "(the ResultCache.put discipline)")


def _rule_rl005(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL005: pickle only inside the guarded artifact codec."""
    if Path(path).as_posix().endswith(_PICKLE_ALLOWED_SUFFIXES):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _PICKLE_MODULES:
                    yield Finding(
                        path, node.lineno, node.col_offset, "RL005",
                        f"import of {alias.name!r}: pickle deserialisation "
                        "executes arbitrary callables from the wire",
                        hint="artifact blobs go through "
                             "repro.engine.artifacts.load_imputer_bytes, "
                             "which guards the class allowlist")
        elif isinstance(node, ast.ImportFrom):
            if node.module and node.module.split(".")[0] in _PICKLE_MODULES:
                yield Finding(
                    path, node.lineno, node.col_offset, "RL005",
                    f"import from {node.module!r}: pickle deserialisation "
                    "executes arbitrary callables from the wire",
                    hint="route blobs through the guarded artifact codec")
        elif isinstance(node, ast.Call):
            dotted = _dotted_name(node.func) or ""
            parts = dotted.split(".")
            if parts[0] in _PICKLE_MODULES and len(parts) > 1:
                yield Finding(
                    path, node.lineno, node.col_offset, "RL005",
                    f"{dotted}() on a wire path: pickle executes "
                    "arbitrary callables during load",
                    hint="route blobs through the guarded artifact codec")
            for keyword in node.keywords:
                if (keyword.arg == "allow_pickle"
                        and isinstance(keyword.value, ast.Constant)
                        and keyword.value.value is True):
                    yield Finding(
                        path, node.lineno, node.col_offset, "RL005",
                        "allow_pickle=True turns np.load into a pickle "
                        "loader",
                        hint="keep allow_pickle=False; structured blobs "
                             "belong in the artifact codec")


def _handler_is_silent(handler: ast.excepthandler) -> bool:
    """True when the handler neither re-raises, logs, nor uses the error."""
    bound = handler.name
    for node in ast.walk(ast.Module(body=list(handler.body),
                                    type_ignores=[])):
        if isinstance(node, ast.Raise):
            return False
        if isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Attribute):
                name = node.func.attr
            elif isinstance(node.func, ast.Name):
                name = node.func.id
            if name in _LOGGING_CALL_NAMES:
                return False
        if bound and isinstance(node, ast.Name) and node.id == bound \
                and isinstance(node.ctx, ast.Load):
            # the bound exception is *used* (wrapped, stored, attached)
            return False
    return True


def _rule_rl006(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL006: no silently-swallowed broad exception handlers."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        broad = node.type is None
        if isinstance(node.type, ast.Name) and \
                node.type.id in ("Exception", "BaseException"):
            broad = True
        if isinstance(node.type, ast.Tuple):
            broad = any(isinstance(element, ast.Name)
                        and element.id in ("Exception", "BaseException")
                        for element in node.type.elts)
        if not broad:
            continue
        if _handler_is_silent(node):
            what = "bare except:" if node.type is None \
                else "except Exception"
            yield Finding(
                path, node.lineno, node.col_offset, "RL006",
                f"{what} swallows the error without re-raising, logging, "
                "or using the bound exception — failures vanish silently",
                hint="re-raise, log it, capture traceback.format_exc() "
                     "into the result, or annotate why suppression is "
                     "safe with '# repro-lint: allow[swallow]'")


def _rule_rl007(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL007: public ``repro.api`` surfaces accept ModelRef, not raw str."""
    posix = Path(path).as_posix()
    if "repro/api/" not in posix:
        return
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("_"):
            continue
        args = list(node.args.posonlyargs) + list(node.args.args) \
            + list(node.args.kwonlyargs)
        for arg in args:
            if arg.arg != "model_id":
                continue
            annotation = arg.annotation
            if annotation is None:
                continue
            rendered = ast.unparse(annotation)
            if "str" in rendered and "ModelRef" not in rendered:
                yield Finding(
                    path, node.lineno, node.col_offset, "RL007",
                    f"public api surface {node.name}() takes raw "
                    f"'model_id: {rendered}'; post-PR-8 surfaces accept "
                    "ModelRef ('model_id@version', bare string = @latest)",
                    hint="annotate the parameter to accept "
                         "repro.api.refs.ModelRef (coerce with "
                         "ModelRef.parse); raw str ids are store-level "
                         "only: mark a store-level def with "
                         "'# repro-lint: allow[model-ref]'")


def _rule_rl008(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL008: no mutable default argument values."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            default for default in node.args.kw_defaults
            if default is not None]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                           ast.ListComp, ast.DictComp,
                                           ast.SetComp))
            if isinstance(default, ast.Call):
                dotted = _dotted_name(default.func) or ""
                mutable = dotted.split(".")[-1] in _MUTABLE_CTOR_NAMES
            if mutable:
                name = getattr(node, "name", "<lambda>")
                yield Finding(
                    path, default.lineno, default.col_offset, "RL008",
                    f"mutable default argument in {name}(): the object is "
                    "shared across every call",
                    hint="default to None and construct inside the body "
                         "(or use dataclasses.field(default_factory=...))")


def _rule_rl009(tree: ast.AST, path: str) -> Iterable[Finding]:
    """RL009: no ``print()`` in library code (CLI modules exempt)."""
    posix = Path(path).as_posix()
    if "repro/" not in posix:
        return
    if Path(path).name in _PRINT_ALLOWED_NAMES:
        return
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"):
            yield Finding(
                path, node.lineno, node.col_offset, "RL009",
                "print() in library code writes to the server's stdout: "
                "it interleaves with worker output, ignores log levels, "
                "and cannot be silenced by embedders",
                hint="use logging.getLogger(__name__) (debug/info); "
                     "print() belongs only in cli.py / __main__.py entry "
                     "points")


#: rule id -> implementation; RL003 additionally receives the parent map
RULES = {
    "RL001": _rule_rl001,
    "RL002": _rule_rl002,
    "RL003": _rule_rl003,
    "RL004": _rule_rl004,
    "RL005": _rule_rl005,
    "RL006": _rule_rl006,
    "RL007": _rule_rl007,
    "RL008": _rule_rl008,
    "RL009": _rule_rl009,
}


# ---------------------------------------------------------------------- #
# driver
# ---------------------------------------------------------------------- #
def lint_source(source: str, path: str,
                rules: Optional[Sequence[str]] = None) -> List[Finding]:
    """Lint one source string; returns pragma-filtered findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, exc.offset or 0, "RL000",
                        f"syntax error: {exc.msg}")]
    pragmas = collect_pragmas(source)
    parents = _parent_map(tree)
    findings: List[Finding] = []
    for rule_id in (rules or sorted(RULES)):
        rule = RULES[rule_id]
        if rule_id == "RL003":
            produced = rule(tree, path, parents)
        else:
            produced = rule(tree, path)
        for finding in produced:
            if not _suppressed(finding, pragmas):
                findings.append(finding)
    findings.sort(key=lambda f: (f.line, f.col, f.rule))
    return findings


def lint_file(path, rules: Optional[Sequence[str]] = None) -> List[Finding]:
    source = Path(path).read_text(encoding="utf-8")
    return lint_source(source, str(path), rules=rules)


def iter_python_files(paths: Sequence) -> List[Path]:
    files: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(
                candidate for candidate in entry.rglob("*.py")
                if "__pycache__" not in candidate.parts))
        elif entry.suffix == ".py":
            files.append(entry)
    return files


def load_baseline(path) -> Dict[str, int]:
    """Grandfathered ``"file::rule" -> count`` allowances, or ``{}``."""
    baseline_path = Path(path)
    if not baseline_path.exists():
        return {}
    payload = json.loads(baseline_path.read_text(encoding="utf-8"))
    entries = payload.get("findings", payload)
    return {str(key): int(value) for key, value in entries.items()
            if not str(key).startswith("_")}


def baseline_counts(findings: Iterable[Finding]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for finding in findings:
        key = f"{Path(finding.path).as_posix()}::{finding.rule}"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _baseline_key_for(finding: Finding,
                      remaining: Dict[str, int]) -> Optional[str]:
    """The baseline key covering ``finding``, or ``None``.

    Keys are stored repo-relative; findings may carry absolute paths (the
    test suite lints by absolute fixture path), so a key also matches any
    finding path that ends with it on a ``/`` boundary.
    """
    posix = Path(finding.path).as_posix()
    exact = f"{posix}::{finding.rule}"
    if remaining.get(exact, 0) > 0:
        return exact
    for candidate, allowance in remaining.items():
        if allowance <= 0:
            continue
        file_part, _, rule_part = candidate.rpartition("::")
        if rule_part != finding.rule:
            continue
        if posix == file_part or posix.endswith("/" + file_part):
            return candidate
    return None


def apply_baseline(findings: List[Finding],
                   baseline: Dict[str, int]) -> Tuple[List[Finding],
                                                      List[Finding]]:
    """Split findings into (live, grandfathered) under per-key allowances.

    For each ``file::rule`` key the first ``baseline[key]`` findings (in
    line order) are grandfathered; everything past the allowance is live.
    """
    remaining = dict(baseline)
    live: List[Finding] = []
    grandfathered: List[Finding] = []
    for finding in findings:
        key = _baseline_key_for(finding, remaining)
        if key is not None:
            remaining[key] -= 1
            finding.grandfathered = True
            grandfathered.append(finding)
        else:
            live.append(finding)
    return live, grandfathered


def lint_paths(paths: Sequence, baseline: Optional[Dict[str, int]] = None,
               rules: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every ``*.py`` under ``paths``; apply the baseline if given."""
    report = LintReport()
    all_findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        all_findings.extend(lint_file(file_path, rules=rules))
        report.files_checked += 1
    live, grandfathered = apply_baseline(all_findings, baseline or {})
    report.findings = live
    report.grandfathered = grandfathered
    return report
