"""The source model every xlint check consumes.

build_regex_model turns one C++ translation unit into a SourceFile:
comment-stripped code with preserved line numbers, class extents with
base lists and member declarations, function extents with bodies, and
the suppression comments. It is a brace-matching regex scanner over the
stripped text, with no compiler or third-party dependency; checks
consume only this model.

Suppression grammar (docs/LINTING.md):

    // xlint: <rule>-ok(<reason>)

placed on the offending line or the line directly above it. The reason
is mandatory; an empty or missing reason is itself a finding (XL000), as
is an unknown rule name. `xlint-expect: XLnnn` markers are the fixture
counterpart: tests/lint_test.py asserts the marked line fires.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str  # "XL103"
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class Suppression:
    line: int
    rule_slug: str  # "unordered", "sort", ...
    reason: str
    used: bool = False


@dataclass
class FunctionInfo:
    name: str  # unqualified
    qualifier: str  # "Cls" for Cls::name or in-class methods, else ""
    start_line: int
    end_line: int
    body: str  # stripped code between the braces
    signature: str  # stripped text of the header, single line


@dataclass
class ClassInfo:
    name: str
    bases: str  # raw base-clause text ("public sim::Module, ...")
    start_line: int
    end_line: int
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    # (line, type_text, member_name) for each data member declaration.
    members: list[tuple[int, str, str]] = field(default_factory=list)
    has_pure_virtual: bool = False


@dataclass
class SourceFile:
    path: str  # repo-relative, forward slashes
    raw: str
    code: str  # comments and string/char literals blanked, newlines kept
    suppressions: list[Suppression] = field(default_factory=list)
    expects: list[tuple[int, str]] = field(default_factory=list)
    classes: list[ClassInfo] = field(default_factory=list)
    functions: list[FunctionInfo] = field(default_factory=list)

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1

    def code_lines(self) -> list[str]:
        return self.code.split("\n")

    def suppressed(self, line: int, rule_slug: str) -> bool:
        """True (and marks used) if `line` or the line above carries the
        matching suppression."""
        for sup in self.suppressions:
            if sup.rule_slug == rule_slug and sup.line in (line, line - 1):
                sup.used = True
                return True
        return False


SUPPRESSION_RE = re.compile(r"xlint:\s*([a-z][a-z-]*?)-ok\(([^)]*)\)")
SUPPRESSION_ANY_RE = re.compile(r"xlint:(?!-)")
EXPECT_RE = re.compile(r"xlint-expect:\s*(XL\d{3})")


def strip_comments(raw: str) -> tuple[str, list[tuple[int, str]]]:
    """Blanks comments and string/char literal contents while keeping the
    exact line structure. Returns (stripped_text, comment_texts) where
    comment_texts is [(line, text)] for suppression parsing."""
    out: list[str] = []
    comments: list[tuple[int, str]] = []
    i, n = 0, len(raw)
    line = 1
    state = "code"  # code | line_comment | block_comment | string | char
    comment_start_line = 1
    comment_buf: list[str] = []

    def blank(ch: str) -> str:
        return ch if ch == "\n" else " "

    while i < n:
        ch = raw[i]
        nxt = raw[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block_comment"
                comment_start_line = line
                comment_buf = []
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                # Raw strings: find the delimiter and skip to its end.
                if out and out[-1] == "R":
                    m = re.match(r'"([^\s()\\]{0,16})\(', raw[i:])
                    if m:
                        delim = ")" + m.group(1) + '"'
                        end = raw.find(delim, i + m.end())
                        if end != -1:
                            seg = raw[i : end + len(delim)]
                            out.append('"' + "".join(blank(c) for c in seg[1:-1]) + '"')
                            line += seg.count("\n")
                            i = end + len(delim)
                            continue
                state = "string"
                out.append(ch)
                i += 1
                continue
            if ch == "'":
                state = "char"
                out.append(ch)
                i += 1
                continue
            out.append(ch)
        elif state == "line_comment":
            if ch == "\n":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                out.append(ch)
            else:
                comment_buf.append(ch)
                out.append(" ")
        elif state == "block_comment":
            if ch == "*" and nxt == "/":
                comments.append((comment_start_line, "".join(comment_buf)))
                state = "code"
                out.append("  ")
                i += 2
                continue
            comment_buf.append(ch)
            out.append(blank(ch))
        elif state == "string":
            if ch == "\\":
                out.append("  ")
                i += 2
                if nxt == "\n":
                    line += 1
                    out[-1] = " \n"
                continue
            if ch == '"':
                state = "code"
                out.append(ch)
            else:
                out.append(blank(ch))
        elif state == "char":
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == "'":
                state = "code"
                out.append(ch)
            else:
                out.append(blank(ch))
        if ch == "\n":
            line += 1
        i += 1
    if state in ("line_comment", "block_comment") and comment_buf:
        comments.append((comment_start_line, "".join(comment_buf)))
    return "".join(out), comments


def parse_suppressions(
    comments: list[tuple[int, str]], known_slugs: set[str]
) -> tuple[list[Suppression], list[tuple[int, str]], list[tuple[int, str]]]:
    """Returns (suppressions, expects, syntax_errors)."""
    sups: list[Suppression] = []
    expects: list[tuple[int, str]] = []
    errors: list[tuple[int, str]] = []
    for line, text in comments:
        for m in EXPECT_RE.finditer(text):
            expects.append((line + text.count("\n", 0, m.start()), m.group(1)))
        matched_any = False
        for m in SUPPRESSION_RE.finditer(text):
            matched_any = True
            at = line + text.count("\n", 0, m.start())
            slug, reason = m.group(1), m.group(2).strip()
            if slug not in known_slugs:
                errors.append((at, f"unknown suppression rule '{slug}-ok'"))
            elif not reason:
                errors.append(
                    (at, f"suppression '{slug}-ok' needs a reason: {slug}-ok(<why>)")
                )
            else:
                sups.append(Suppression(at, slug, reason))
        if not matched_any and SUPPRESSION_ANY_RE.search(text) and "xlint-expect" not in text:
            at = line
            errors.append(
                (at, "malformed xlint directive; expected 'xlint: <rule>-ok(<reason>)'")
            )
    return sups, expects, errors


def match_brace(code: str, open_idx: int) -> int:
    """Index of the '}' matching code[open_idx] == '{', or -1."""
    depth = 0
    for i in range(open_idx, len(code)):
        c = code[i]
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


CLASS_RE = re.compile(
    r"\b(class|struct)\s+([A-Za-z_]\w*)\s*(?:final\s*)?(?::\s*([^{;]+?))?\s*\{"
)

# A function/method header directly before a '{'. Ctor init lists and
# trailing specifiers are absorbed by the tail group; control-flow
# keywords are filtered afterwards.
FUNC_HEAD_RE = re.compile(
    r"([A-Za-z_~]\w*(?:\s*::\s*[A-Za-z_~]\w*)*)\s*"  # name (possibly qualified)
    r"\(((?:[^(){};]|\([^(){};]*\))*)\)\s*"  # params (one nesting level)
    r"((?:const|noexcept|final|override|mutable|"
    r"->\s*[\w:<>,\s]+|:\s*[^{;}]*|\s)*)$",
    re.DOTALL,
)

NOT_FUNCTIONS = {
    "if",
    "for",
    "while",
    "switch",
    "catch",
    "return",
    "sizeof",
    "alignof",
    "decltype",
    "new",
    "delete",
    "static_assert",
    "requires",
    "do",
    "else",
    "try",
}

PURE_VIRTUAL_RE = re.compile(r"\)\s*(?:const\s*)?(?:noexcept\s*)?=\s*0\s*;")


def _find_functions(sf: SourceFile) -> None:
    code = sf.code
    for m in re.finditer(r"\{", code):
        open_idx = m.start()
        # Header candidate: text since the previous statement/brace end.
        head_start = max(
            code.rfind(";", 0, open_idx),
            code.rfind("{", 0, open_idx),
            code.rfind("}", 0, open_idx),
        )
        header = code[head_start + 1 : open_idx]
        fm = FUNC_HEAD_RE.search(header)
        if not fm:
            continue
        name_tok = re.sub(r"\s", "", fm.group(1))
        parts = name_tok.split("::")
        name = parts[-1]
        if name in NOT_FUNCTIONS or parts[0] in NOT_FUNCTIONS:
            continue
        # Init-list tails only follow constructors; `name(args) : x(1) {`
        # with a non-ctor-looking header is a range-for or bitfield misfire.
        close = match_brace(code, open_idx)
        if close == -1:
            continue
        qualifier = parts[-2] if len(parts) >= 2 else ""
        body = code[open_idx + 1 : close]
        sf.functions.append(
            FunctionInfo(
                name=name,
                qualifier=qualifier,
                start_line=sf.line_of(open_idx),
                end_line=sf.line_of(close),
                body=body,
                signature=" ".join(header.split()),
            )
        )


MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+)*"
    r"((?:const\s+)?[A-Za-z_][\w:]*(?:\s*<[^;={}]*>)?(?:\s*[*&])*)\s+"
    r"([A-Za-z_]\w*)\s*(?:=[^;]*|\{[^;]*\})?;"
)


def _find_classes(sf: SourceFile) -> None:
    code = sf.code
    for m in CLASS_RE.finditer(code):
        open_idx = m.end() - 1
        close = match_brace(code, open_idx)
        if close == -1:
            continue
        ci = ClassInfo(
            name=m.group(2),
            bases=(m.group(3) or "").strip(),
            start_line=sf.line_of(m.start()),
            end_line=sf.line_of(close),
        )
        body = code[open_idx + 1 : close]
        ci.has_pure_virtual = PURE_VIRTUAL_RE.search(body) is not None
        # Methods: functions nested inside this extent (innermost class wins
        # is resolved by attach_methods below).
        ci._extent = (sf.line_of(open_idx), sf.line_of(close))  # type: ignore[attr-defined]
        # Member declarations: class-body lines outside nested braces.
        depth = 0
        for line_off, line_text in _body_lines(body, sf.line_of(open_idx)):
            if depth == 0:
                mm = MEMBER_RE.match(line_text)
                if mm and "(" not in mm.group(1):
                    type_text = " ".join(mm.group(1).split())
                    if type_text not in ("return", "using", "typedef", "friend"):
                        ci.members.append((line_off, type_text, mm.group(2)))
            depth += line_text.count("{") - line_text.count("}")
            depth = max(depth, 0)
        sf.classes.append(ci)


def _body_lines(body: str, first_line: int):
    for k, text in enumerate(body.split("\n")):
        yield first_line + k, text


def _attach_methods(sf: SourceFile) -> None:
    """Assigns each function to the innermost class whose extent contains
    it (in-class definitions) or whose name matches its qualifier
    (out-of-line definitions)."""
    by_name: dict[str, list[ClassInfo]] = {}
    for ci in sf.classes:
        by_name.setdefault(ci.name, []).append(ci)
    for fn in sf.functions:
        owner: ClassInfo | None = None
        for ci in sf.classes:
            if ci.start_line <= fn.start_line and fn.end_line <= ci.end_line:
                if owner is None or (
                    ci.start_line >= owner.start_line and ci.end_line <= owner.end_line
                ):
                    owner = ci
        if owner is None and fn.qualifier and fn.qualifier in by_name:
            owner = by_name[fn.qualifier][0]
        if owner is not None:
            fn.qualifier = owner.name
            # First definition wins; overloads merge their bodies so
            # reachability sees every variant.
            if fn.name in owner.methods:
                owner.methods[fn.name].body += "\n" + fn.body
            else:
                owner.methods[fn.name] = fn


def build_regex_model(path: str, raw: str, known_slugs: set[str]) -> SourceFile:
    code, comments = strip_comments(raw)
    sf = SourceFile(path=path, raw=raw, code=code)
    sups, expects, errors = parse_suppressions(comments, known_slugs)
    sf.suppressions = sups
    sf.expects = expects
    sf.syntax_errors = errors  # type: ignore[attr-defined]
    _find_functions(sf)
    _find_classes(sf)
    _attach_methods(sf)
    return sf
