"""xlint's project-specific checks.

Every check encodes an invariant the dynamic test suite enforces after
the fact (docs/LINTING.md maps each rule to its backstop):

  determinism          XL101 unordered-iter, XL102 pointer-order,
                       XL103 unstable-sort, XL104 banned-call
  module contract      XL201 missing-next-event, XL202 claim-state-coupling,
                       XL203 blind-next-event
  signal discipline    XL301 write-outside-tick, XL302 watcher-budget,
                       XL303 signal-handle
  format stability     XL401 raw-float-export, XL402 stray-number-parse
  suppression hygiene  XL000 suppression-syntax, XL001 unused-suppression

Checks consume only the SourceFile models that model.py builds; they
never re-read source text.
"""

from __future__ import annotations

import re

from .model import ClassInfo, Finding, FunctionInfo, SourceFile

# Rule id -> (suppression slug, one-line description).
RULES: dict[str, tuple[str, str]] = {
    "XL000": ("", "malformed xlint suppression directive"),
    "XL001": ("", "suppression never matched a finding (stale)"),
    "XL101": ("unordered", "iteration over an unordered container"),
    "XL102": ("pointer-order", "pointer values used as an ordering key"),
    "XL103": ("sort", "std::sort with a single-key comparator (tie order unspecified)"),
    "XL104": ("banned", "wall-clock/env/libc-rng call on a simulation path"),
    "XL201": ("idle", "concrete sim::Module subclass without a next_event() override"),
    "XL202": ("idle", "next_event() reads none of the state tick() advances"),
    "XL203": ("next-event", "time-driven module whose next_event() never names a wake cycle"),
    "XL301": ("write", "Signal write outside a tick()/exchange()-reachable path"),
    "XL302": ("watch", "more than two static watch() registrations on one wire"),
    "XL303": ("signal-handle", "raw Signal handle stored in a module outside the CutLink seam"),
    "XL401": ("float", "raw float reaches a CSV/JSON emitter without fmt_double/hex_double"),
    "XL402": ("parse", "number parsing outside the shared text front end (src/common/text.cpp)"),
}

KNOWN_SLUGS = {slug for slug, _ in RULES.values() if slug}

# Files whose Signal::write sites ARE the protocol seam: the Signal
# definition itself, the stream endpoint wrappers, and the link protocol
# engines (their begin_cycle/send/end_cycle contract is only callable
# from an owning module's tick path by construction — DESIGN.md §2).
WRITE_SEAM_FILES = (
    "src/sim/kernel.hpp",
    "src/sim/stream.hpp",
    "src/link/goback_n.hpp",
    "src/link/goback_n.cpp",
    "src/link/credit.hpp",
    "src/link/credit.cpp",
    "src/link/flow.hpp",
    "src/link/flow.cpp",
    "src/link/cut.hpp",
    "src/link/cut.cpp",
)

# The one sanctioned home for cross-partition signal handles (DESIGN.md
# §10); everywhere else a stored raw Signal pointer/reference needs a
# signal-handle-ok(<reason>) annotation.
SIGNAL_HANDLE_SEAM_FILES = (
    "src/link/cut.hpp",
    "src/link/cut.cpp",
)

# Functions whose output must be byte-stable across platforms: CSV/JSON
# exporters and the canonical spec/checkpoint writers.
EMITTER_RE = re.compile(r"(?i)csv|json|checkpoint|canonical|^write_(sweep|tune|noc|spec)$")

# Entry points of the sanctioned mutation phases: Module::tick and
# CutChannel::exchange (the epoch-barrier replay).
WRITE_ROOTS = ("tick", "exchange")

# The one sanctioned home for text-to-number conversion: every file
# format reads numbers through its parse_u64/parse_f64 grammar.
NUMBER_PARSE_FILES = ("src/common/text.cpp",)

NUMBER_PARSE_RE = re.compile(
    r"\bstd::sto(?:i|l|ll|ul|ull|f|d|ld)\s*\(|"
    r"\b(?:std::)?strto(?:l|ll|ul|ull|f|d|ld|imax|umax)\s*\(|"
    r"\b(?:std::)?ato(?:i|l|ll|f)\s*\(|\bfrom_chars\s*\("
)

BANNED_CALL_RE = re.compile(
    r"\bstd::rand\b|\brand\s*\(|\bsrand\s*\(|\bstd::getenv\b|\bgetenv\s*\(|"
    r"\btime\s*\(|\bclock\s*\(|\bstd::random_device\b|\brandom_device\s"
)

UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set|multimap|multiset)\s*<")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# Members whose names advertise a self-scheduled future cycle. A module
# that tracks one of these and whose next_event() can only say kNever or
# now + 1 can sleep under the time-leap scheduler past the very cycle
# the member names.
DUE_MEMBER_RE = re.compile(r"(?:^|_)(?:due|deadline)s?(?:_|$)")

RETURN_RE = re.compile(r"\breturn\b([^;]*);")

# A next_event() answer that names no wake cycle: kNever, or an
# identifier plus one (the parameter; a member plus one is a due cycle).
BLIND_LEAF_RE = re.compile(r"(?:sim::)?kNever|(?P<now>[A-Za-z_]\w*)\s*\+\s*1")

# A read of the kernel clock (Kernel::cycle()); begin_cycle()/end_cycle()
# don't match — `_` is a word character, so \b stops at the prefix.
CYCLE_READ_RE = re.compile(r"\bcycle\s*\(\s*\)")

# A clock read that is the whole argument of a link sender's
# begin_cycle(now): the credit sender only catches up its stall count in
# closed form there, so it names no deadline to sleep on.
BEGIN_CYCLE_CLOCK_RE = re.compile(
    r"\bbegin_cycle\s*\(\s*(?:\w+\s*(?:\(\s*\))?\s*(?:\.|->)\s*)*"
    r"cycle\s*\(\s*\)\s*\)"
)

FLOAT_DECL_RE = re.compile(r"\b(?:double|float)\s+([A-Za-z_]\w*)\s*(?:[;=,)\{]|$)", re.M)
INT_DECL_RE = re.compile(
    r"\b(?:std::)?(?:u?int\d+_t|size_t|int|long|unsigned|short|bool|char)\s+"
    r"([A-Za-z_]\w*)\s*(?:[;=,)\{]|$)",
    re.M,
)


def _module_classes(sf: SourceFile) -> list[ClassInfo]:
    return [ci for ci in sf.classes if re.search(r"\bModule\b", ci.bases)]


def _body_line(fn: FunctionInfo, offset: int) -> int:
    return fn.start_line + fn.body.count("\n", 0, offset)


def _enclosing_function(sf: SourceFile, line: int) -> FunctionInfo | None:
    best: FunctionInfo | None = None
    for fn in sf.functions:
        if fn.start_line <= line <= fn.end_line:
            if best is None or fn.start_line >= best.start_line:
                best = fn
    return best


class MergedClass:
    """One logical class: declarations and out-of-line definitions merged
    across translation units (hpp declaration + cpp bodies)."""

    def __init__(self, name: str):
        self.name = name
        self.bases = ""
        self.members: list[tuple[str, str, int, str]] = []  # (file, type, line, name)
        self.methods: dict[str, str] = {}  # name -> concatenated bodies
        self.method_sites: dict[str, tuple[str, int]] = {}
        self.has_pure_virtual = False
        self.decl_site: tuple[str, int] | None = None

    def tick_reachable(self) -> set[str]:
        """Method names reachable from the sanctioned mutation roots via
        same-class calls."""
        reach: set[str] = set()
        work = [r for r in WRITE_ROOTS if r in self.methods]
        while work:
            m = work.pop()
            if m in reach:
                continue
            reach.add(m)
            for callee in re.findall(r"\b([A-Za-z_]\w*)\s*\(", self.methods[m]):
                if callee in self.methods and callee not in reach:
                    work.append(callee)
        return reach


class Analyzer:
    def __init__(self, files: list[SourceFile]):
        self.files = files
        self.findings: list[Finding] = []
        self.merged: dict[str, MergedClass] = {}
        self.float_names: set[str] = set()
        self._merge_classes()
        self._collect_float_names()

    # ------------------------------------------------------------ setup

    def _merge_classes(self) -> None:
        # Two passes: declarations first, then out-of-line definitions —
        # a .cpp can sort before the .hpp that declares its class.
        for sf in self.files:
            for ci in sf.classes:
                mc = self.merged.setdefault(ci.name, MergedClass(ci.name))
                if ci.bases:
                    mc.bases = ci.bases
                    mc.decl_site = (sf.path, ci.start_line)
                mc.has_pure_virtual |= ci.has_pure_virtual
                for line, type_text, name in ci.members:
                    mc.members.append((sf.path, type_text, line, name))
                for name, fn in ci.methods.items():
                    mc.methods[name] = mc.methods.get(name, "") + "\n" + fn.body
                    mc.method_sites.setdefault(name, (sf.path, fn.start_line))
        for sf in self.files:
            for fn in sf.functions:
                if fn.qualifier and fn.qualifier in self.merged:
                    mc = self.merged[fn.qualifier]
                    if fn.name not in mc.methods or fn.body not in mc.methods[fn.name]:
                        mc.methods[fn.name] = mc.methods.get(fn.name, "") + "\n" + fn.body
                        mc.method_sites.setdefault(fn.name, (sf.path, fn.start_line))

    def _collect_float_names(self) -> None:
        floats: set[str] = set()
        ints: set[str] = set()
        for sf in self.files:
            floats.update(FLOAT_DECL_RE.findall(sf.code))
            ints.update(INT_DECL_RE.findall(sf.code))
        # A name declared with both widths somewhere in the tree is
        # ambiguous under regex typing; skip it rather than false-flag.
        self.float_names = floats - ints

    # ------------------------------------------------------------ driver

    def run(self) -> list[Finding]:
        for sf in self.files:
            self._check_suppression_syntax(sf)
            self._check_unordered_iter(sf)
            self._check_pointer_order(sf)
            self._check_unstable_sort(sf)
            self._check_banned_calls(sf)
            self._check_signal_writes(sf)
            self._check_watcher_budget(sf)
            self._check_signal_handles(sf)
            self._check_float_exports(sf)
            self._check_number_parsing(sf)
        self._check_module_contracts()
        for sf in self.files:
            for sup in sf.suppressions:
                if not sup.used:
                    self._emit(
                        sf,
                        sup.line,
                        "XL001",
                        f"suppression '{sup.rule_slug}-ok' matched no finding — remove it",
                        suppressible=False,
                    )
        self.findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return self.findings

    def _emit(
        self,
        sf: SourceFile,
        line: int,
        rule: str,
        message: str,
        suppressible: bool = True,
    ) -> None:
        slug = RULES[rule][0]
        if suppressible and slug and sf.suppressed(line, slug):
            return
        self.findings.append(Finding(sf.path, line, rule, message))

    # ------------------------------------------------------------ checks

    def _check_suppression_syntax(self, sf: SourceFile) -> None:
        for line, msg in getattr(sf, "syntax_errors", []):
            self._emit(sf, line, "XL000", msg, suppressible=False)

    def _unordered_names(self, sf: SourceFile) -> set[str]:
        names: set[str] = set()
        for ci in sf.classes:
            for _line, type_text, name in ci.members:
                if UNORDERED_DECL_RE.search(type_text):
                    names.add(name)
        for m in re.finditer(
            r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+([A-Za-z_]\w*)",
            sf.code,
        ):
            names.add(m.group(1))
        return names

    def _check_unordered_iter(self, sf: SourceFile) -> None:
        names = self._unordered_names(sf)
        if not names:
            return
        pat = "|".join(re.escape(n) for n in sorted(names))
        # Range-for over the container (optionally through an object path)
        # or an explicit iterator walk from begin()/cbegin().
        for m in re.finditer(
            rf"for\s*\([^;()]*?:\s*(?:[\w.\->]+[.\->])?({pat})\s*\)"
            rf"|\b({pat})\s*\.\s*c?begin\s*\(",
            sf.code,
        ):
            line = sf.line_of(m.start())
            name = m.group(1) or m.group(2)
            self._emit(
                sf,
                line,
                "XL101",
                f"iteration over unordered container '{name}': order is "
                "implementation-defined and can leak into stats/exports — iterate a "
                "sorted copy or annotate unordered-ok(<why order cannot escape>)",
            )

    def _check_pointer_order(self, sf: SourceFile) -> None:
        for m in re.finditer(r"\bstd::(?:map|set|multimap|multiset)\s*<\s*[\w:]+\s*\*", sf.code):
            self._emit(
                sf,
                sf.line_of(m.start()),
                "XL102",
                "ordered container keyed by pointer values: iteration order tracks "
                "allocation addresses, not program state — key by a stable id",
            )
        ptr_vecs = {
            m.group(1)
            for m in re.finditer(r"\bvector\s*<\s*[\w:]+\s*\*\s*>\s+([A-Za-z_]\w*)", sf.code)
        }
        if ptr_vecs:
            pat = "|".join(re.escape(n) for n in sorted(ptr_vecs))
            for m in re.finditer(rf"\bstd::sort\s*\(\s*({pat})\s*\.\s*begin", sf.code):
                self._emit(
                    sf,
                    sf.line_of(m.start()),
                    "XL102",
                    f"std::sort over pointer vector '{m.group(1)}' orders by address "
                    "unless the comparator projects a stable key",
                )

    SORT_CALL_RE = re.compile(r"\bstd::sort\s*\(")

    def _check_unstable_sort(self, sf: SourceFile) -> None:
        for m in self.SORT_CALL_RE.finditer(sf.code):
            # Extract the full argument list (balanced parens).
            depth = 0
            start = m.end() - 1
            end = -1
            for i in range(start, len(sf.code)):
                if sf.code[i] == "(":
                    depth += 1
                elif sf.code[i] == ")":
                    depth -= 1
                    if depth == 0:
                        end = i
                        break
            if end == -1:
                continue
            args = sf.code[start + 1 : end]
            lam = re.search(
                r"\[[^\]]*\]\s*\(([^)]*)\)\s*(?:->\s*\w+\s*)?\{\s*return\s+([^;]+);\s*\}",
                args,
                re.DOTALL,
            )
            if not lam:
                continue
            params = [
                p.split()[-1].lstrip("*&")
                for p in lam.group(1).split(",")
                if p.strip()
            ]
            if len(params) != 2:
                continue
            expr = " ".join(lam.group(2).split())
            if "||" in expr or "&&" in expr:
                continue  # comparator already carries a tie-break
            cm = re.match(r"^(.*?)\s*([<>])\s*(.*)$", expr)
            if not cm:
                continue
            a, b = params
            swapped = re.sub(
                rf"\b({re.escape(a)}|{re.escape(b)})\b",
                lambda t: b if t.group(1) == a else a,
                cm.group(3),
            )
            if swapped.strip() == cm.group(1).strip():
                self._emit(
                    sf,
                    sf.line_of(m.start()),
                    "XL103",
                    "std::sort with a single-key comparator leaves tie order "
                    "unspecified (and stdlib-dependent) — use std::stable_sort, add a "
                    "total tie-break, or annotate sort-ok(<why ties cannot occur>)",
                )

    def _check_banned_calls(self, sf: SourceFile) -> None:
        for m in BANNED_CALL_RE.finditer(sf.code):
            self._emit(
                sf,
                sf.line_of(m.start()),
                "XL104",
                f"'{m.group(0).strip()}' is nondeterministic across runs/hosts; "
                "simulation state must derive from common/rng.hpp seeds and "
                "explicit configuration — annotate banned-ok(<reason>) only on "
                "non-simulation seams",
            )

    def _check_number_parsing(self, sf: SourceFile) -> None:
        if sf.path.endswith(NUMBER_PARSE_FILES):
            return
        for m in NUMBER_PARSE_RE.finditer(sf.code):
            self._emit(
                sf,
                sf.line_of(m.start()),
                "XL402",
                f"'{m.group(0).rstrip('( ')}' parses a number outside "
                "src/common/text.cpp — use text::parse_u64/parse_f64 (one "
                "grammar, a mandatory range) or annotate parse-ok(<reason>)",
            )

    def _check_signal_writes(self, sf: SourceFile) -> None:
        if sf.path.endswith(WRITE_SEAM_FILES):
            return
        for m in re.finditer(r"(?:\.|->)\s*write\s*\(", sf.code):
            line = sf.line_of(m.start())
            fn = _enclosing_function(sf, line)
            if fn is None:
                self._emit(
                    sf, line, "XL301",
                    "Signal write at namespace scope cannot be tick-ordered",
                )
                continue
            mc = self.merged.get(fn.qualifier) if fn.qualifier else None
            if mc is not None and fn.name in mc.tick_reachable():
                continue
            where = f"{fn.qualifier}::{fn.name}" if fn.qualifier else fn.name
            self._emit(
                sf,
                line,
                "XL301",
                f"Signal write in '{where}', which is not reachable from tick() or "
                "exchange(): out-of-phase writes bypass the two-phase commit and "
                "break scheduler equivalence — move it into the tick path or "
                "annotate write-ok(<reason>)",
            )

    def _check_watcher_budget(self, sf: SourceFile) -> None:
        sites: dict[tuple[str, str], list[int]] = {}
        for m in re.finditer(r"([\w\]]+(?:(?:\.|->)[\w\[\]]+)*)\s*(?:\.|->)\s*watch\s*\(", sf.code):
            line = sf.line_of(m.start())
            fn = _enclosing_function(sf, line)
            scope = fn.qualifier if fn is not None and fn.qualifier else sf.path
            sites.setdefault((scope, m.group(1)), []).append(line)
        for (scope, expr), lines in sorted(sites.items()):
            if len(lines) > 2:
                self._emit(
                    sf,
                    lines[2],
                    "XL302",
                    f"wire '{expr}' is watched {len(lines)} times in {scope}; "
                    "Signal has exactly two watcher slots (consumer + passive "
                    "observer) and the third registration asserts at runtime",
                )

    def _check_signal_handles(self, sf: SourceFile) -> None:
        if sf.path.endswith(SIGNAL_HANDLE_SEAM_FILES):
            return
        for ci in _module_classes(sf):
            for line, type_text, name in ci.members:
                if re.search(r"\bSignal\s*<", type_text) and type_text.rstrip().endswith(
                    ("*", "&")
                ):
                    self._emit(
                        sf,
                        line,
                        "XL303",
                        f"module '{ci.name}' stores raw signal handle '{name}': "
                        "cross-module signal sharing belongs to the link::CutLink "
                        "shims (or an annotated passive observer) — "
                        "signal-handle-ok(<reason>)",
                    )

    def _check_float_exports(self, sf: SourceFile) -> None:
        for fn in sf.functions:
            if not EMITTER_RE.search(fn.name):
                continue
            local_floats = set(FLOAT_DECL_RE.findall(fn.body)) | self.float_names
            for m in re.finditer(
                r"<<\s*(?:"
                r"(?P<lit>[0-9]+\.[0-9]*(?:[eE][-+]?[0-9]+)?[fF]?|\.[0-9]+|[0-9]+[eE][-+]?[0-9]+)"
                r"|(?P<path>(?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*[A-Za-z_]\w*)(?!\s*[(\w])"
                r")",
                fn.body,
            ):
                line = _body_line(fn, m.start())
                if m.group("lit"):
                    self._emit(
                        sf,
                        line,
                        "XL401",
                        f"float literal streamed raw in emitter '{fn.name}': iostream "
                        "float formatting is locale/width-unstable — route through "
                        "fmt_double()/hex_double()",
                    )
                    continue
                tail = re.split(r"\.|->|::", re.sub(r"\s", "", m.group("path")))[-1]
                if tail in local_floats:
                    self._emit(
                        sf,
                        line,
                        "XL401",
                        f"'{m.group('path').strip()}' is float-typed and streamed raw "
                        f"in emitter '{fn.name}' — wrap it in fmt_double() or "
                        "hex_double() (or annotate float-ok(<reason>))",
                    )
            for m in re.finditer(
                r"\bstd::to_string\s*\(\s*((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*[A-Za-z_]\w*)\s*\)",
                fn.body,
            ):
                tail = re.split(r"\.|->|::", re.sub(r"\s", "", m.group(1)))[-1]
                if tail in local_floats:
                    self._emit(
                        sf,
                        _body_line(fn, m.start()),
                        "XL401",
                        f"std::to_string on float '{m.group(1).strip()}' in emitter "
                        f"'{fn.name}' is precision-lossy and locale-adjacent — use "
                        "fmt_double()/hex_double()",
                    )

    def _check_module_contracts(self) -> None:
        file_by_path = {sf.path: sf for sf in self.files}
        for mc in self.merged.values():
            if not re.search(r"\bModule\b", mc.bases) or mc.has_pure_virtual:
                continue
            if mc.decl_site is None:
                continue
            sf = file_by_path[mc.decl_site[0]]
            # Declaration-only overrides (defined out of line in a file not
            # scanned) still count via the declaration text.
            decl_ci = next(c for c in sf.classes if c.name == mc.name)
            extent = "\n".join(
                sf.code_lines()[decl_ci.start_line - 1 : decl_ci.end_line]
            )
            if "next_event" not in mc.methods:
                if not re.search(r"\bnext_event\s*\(", extent):
                    self._emit(
                        sf,
                        mc.decl_site[1],
                        "XL201",
                        f"module '{mc.name}' never overrides next_event(): the "
                        "default (now + 1) keeps it awake every cycle, and DESIGN.md "
                        "§2 requires an explicit quiescence claim for every concrete "
                        "module — override it (return now + 1 is an acceptable "
                        "claim) or annotate idle-ok(<reason>)",
                    )
                continue
            member_names = {name for _f, _t, _l, name in mc.members}
            claim_tokens = set(IDENT_RE.findall(mc.methods["next_event"]))
            reach_tokens: set[str] = set()
            for name in mc.tick_reachable():
                reach_tokens.update(IDENT_RE.findall(mc.methods[name]))
            coupled = claim_tokens & member_names & reach_tokens
            if not coupled and mc.tick_reachable():
                path, line = mc.method_sites.get("next_event", mc.decl_site)
                self._emit(
                    file_by_path.get(path, sf),
                    line,
                    "XL202",
                    f"'{mc.name}::next_event' references none of the members its "
                    "tick path touches: a quiescence claim decoupled from the state "
                    "it guards rots silently (kernel_equiv/quiescence tests catch "
                    "it only dynamically) — read the state it guards or annotate "
                    "idle-ok(<reason>)",
                )
            self._check_next_event(mc, sf, member_names, file_by_path)

    def _check_next_event(
        self,
        mc: MergedClass,
        sf: SourceFile,
        member_names: set[str],
        file_by_path: dict[str, SourceFile],
    ) -> None:
        """XL203: a time-driven module — its tick path reads the kernel
        clock, or it tracks a due/deadline member — whose next_event()
        can only answer kNever or now + 1. Under the time-leap scheduler
        a module that said kNever is revisited only on a signal wake; a
        time-driven one must name the cycle it waits for instead, or it
        oversleeps the very cycle its state names, and only the
        differential suite would catch it — dynamically, per scenario.
        A clock read that is the whole argument of begin_cycle(...) does
        not count: it feeds a link sender's stall catch-up, no deadline."""
        if not _names_no_wake(mc.methods["next_event"], member_names):
            return
        reach = mc.tick_reachable()
        if not reach:
            return
        reads_clock = any(
            CYCLE_READ_RE.search(BEGIN_CYCLE_CLOCK_RE.sub("", mc.methods[m]))
            for m in reach
        )
        due_member = next(
            (
                (path, line, name)
                for path, _type, line, name in mc.members
                if DUE_MEMBER_RE.search(name)
            ),
            None,
        )
        if not reads_clock and due_member is None:
            return
        if reads_clock:
            path, line = mc.method_sites.get("next_event", mc.decl_site)
            why = "reads Kernel::cycle() on its tick path"
            if due_member is not None:
                why += f" and holds due/deadline member '{due_member[2]}'"
        else:
            path, line, name = due_member
            why = f"holds due/deadline member '{name}'"
        self._emit(
            file_by_path.get(path, sf),
            line,
            "XL203",
            f"module '{mc.name}' {why}, but its next_event() only answers "
            "kNever or now + 1: the time-leap scheduler revisits a module "
            "that said kNever only on a signal wake, so a time-driven one "
            "oversleeps its own deadline — return the wake cycle "
            "(sim::Module::next_event contract, src/sim/kernel.hpp) or "
            "annotate next-event-ok(<reason>)",
        )


def _names_no_wake(body: str, members: set[str]) -> bool:
    """True when every answer next_event() `body` can return is kNever or
    the parameter plus one, and kNever is one of them: the claim can put
    the module to sleep but never says when to wake it."""
    leaves: list[str] = []
    for expr in RETURN_RE.findall(body):
        _cond, question, branches = expr.partition("?")
        # `c ? a : b` answers a or b; `::` is scope, not the ternary colon.
        leaves += re.split(r"(?<!:):(?!:)", branches) if question else [expr]
    blind = [BLIND_LEAF_RE.fullmatch(leaf.strip()) for leaf in leaves]
    if not blind or any(m is None or m.group("now") in members for m in blind):
        return False
    return any(m.group("now") is None for m in blind)
