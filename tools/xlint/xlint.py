#!/usr/bin/env python3
"""xlint — determinism & kernel-contract static analysis for this repo.

Runs project-specific checks (tools/xlint/checks.py) over the C++ under
src/ and tools/ on the source model tools/xlint/model.py builds. Zero
third-party dependencies.

    python3 tools/xlint/xlint.py                  # lint src/ + tools/ (tree mode)
    python3 tools/xlint/xlint.py FILE...          # lint specific files
    python3 tools/xlint/xlint.py --json report.json
    python3 tools/xlint/xlint.py --list-checks

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
See docs/LINTING.md for the rule catalogue, the suppression grammar and
the dynamic tests that backstop each check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if __package__ in (None, ""):  # direct script invocation
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from xlint.checks import KNOWN_SLUGS, RULES, Analyzer
    from xlint.model import build_regex_model
else:
    from .checks import KNOWN_SLUGS, RULES, Analyzer
    from .model import build_regex_model

CXX_EXTENSIONS = (".cpp", ".hpp", ".cc", ".h")


def repo_root() -> str:
    return os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# Tree mode: the library and the CLI tools (whose flag parsing XL402
# holds to the same number grammar as the file formats).
TREE_DIRS = ("src", "tools")


def default_targets(root: str) -> list[str]:
    out: list[str] = []
    for tree in TREE_DIRS:
        for base, _dirs, names in os.walk(os.path.join(root, tree)):
            for name in sorted(names):
                if name.endswith(CXX_EXTENSIONS):
                    out.append(os.path.join(base, name))
    return sorted(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="xlint", description=__doc__.splitlines()[0]
    )
    parser.add_argument("files", nargs="*", help="files to lint (default: src/ and tools/)")
    parser.add_argument("--json", dest="json_out", help="also write findings as JSON")
    parser.add_argument(
        "--list-checks", action="store_true", help="print the rule catalogue and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the summary line"
    )
    args = parser.parse_args(argv)

    if args.list_checks:
        for rule, (slug, desc) in sorted(RULES.items()):
            sup = f"{slug}-ok(<reason>)" if slug else "(not suppressible)"
            print(f"{rule}  {desc}  [{sup}]")
        return 0

    root = repo_root()
    targets = [os.path.abspath(f) for f in args.files] or default_targets(root)
    missing = [t for t in targets if not os.path.exists(t)]
    if missing:
        print(f"xlint: no such file: {missing[0]}", file=sys.stderr)
        return 2

    models = []
    for path in targets:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        models.append(build_regex_model(rel, raw, KNOWN_SLUGS))

    findings = Analyzer(models).run()
    for finding in findings:
        print(finding.render())
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "files_scanned": len(models),
                    "findings": [
                        {
                            "path": x.path,
                            "line": x.line,
                            "rule": x.rule,
                            "message": x.message,
                        }
                        for x in findings
                    ],
                },
                f,
                indent=2,
            )
            f.write("\n")
    if not args.quiet:
        print(
            f"xlint: {len(findings)} finding(s) in {len(models)} file(s)",
            file=sys.stderr,
        )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
