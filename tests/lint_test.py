#!/usr/bin/env python3
"""Fixture suite for tools/xlint (registered in ctest as lint_test).

Three guarantees, per ISSUE/docs/LINTING.md:

  1. Every custom check FIRES: each seeded-violation fixture under
     tests/lint_fixtures/ carries `// xlint-expect: XLnnn` markers, and
     the analyzer's findings must match the marker set exactly — a
     marker matches a finding on its own line (trailing comment) or on
     the line below (stand-alone marker above the offence, mirroring the
     suppression grammar).
  2. Every check stays SILENT on conforming code: the clean twins (and
     the cross-file merge pair) must produce zero findings, which also
     proves that used suppressions do not decay into XL001.
  3. The real tree passes clean: xlint over src/ and tools/ exits 0.

The analyzer has no third-party dependency, so the suite is hermetic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import unittest

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS_DIR)
sys.path.insert(0, os.path.join(ROOT, "tools"))

from xlint.checks import KNOWN_SLUGS, RULES, Analyzer  # noqa: E402
from xlint.model import build_regex_model  # noqa: E402

FIXTURES = os.path.join(TESTS_DIR, "lint_fixtures")
XLINT = os.path.join(ROOT, "tools", "xlint", "xlint.py")

BAD_FIXTURES = (
    "bad_determinism.cpp",
    "bad_module.cpp",
    "bad_signals.cpp",
    "bad_export.cpp",
    "bad_parse.cpp",
    "bad_cli_flags.cpp",
    "bad_suppressions.cpp",
)
CLEAN_FIXTURES = (
    "clean_determinism.cpp",
    "clean_module.cpp",
    "clean_parse.cpp",
    "clean_cli_flags.cpp",
)
MERGE_FIXTURES = ("merge_a_impl.cpp", "merge_z_decl.hpp")  # order matters


def analyze(names):
    """Runs the analyzer over the named fixtures (in the given order) and
    returns ([(file, line, rule)], [(file, line, rule)]) for findings and
    expect markers."""
    models = []
    for name in names:
        path = os.path.join(FIXTURES, name)
        with open(path, encoding="utf-8") as f:
            raw = f.read()
        rel = os.path.relpath(path, ROOT).replace(os.sep, "/")
        models.append(build_regex_model(rel, raw, KNOWN_SLUGS))
    findings = Analyzer(models).run()
    found = [(os.path.basename(f.path), f.line, f.rule) for f in findings]
    expected = [
        (os.path.basename(m.path), line, rule)
        for m in models
        for line, rule in m.expects
    ]
    return found, expected


class FixtureCase(unittest.TestCase):
    maxDiff = None

    def assert_matches_expects(self, names):
        found, expected = analyze(names)
        remaining = list(found)
        for file, line, rule in expected:
            hit = next(
                (
                    f
                    for f in remaining
                    if f[0] == file and f[2] == rule and f[1] in (line, line + 1)
                ),
                None,
            )
            self.assertIsNotNone(
                hit,
                f"expected {rule} at {file}:{line} (or :{line + 1}) did not "
                f"fire; findings left: {remaining}",
            )
            remaining.remove(hit)
        self.assertEqual(
            remaining, [], "findings not covered by any xlint-expect marker"
        )

    def test_determinism_checks_fire(self):
        self.assert_matches_expects(["bad_determinism.cpp"])

    def test_module_contract_checks_fire(self):
        self.assert_matches_expects(["bad_module.cpp"])

    def test_signal_discipline_checks_fire(self):
        self.assert_matches_expects(["bad_signals.cpp"])

    def test_export_stability_check_fires(self):
        self.assert_matches_expects(["bad_export.cpp"])

    def test_number_parsing_check_fires(self):
        self.assert_matches_expects(["bad_parse.cpp"])

    def test_cli_flag_parsing_check_fires(self):
        self.assert_matches_expects(["bad_cli_flags.cpp"])

    def test_suppression_hygiene_checks_fire(self):
        self.assert_matches_expects(["bad_suppressions.cpp"])

    def test_clean_twins_stay_silent(self):
        found, expected = analyze(CLEAN_FIXTURES)
        self.assertEqual(expected, [], "clean fixtures must carry no markers")
        self.assertEqual(found, [], "clean fixtures produced findings")

    def test_cross_file_merge_attaches_out_of_line_bodies(self):
        # The .cpp sorts (and is analyzed) before the .hpp that declares
        # the class; the two-pass merge must still see Relay::forward as
        # tick-reachable, so the write in it stays silent.
        found, _ = analyze(list(MERGE_FIXTURES))
        self.assertEqual(found, [], "out-of-line tick body was dropped")

    def test_every_rule_has_a_firing_fixture(self):
        covered = set()
        for name in BAD_FIXTURES:
            _, expected = analyze([name])
            covered |= {rule for _f, _l, rule in expected}
        self.assertEqual(
            covered,
            set(RULES),
            "every rule in the catalogue needs a seeded fixture that fires it",
        )


class CliCase(unittest.TestCase):
    def run_xlint(self, *args):
        return subprocess.run(
            [sys.executable, XLINT, *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )

    def test_real_tree_is_clean(self):
        proc = self.run_xlint("-q")
        self.assertEqual(
            proc.returncode,
            0,
            f"src/ or tools/ has findings:\n{proc.stdout}{proc.stderr}",
        )
        self.assertEqual(proc.stdout, "")

    def test_tree_mode_covers_the_cli_tools(self):
        with tempfile.TemporaryDirectory() as tmp:
            report = os.path.join(tmp, "report.json")
            proc = self.run_xlint("-q", "--json", report)
            self.assertEqual(proc.returncode, 0, proc.stdout)
            with open(report, encoding="utf-8") as f:
                scanned = json.load(f)["files_scanned"]
        tools = [
            name
            for name in os.listdir(os.path.join(ROOT, "tools"))
            if name.endswith((".cpp", ".hpp"))
        ]
        src = sum(
            name.endswith((".cpp", ".hpp"))
            for _base, _dirs, names in os.walk(os.path.join(ROOT, "src"))
            for name in names
        )
        self.assertIn("xsweep.cpp", tools)
        self.assertEqual(scanned, src + len(tools))

    def test_seeded_violation_fails_the_gate(self):
        proc = self.run_xlint(os.path.join(FIXTURES, "bad_determinism.cpp"))
        self.assertEqual(proc.returncode, 1)
        self.assertIn("XL103", proc.stdout)

    def test_missing_file_is_a_usage_error(self):
        proc = self.run_xlint(os.path.join(FIXTURES, "no_such_file.cpp"))
        self.assertEqual(proc.returncode, 2)

    def test_list_checks_prints_catalogue(self):
        proc = self.run_xlint("--list-checks")
        self.assertEqual(proc.returncode, 0)
        for rule in RULES:
            self.assertIn(rule, proc.stdout)

    def test_json_report_round_trips(self):
        with tempfile.TemporaryDirectory() as tmp:
            report = os.path.join(tmp, "report.json")
            proc = self.run_xlint(
                "--json",
                report,
                os.path.join(FIXTURES, "bad_export.cpp"),
            )
            self.assertEqual(proc.returncode, 1)
            with open(report, encoding="utf-8") as f:
                data = json.load(f)
        self.assertEqual(data["files_scanned"], 1)
        self.assertTrue(
            all(f["rule"] == "XL401" for f in data["findings"]) and data["findings"]
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
