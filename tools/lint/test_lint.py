#!/usr/bin/env python3
"""Self-test for the repo-invariant linter.

Runs the linter over the seeded fixture corpus (tools/lint/fixtures/, laid
out like the real repo) and asserts the exact rule IDs and file/line
diagnostics, plus the escape hatch, the JSON report, and the exit-code
contract. Stdlib only: python3 tools/lint/test_lint.py
"""

import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")

spec = importlib.util.spec_from_file_location(
    "run_lint", os.path.join(HERE, "run_lint.py"))
run_lint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_lint)


def fixture_violations(paths=("src",)):
    out = io.StringIO()
    return run_lint.run(FIXTURES, list(paths), out=out)


def as_tuples(violations):
    return sorted((v.rule, v.path.replace(os.sep, "/"), v.line)
                  for v in violations)


class FixtureCorpusTest(unittest.TestCase):
    """The seeded corpus produces exactly the expected diagnostics."""

    def test_exact_rule_ids_and_locations(self):
        expected = [
            ("banned-function", "src/core/banned.cpp", 7),
            ("banned-function", "src/core/banned.cpp", 8),
            ("deprecated-api", "src/serve/legacy.cpp", 6),
            ("include-guard", "src/utils/guard.hpp", 1),
            ("include-guard", "src/utils/late_guard.hpp", 4),
            ("serve-steady-clock", "src/serve/clock.cpp", 6),
            ("zero-alloc-hot-path", "src/data/stream.cpp", 9),
            ("zero-alloc-hot-path", "src/optics/hot.cpp", 8),
            ("zero-alloc-hot-path", "src/optics/perturb.cpp", 10),
        ]
        self.assertEqual(as_tuples(fixture_violations()), sorted(expected))

    def test_escape_hatch_suppresses_both_styles(self):
        violations = fixture_violations(paths=("src/serve/allowed.cpp",))
        self.assertEqual(as_tuples(violations), [])

    def test_clean_file_is_clean(self):
        violations = fixture_violations(paths=("src/core/clean.cpp",))
        self.assertEqual(as_tuples(violations), [])

    def test_comments_and_strings_not_flagged(self):
        violations = fixture_violations(paths=("src/serve/legacy.cpp",))
        self.assertEqual([v.line for v in violations], [6])


class JsonReportTest(unittest.TestCase):
    def test_report_contents(self):
        with tempfile.TemporaryDirectory() as tmp:
            report = os.path.join(tmp, "lint.json")
            out = io.StringIO()
            run_lint.run(FIXTURES, ["src"], json_path=report, out=out)
            with open(report, encoding="utf-8") as fh:
                data = json.load(fh)
        self.assertFalse(data["clean"])
        self.assertEqual(data["counts"]["banned-function"], 2)
        self.assertEqual(data["counts"]["deprecated-api"], 1)
        self.assertEqual(data["counts"]["include-guard"], 2)
        self.assertEqual(data["counts"]["serve-steady-clock"], 1)
        self.assertEqual(data["counts"]["zero-alloc-hot-path"], 3)
        entry = [v for v in data["violations"]
                 if v["rule"] == "serve-steady-clock"][0]
        self.assertEqual(entry["file"].replace(os.sep, "/"),
                         "src/serve/clock.cpp")
        self.assertEqual(entry["line"], 6)
        self.assertIn("steady_clock", entry["message"])


class ExitCodeTest(unittest.TestCase):
    def _main(self, argv):
        stdout, sys.stdout = sys.stdout, io.StringIO()
        try:
            return run_lint.main(argv)
        finally:
            sys.stdout = stdout

    def test_violations_exit_1(self):
        self.assertEqual(self._main(["--root", FIXTURES, "src"]), 1)

    def test_clean_exit_0(self):
        self.assertEqual(
            self._main(["--root", FIXTURES, "src/core/clean.cpp"]), 0)

    def test_missing_path_exit_2(self):
        self.assertEqual(
            self._main(["--root", FIXTURES, "no/such/dir"]), 2)


class MaskingTest(unittest.TestCase):
    """The comment/string masker keeps offsets stable and strips content."""

    def test_masking_preserves_shape(self):
        src = 'int x = rand(); // rand()\nconst char *s = "rand()";\n'
        masked = run_lint.mask_comments_and_strings(src)
        self.assertEqual(len(masked), len(src))
        self.assertEqual(masked.count("\n"), src.count("\n"))
        lines = masked.splitlines()
        # Code survives; the comment copy and the string literal are gone.
        self.assertEqual(lines[0].count("rand"), 1)
        self.assertNotIn("rand", lines[1])

    def test_block_comment_spans_lines(self):
        src = "a /* one\n two */ b\n"
        masked = run_lint.mask_comments_and_strings(src)
        self.assertEqual(masked.splitlines()[0].strip(), "a")
        self.assertEqual(masked.splitlines()[1].strip(), "b")


if __name__ == "__main__":
    unittest.main(verbosity=2)
