#!/usr/bin/env python3
"""Tests for tools/loc.py: which lines count as code, and which paths
count toward which area — on small inputs, without reading any revision.

    python3 tools/test_loc.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import loc  # noqa: E402


class CodeLines(unittest.TestCase):
    def test_comments_and_blank_lines_are_not_code(self):
        text = "//! module doc\n\n/// item doc\nfn f() {}\n    // note\n"
        self.assertEqual(loc.count(text), (5, 1))

    def test_a_string_holding_slashes_is_code(self):
        text = 'fn f() -> &\'static str {\n    "//"\n}\n'
        self.assertEqual(loc.count(text), (3, 3))

    def test_a_test_module_is_not_code(self):
        text = ("fn f() {}\n"
                "#[cfg(test)]\n"
                "mod tests {\n"
                "    fn g() {\n"
                "    }\n"
                "}\n"
                "fn h() {}\n")
        self.assertEqual(loc.count(text), (7, 2))

    def test_only_a_module_opens_a_test_block(self):
        # a test-only item, and an indented test module, are still code
        text = ("#[cfg(test)]\n"
                "fn only_in_tests() {}\n"
                "    #[cfg(test)]\n"
                "    mod inner {\n"
                "    }\n")
        self.assertEqual(loc.count(text), (5, 5))


class Areas(unittest.TestCase):
    def test_library_tests_and_the_rest(self):
        self.assertEqual(loc.area("crates/stream/src/registry.rs"), "library")
        self.assertEqual(loc.area("src/lib.rs"), "library")
        self.assertEqual(loc.area("examples/quickstart.rs"), "library")
        self.assertEqual(loc.area("tests/hub_model.rs"), "tests")
        self.assertIsNone(loc.area("perfbench/src/main.rs"))
        self.assertIsNone(loc.area("tools/loc.py"))
        self.assertIsNone(loc.area("crates/stream/Cargo.toml"))


if __name__ == "__main__":
    unittest.main()
