#!/usr/bin/env python3
# SPDX-License-Identifier: Apache-2.0
"""Every qualified name `X::y` that README.md quotes in backquotes names
something in src/ or bench/: its last component and its qualifier each
appear there as a whole word. A README passage about a deleted function,
field or class fails here until it is reworded."""

import os
import re
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SOURCE_DIRS = ("src", "bench")
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".py", ".sh", ".txt")

CODE_SPAN = re.compile(r"`([^`\n]+)`")
QUALIFIED = re.compile(r"\b([A-Za-z_]\w*(?:::[A-Za-z_~]\w*)+)")
WORD = re.compile(r"[A-Za-z_]\w*")


def source_words():
    """The set of identifiers that occur in src/ and bench/."""
    words = set()
    for top in SOURCE_DIRS:
        for root, _dirs, files in os.walk(os.path.join(REPO, top)):
            for name in files:
                if name.endswith(SOURCE_SUFFIXES):
                    with open(os.path.join(root, name), encoding="utf-8") as f:
                        words.update(WORD.findall(f.read()))
    return words


def quoted_names(text):
    """(line number, qualified name) for every `X::y` in a code span."""
    out = []
    for number, line in enumerate(text.splitlines(), start=1):
        for span in CODE_SPAN.findall(line):
            for name in QUALIFIED.findall(span):
                if not name.startswith("std::"):
                    out.append((number, name))
    return out


class ReadmeNames(unittest.TestCase):
    def test_every_quoted_qualified_name_exists(self):
        with open(os.path.join(REPO, "README.md"), encoding="utf-8") as f:
            names = quoted_names(f.read())
        self.assertGreater(len(names), 50, "the README quotes qualified names")
        words = source_words()
        missing = []
        for number, name in names:
            parts = name.split("::")
            last = parts[-1].lstrip("~")
            if last not in words or parts[-2] not in words:
                missing.append(f"README.md:{number}: `{name}`")
        self.assertEqual(missing, [], "names nothing in src/ or bench/")

    def test_the_check_sees_a_deleted_name(self):
        self.assertEqual(quoted_names("a `Foo::bar()` and `std::vector` here"),
                         [(1, "Foo::bar")])
        self.assertNotIn("no_such_function_anywhere", source_words())


if __name__ == "__main__":
    unittest.main()
