#!/usr/bin/env python3
"""The verdict of scripts/check_vectorized.py, judged on canned GCC
remarks. No compiler runs.
"""

import importlib.util
import os
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "scripts", "check_vectorized.py")
spec = importlib.util.spec_from_file_location("check_vectorized", SCRIPT)
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

SOURCE = """\
void f()
{
    for (size_t j = 0; j < count; ++j)
        a[j] = 0;
    for (size_t i = 0; i < n; ++i)
        g();
    for (size_t j = 0; j < count; ++j) {
        b[j] += 1;
    }
}
"""
PATH = "/src/core/machine_batch.cc"


def remark(line, kind, text):
    return "%s:%d:26: %s: %s\n" % (PATH, line, kind, text)


def vectorized(line, width):
    return remark(line, "optimized",
                  "loop vectorized using %d byte vectors" % width)


class CheckVectorized(unittest.TestCase):
    def test_finds_only_lane_loops(self):
        self.assertEqual(check.lane_loops(SOURCE), [3, 7])

    def test_passes_when_every_loop_vectorizes_at_both_widths(self):
        output = "".join(vectorized(line, width)
                         for line in (3, 7) for width in (16, 32))
        self.assertEqual(check.judge([3, 7], output, (16, 32)), {})

    def test_a_missing_width_fails_that_loop(self):
        output = (vectorized(3, 16) + vectorized(3, 32) +
                  vectorized(7, 16))
        self.assertEqual(check.judge([3, 7], output, (16, 32)),
                         {7: ["not vectorized with 32-byte vectors"]})

    def test_a_missed_copy_fails_even_when_another_copy_vectorized(self):
        output = (vectorized(3, 16) + vectorized(3, 32) +
                  remark(3, "missed", "couldn't vectorize loop") +
                  remark(3, "missed", "not vectorized: control flow in loop."))
        self.assertEqual(check.judge([3], output, (16, 32)),
                         {3: ["a copy is reported \"couldn't vectorize "
                              "loop\""]})

    def test_alias_versioning_fails(self):
        output = (vectorized(3, 16) + vectorized(3, 32) +
                  remark(3, "optimized", " loop versioned for vectorization "
                         "because of possible aliasing"))
        self.assertEqual(check.judge([3], output, (16, 32)),
                         {3: ["a copy is versioned for possible aliasing"]})

    def test_remarks_on_other_lines_and_files_are_ignored(self):
        output = (vectorized(3, 16) + vectorized(3, 32) +
                  remark(5, "missed", "couldn't vectorize loop") +
                  "/usr/include/c++/12/bits/stl_algobase.h:3:22: missed: "
                  "couldn't vectorize loop\n")
        self.assertEqual(check.judge([3], output, (16, 32)), {})

    def test_one_width_where_the_build_has_one_kernel(self):
        self.assertEqual(check.judge([3], vectorized(3, 16), (16,)), {})


if __name__ == "__main__":
    unittest.main()
