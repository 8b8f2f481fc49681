#!/usr/bin/env python3
"""Check that every lane loop of the machine kernel vectorizes.

    python3 scripts/check_vectorized.py

Takes no arguments. Configures a Release tree in .bench_build/vectorize,
takes the compile command of src/core/machine_batch.cc from its
compile_commands.json (so the Release flags and the file's own options
are the build's), and compiles that one file again with
-fopt-info-vec-optimized and -fopt-info-vec-missed. A lane loop is each
`for (size_t j = 0; j < count; ++j)` in the file. Every one must be
reported vectorized with 16-byte vectors (the baseline kernel) and, on
x86-64, with 32-byte vectors (the AVX2 kernel). No copy of it may be
reported "couldn't vectorize", nor versioned for possible aliasing: the
run-time overlap checks that versioning adds slow runs of one to four
lanes, and restrict-qualified rows make them unnecessary. Prints one
line per loop, then exits 0
when all pass, 1 naming the loops that do not, and 2 when the compiler
is not GCC or the configure or compile fails.
"""

import json
import os
import platform
import re
import shlex
import subprocess
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "vectorize")
SOURCE = os.path.join("src", "core", "machine_batch.cc")
LANE_LOOP = re.compile(r"for \(size_t j = 0; j < count; \+\+j\)")
REMARK = re.compile(r"machine_batch\.cc:(\d+):\d+: (optimized|missed): (.*)")
VECTORIZED = re.compile(r"loop vectorized using (\d+) byte vectors")


def fail(message):
    print("check_vectorized: " + message, file=sys.stderr)
    sys.exit(2)


def lane_loops(source_text):
    """Line numbers (1-based) of the kernel's lane loops."""
    return [number for number, line in
            enumerate(source_text.splitlines(), 1) if LANE_LOOP.search(line)]


def judge(loops, compiler_output, widths):
    """Problems per loop line: {line: [problem, ...]}, empty when every
    loop vectorized at each width in @p widths, with no copy missed or
    versioned for aliasing."""
    seen = {line: set() for line in loops}
    missed = set()
    versioned = set()
    for match in REMARK.finditer(compiler_output):
        line, kind, text = int(match.group(1)), match.group(2), match.group(3)
        if line not in seen:
            continue
        vectorized = VECTORIZED.search(text)
        if kind == "optimized" and vectorized:
            seen[line].add(int(vectorized.group(1)))
        elif kind == "optimized" and "because of possible aliasing" in text:
            versioned.add(line)
        elif kind == "missed" and "couldn't vectorize loop" in text:
            missed.add(line)
    problems = {}
    for line in loops:
        found = [("not vectorized with %d-byte vectors" % width)
                 for width in widths if width not in seen[line]]
        if line in missed:
            found.append("a copy is reported \"couldn't vectorize loop\"")
        if line in versioned:
            found.append("a copy is versioned for possible aliasing")
        if found:
            problems[line] = found
    return problems


def compile_command():
    """The build's compile command for SOURCE, as (argv, directory)."""
    configure = ["cmake", "-S", ".", "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release",
                 "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"]
    result = subprocess.run(configure, capture_output=True, text=True)
    if result.returncode:
        sys.stderr.write(result.stdout[-2000:] + result.stderr[-2000:])
        fail("configure failed")
    with open(os.path.join(BUILD_DIR, "compile_commands.json")) as db:
        entries = json.load(db)
    target = os.path.join(REPO, SOURCE)
    for entry in entries:
        if os.path.realpath(entry["file"]) == os.path.realpath(target):
            argv = entry.get("arguments") or shlex.split(entry["command"])
            return argv, entry["directory"]
    fail("no compile command for " + SOURCE)


def is_gcc(compiler):
    """True when @p compiler is GCC (Clang also defines __GNUC__)."""
    result = subprocess.run([compiler, "-dM", "-E", "-x", "c++", os.devnull],
                            capture_output=True, text=True)
    macros = result.stdout
    return "#define __GNUC__" in macros and "__clang__" not in macros


def main():
    os.chdir(REPO)
    argv, directory = compile_command()
    if not is_gcc(argv[0]):
        fail("needs GCC: the remarks it reads are GCC's -fopt-info")
    # Same flags; the object goes nowhere and the remarks to stderr.
    out = argv.index("-o")
    argv = argv[:out] + ["-o", os.devnull] + argv[out + 2:]
    argv += ["-fopt-info-vec-optimized", "-fopt-info-vec-missed"]
    result = subprocess.run(argv, cwd=directory, capture_output=True,
                            text=True)
    if result.returncode:
        sys.stderr.write(result.stderr[-4000:])
        fail("compiling " + SOURCE + " failed")

    with open(SOURCE) as source:
        loops = lane_loops(source.read())
    if not loops:
        fail("no lane loops found in " + SOURCE)
    x86 = platform.machine().lower() in ("x86_64", "amd64")
    widths = (16, 32) if x86 else (16,)
    problems = judge(loops, result.stderr, widths)
    for line in loops:
        verdict = "; ".join(problems[line]) if line in problems else "ok"
        print("%s:%d: %s" % (SOURCE, line, verdict))
    if problems:
        print("FAIL: %d of %d lane loops" % (len(problems), len(loops)))
        return 1
    print("PASS: all %d lane loops vectorized (%s-byte vectors)"
          % (len(loops), " and ".join(str(w) for w in widths)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
