#!/usr/bin/env python3
"""Line coverage of src/*.cc under the tier-1 test suite.

Builds the test binaries (Debug, --coverage) into their own build tree, runs
ctest there, then reads gcov's JSON for every object of the sprite library
and prints executed/executable lines for each src/*.cc file and in total.

  python3 scripts/coverage.py [--build-dir build-coverage] [--jobs 2]

Exits non-zero if the build or any test fails (the numbers are still
printed when the tests ran).
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_targets():
    """Executable names declared in tests/CMakeLists.txt."""
    text = (ROOT / "tests" / "CMakeLists.txt").read_text()
    return re.findall(r"add_executable\((\w+)", text)


def run(cmd, **kw):
    print("+", " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, **kw).returncode


def file_lines(gcno, src_root):
    """{source path: {line: count}} for src/*.cc files covered by `gcno`."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", str(gcno)],
        cwd=gcno.parent, capture_output=True, text=True)
    result = {}
    # One JSON document per line (one per object file given).
    for doc in out.stdout.splitlines():
        if not doc.strip():
            continue
        for f in json.loads(doc)["files"]:
            path = Path(f["file"])
            if not path.is_absolute():
                path = (gcno.parent / path).resolve()
            if path.suffix != ".cc" or src_root not in path.parents:
                continue
            lines = result.setdefault(path, {})
            for ln in f["lines"]:
                n = ln["line_number"]
                lines[n] = max(lines.get(n, 0), ln["count"])
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--build-dir", default=str(ROOT / "build-coverage"))
    p.add_argument("--jobs", type=int, default=min(4, os.cpu_count() or 1))
    args = p.parse_args()
    build = Path(args.build_dir).resolve()

    if run(["cmake", "-B", build, "-S", ROOT, "-DCMAKE_BUILD_TYPE=Debug",
            "-DCMAKE_CXX_FLAGS=--coverage",
            "-DCMAKE_EXE_LINKER_FLAGS=--coverage"],
           stdout=sys.stderr) != 0:
        return 1
    if run(["cmake", "--build", build, "-j", str(args.jobs), "--target",
            *test_targets()], stdout=sys.stderr) != 0:
        return 1
    for stale in build.rglob("*.gcda"):
        stale.unlink()  # counts from an earlier run would add up
    tests_rc = run(["ctest", "--test-dir", build, "-j", str(args.jobs)],
                   stdout=sys.stderr)

    src_root = ROOT / "src"
    lib_objs = build / "src" / "CMakeFiles" / "sprite.dir"
    covered = {}
    for gcno in sorted(lib_objs.rglob("*.gcno")):
        for path, lines in file_lines(gcno, src_root).items():
            merged = covered.setdefault(path, {})
            for n, c in lines.items():
                merged[n] = max(merged.get(n, 0), c)

    total_exec = total_lines = 0
    width = max((len(str(p.relative_to(ROOT))) for p in covered), default=10)
    for path in sorted(covered):
        lines = covered[path]
        executed = sum(1 for c in lines.values() if c > 0)
        total_exec += executed
        total_lines += len(lines)
        pct = 100.0 * executed / len(lines) if lines else 100.0
        print(f"{str(path.relative_to(ROOT)):<{width}}  "
              f"{executed:>6}/{len(lines):<6} {pct:5.1f}%")
    pct = 100.0 * total_exec / total_lines if total_lines else 0.0
    print(f"{'total':<{width}}  {total_exec:>6}/{total_lines:<6} {pct:5.1f}%")
    return 1 if tests_rc != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
