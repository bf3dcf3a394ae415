#!/usr/bin/env python3
"""Non-blank, non-comment lines of the C++ sources under src/.

Prints one row per src/ subdirectory and a total, counting every .cc and .h
file; a line counts unless it is blank or starts with `//` once leading
whitespace is stripped. Any FILE arguments (paths relative to the repository
root) get a row of their own after the total.

  python3 scripts/src_lines.py [FILE ...]
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def code_lines(path):
    n = 0
    for line in path.read_text().splitlines():
        s = line.strip()
        if s and not s.startswith("//"):
            n += 1
    return n


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("files", nargs="*", help="extra files to count singly")
    args = p.parse_args()

    per_dir = {}
    for path in sorted(SRC.rglob("*")):
        if path.suffix not in (".cc", ".h"):
            continue
        sub = path.relative_to(SRC).parts[0] if path.parent != SRC else "."
        per_dir[sub] = per_dir.get(sub, 0) + code_lines(path)

    for sub, n in sorted(per_dir.items()):
        print(f"src/{sub}/ {n}")
    print(f"src/ {sum(per_dir.values())}")
    for f in args.files:
        path = ROOT / f
        if not path.is_file():
            print(f"{f}: no such file", file=sys.stderr)
            return 1
        print(f"{f} {code_lines(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
