#!/usr/bin/env python3
"""Count the lines of Rust source at one or two revisions.

    python3 tools/loc.py REV [REV]

Reads every tracked `.rs` file of each revision through `git`, never the
work tree (to count uncommitted work, `git add -A` and pass
`$(git stash create)`), and prints raw lines and code lines per area:

* library: `crates/`, `src/` and `examples/`;
* tests: `tests/`;
* total: the two together.

A code line is a non-blank line that is not a `//` comment (`//`, `///`
and `//!` alike) and lies outside every `#[cfg(test)]` module. Such a
module starts with a line `#[cfg(test)]` and a line `mod … {`, both at
column 0, and ends at the next line that is exactly `}`. Block comments
and string contents count as code. With two revisions, the last columns
give the second minus the first.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
AREAS = {"crates": "library", "src": "library", "examples": "library", "tests": "tests"}


def area(path):
    """The area a tracked path counts toward, or None."""
    if not path.endswith(".rs"):
        return None
    return AREAS.get(path.split("/", 1)[0])


def count(text):
    """(raw lines, code lines) of one file's text."""
    lines = text.splitlines()
    code = 0
    in_tests = False
    for i, line in enumerate(lines):
        if in_tests:
            in_tests = line != "}"
            continue
        if line == "#[cfg(test)]" and i + 1 < len(lines):
            after = lines[i + 1]
            if after.startswith("mod ") and after.endswith("{"):
                in_tests = True
                continue
        stripped = line.strip()
        if stripped and not stripped.startswith("//"):
            code += 1
    return len(lines), code


def git(*args, stdin=None):
    return subprocess.run(["git", "-C", str(ROOT), *args], input=stdin,
                          capture_output=True, check=True).stdout


def files(rev):
    """(path, text) of every tracked `.rs` file in an area at `rev`."""
    paths = [p for p in git("ls-tree", "-r", "--name-only", rev).decode().splitlines()
             if area(p)]
    out = git("cat-file", "--batch", stdin="".join(f"{rev}:{p}\n" for p in paths).encode())
    pos = 0
    for path in paths:
        header_end = out.index(b"\n", pos)
        size = int(out[pos:header_end].split()[2])
        body = out[header_end + 1:header_end + 1 + size]
        pos = header_end + 1 + size + 1
        yield path, body.decode()


def tally(rev):
    """{area: [raw, code]} at `rev`, with the total."""
    sums = {"library": [0, 0], "tests": [0, 0]}
    for path, text in files(rev):
        raw, code = count(text)
        sums[area(path)][0] += raw
        sums[area(path)][1] += code
    sums["total"] = [sums["library"][i] + sums["tests"][i] for i in range(2)]
    return sums


def main(argv):
    if len(argv) not in (1, 2):
        sys.exit(__doc__)
    columns = [(rev, tally(rev)) for rev in argv]
    if len(columns) == 2:
        (_, a), (_, b) = columns
        columns.append(("delta", {k: [b[k][i] - a[k][i] for i in range(2)] for k in a}))
    print(f"{'':8}" + "".join(f"{name[:20]:>22}" for name, _ in columns))
    print(f"{'area':8}" + f"{'raw':>11}{'code':>11}" * len(columns))
    for key in ("library", "tests", "total"):
        cells = "".join(f"{s[key][0]:>11,}{s[key][1]:>11,}" for _, s in columns)
        print(f"{key:8}{cells}")


if __name__ == "__main__":
    main(sys.argv[1:])
