"""Count the lines of each rfcn module that hold a token.

    python3 tools/count_lines.py [SRC_DIR]

A line counts when it holds any token other than a comment, a line break,
an indent or dedent, or the encoding and end markers; every line a
multi-line string spans counts, so docstrings count. SRC_DIR defaults to
src/rfcn next to this script's directory. Prints one line per module and
the total.
"""

import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def token_lines(path):
    """The number of lines of a Python file that hold a counted token."""
    rows = set()
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIP:
                rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv):
    src = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "rfcn")
    total = 0
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        n = token_lines(os.path.join(src, name))
        total += n
        print(f"{name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
