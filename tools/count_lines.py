"""Count the lines of each rfcn module that hold a token, and list the
module-level names nothing else in the program names.

    python3 tools/count_lines.py [SRC_DIR]

A line counts when it holds any token other than a comment, a line break,
an indent or dedent, or the encoding and end markers; every line a
multi-line string spans counts, so docstrings count. SRC_DIR defaults to
src/rfcn next to this script's directory. Prints one line per module and
the total. A reader that closes the pipe early (`| head`) ends the run
quietly, with exit status 1.

Then prints one "unreached" line per function, class or variable defined at
the top level of a SRC_DIR module that no identifier names but its own
definition. The search covers every .py file under SRC_DIR's parent (src/)
but the package __init__.py files, whose re-exports are not uses, and the
perfbench/ directory beside it but its test_*.py files, so a name that only
tests reach is listed. Names in strings and comments do not count.
"""

import ast
import collections
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


def _py_files(root, skip):
    for d, _, names in os.walk(root):
        for n in sorted(names):
            if n.endswith(".py") and not skip(n):
                yield os.path.join(d, n)


def top_level_names(path):
    """The functions, classes and assigned variables a module defines at its
    top level."""
    with open(path, "rb") as f:
        tree = ast.parse(f.read(), path)
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(t.id for t in targets if isinstance(t, ast.Name))
    return names


def unreached(src):
    """Sorted "module.name" of every top-level name of src's modules that
    appears as an identifier only once (its definition) across src's parent
    and the perfbench directory beside it, as the module docstring says."""
    parent = os.path.dirname(os.path.abspath(src))
    files = list(_py_files(parent, lambda n: n == "__init__.py"))
    files += _py_files(os.path.join(os.path.dirname(parent), "perfbench"),
                       lambda n: n.startswith("test_"))
    uses = collections.Counter()
    for path in files:
        with open(path, "rb") as f:
            uses.update(tok.string for tok in tokenize.tokenize(f.readline)
                        if tok.type == tokenize.NAME)
    out = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "__init__.py":
            module = name[:-3]
            out.extend(f"{module}.{n}" for n in top_level_names(os.path.join(src, name))
                       if uses[n] <= 1)
    return sorted(out)


def main(argv):
    src = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "rfcn")
    total = 0
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        n = token_lines(os.path.join(src, name))
        total += n
        print(f"{name:16s} {n:6d}")
    print(f"{'total':16s} {total:6d}")
    for name in unreached(src):
        print(f"{'unreached':16s} {name}")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (`| head`): stop quietly, with
        # stdout pointed at devnull so the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)
