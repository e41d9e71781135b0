"""tools/count_lines.py: the library holds no name that only tests reach,
and the tool stops quietly when its reader goes away."""

import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "count_lines", os.path.join(ROOT, "tools", "count_lines.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_only_the_semantic_metrics_go_unreached():
    """Every top-level name of src/rfcn is named by the library or by
    perfbench, but mean-class and category IoU, which no report uses yet."""
    unreached = load_tool().unreached(os.path.join(ROOT, "src", "rfcn"))
    assert unreached == ["metrics.category_iou", "metrics.mean_class_iou"]


def test_a_closed_pipe_ends_the_run_quietly():
    """Piped into a reader that has closed (`| head -3` once it has its
    lines), the tool writes nothing to stderr; it used to print a
    BrokenPipeError traceback."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "tools", "count_lines.py")],
                              stdout=write, stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write)
    assert proc.stderr == b""
