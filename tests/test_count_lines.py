"""tools/count_lines.py: the library holds no name that only tests reach."""

import importlib.util
import os

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
