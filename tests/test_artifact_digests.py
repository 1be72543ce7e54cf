import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "artifact_digests.py")
_SPEC = importlib.util.spec_from_file_location("artifact_digests", _PATH)
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_value_gap_reports_absolute_and_relative_differences():
    # the largest absolute move sits on a large cell, the largest
    # relative one on a small cell; each is reported on its own
    a = b"r,w\n0,1000.0\n1,2e-8\n2,0.5\n"
    b = b"r,w\n0,1000.5\n1,1e-8\n2,0.5\n"
    gap_abs, gap_rel = digests.value_gap("profile.csv", a, b)
    assert gap_abs == pytest.approx(0.5, rel=1e-12)
    assert gap_rel == pytest.approx(0.5, rel=1e-12)

    a = b'{"A": 10.0, "log_M": [-3.0, 4.0], "stop": "gradient", "n": 7}'
    b = b'{"A": 10.5, "log_M": [-3.0, 4.004], "stop": "gradient", "n": 7}'
    gap_abs, gap_rel = digests.value_gap("reduce_000.json", a, b)
    assert gap_abs == pytest.approx(0.5, rel=1e-12)
    assert gap_rel == pytest.approx(0.5 / 10.5, rel=1e-12)

    assert digests.value_gap("same.json", a, a) == (0.0, 0.0)


@pytest.mark.parametrize("a,b", [
    (b"r,w\n0,1\n", b"r,v\n0,1\n"),
    (b'{"stop": "gradient"}', b'{"stop": "max_iter"}'),
])
def test_value_gap_refuses_files_that_do_not_line_up(a, b):
    name = "x.json" if a.startswith(b"{") else "x.csv"
    with pytest.raises(digests.Mismatch):
        digests.value_gap(name, a, b)
