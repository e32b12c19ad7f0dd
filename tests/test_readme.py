"""The README's library quick start runs as written and says what it does."""

import re
from pathlib import Path

from conftest import up_to_scale
from slocc.tripartite import TripartiteClass, canonical_vector

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_commented():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    report, ilos, ghz = namespace["report"], namespace["ilos"], namespace["ghz"]
    assert report.tag.value == "GHZ"
    assert report.ranks == (2, 2, 2)
    assert report.spectrum_used is None
    assert ilos.residual <= 1e-8
    reduced = namespace["apply_local_operators"](ghz, ilos.ops).amps
    assert up_to_scale(canonical_vector(TripartiteClass.GHZ).amps, reduced)
