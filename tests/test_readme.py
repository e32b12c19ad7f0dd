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


def test_layout_table_names_exist():
    # every backticked identifier in the Layout table names something the package defines:
    # an attribute of a slocc module (dotted names resolve from ``slocc``) or a policy field
    import dataclasses
    import importlib
    import pkgutil

    import slocc
    from slocc.numerics import TolerancePolicy

    names = [m.name for m in pkgutil.iter_modules(slocc.__path__) if m.name != "__main__"]
    modules = [slocc, *(importlib.import_module(f"slocc.{name}") for name in names)]
    fields = {f.name for f in dataclasses.fields(TolerancePolicy)}
    rows = re.findall(r"^\| `slocc\.\w+` \|.*$", README.read_text(), re.M)
    assert len(rows) >= 7
    documented = [n for row in rows for n in re.findall(r"`([A-Za-z_][\w.]*)`", row)]

    def defined(name):
        head, *rest = name.removeprefix("slocc.").split(".")
        for obj in (getattr(m, head) for m in modules if hasattr(m, head)):
            for part in rest:
                obj = getattr(obj, part, None)
            if obj is not None:
                return True
        return name in fields

    assert [name for name in documented if not defined(name)] == []
