"""Checks on the package's source text, made with the standard library's ast."""

import ast
import re
from dataclasses import replace
from pathlib import Path

import pytest

from tissueflow import harness

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tissueflow"
NOQA = "# noqa: F401"


def rebound_names(text: str) -> dict:
    """{module: names} that the benchmark's tracer rebinds on each module.

    Reads ``perfbench/spans.py``'s ``rebind(module, ("name", ...), span)``
    calls and its ``module.name = ...`` assignments.
    """
    names = {}
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "rebind"):
            module, targets = node.args[:2]
            found = [(module, elt.value) for elt in targets.elts]
        elif isinstance(node, ast.Assign):
            found = [(t.value, t.attr) for t in node.targets
                     if isinstance(t, ast.Attribute)]
        else:
            continue
        for module, name in found:
            if isinstance(module, ast.Name):
                names.setdefault(module.id, set()).add(name)
    return names


def unused_imports(text: str, rebound=frozenset()) -> list:
    """Names bound by module-level imports that the module never reads.

    Imports from ``__future__`` are skipped.  A name counts as read when
    it appears as a name anywhere in the module; quoted annotations do
    not count.  An import marked ``# noqa: F401`` may leave unread only
    the names in ``rebound``, the ones the tracer rebinds on the module.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any(NOQA in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not (marked and name in rebound):
                bound[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read)


def defined_names(text: str) -> list:
    """Functions, classes and assigned names at a module's top level,
    dunders left out."""
    names = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def read_names(text: str) -> set:
    """Names a module reads: loaded names and attributes, and the names
    it imports from other modules."""
    read = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dataclass_fields(text: str) -> list:
    """(class, field) of every dataclass at a module's top level."""
    fields = []
    for node in ast.parse(text).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass"
               for d in decorators):
            fields += [(node.name, item.target.id) for item in node.body
                       if isinstance(item, ast.AnnAssign)]
    return fields


def field_reads(text: str) -> set:
    """Attribute names a module loads, and its string constants: a
    ``getattr`` table such as a CSV column list names a field as a string."""
    read = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


REBOUND = rebound_names((ROOT / "perfbench" / "spans.py").read_text())
PYTHON = [path for folder in ("src", "tests", "demos", "perfbench")
          for path in sorted((ROOT / folder).rglob("*.py"))]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text(), REBOUND.get(path.stem, ())) == []


def test_unused_import_check_sees_what_it_should():
    text = ("from __future__ import annotations\n"
            "import io\n"
            "import os.path\n"
            "import scipy.sparse.linalg as spla  # noqa: F401\n"
            "from dataclasses import dataclass, field\n"
            "from .grid import (GridSpec,\n"
            "                   ScalarField)\n"
            "@dataclass\n"
            "class A:\n"
            "    x: GridSpec\n"
            "def f(s) -> 'ScalarField':\n"
            "    return os.path.join(s)\n")
    assert unused_imports(text, {"spla"}) == ["line 2: io", "line 5: field",
                                              "line 6: ScalarField"]
    # a marked import the tracer does not rebind is unused all the same
    assert unused_imports(text) == ["line 2: io", "line 4: spla",
                                    "line 5: field", "line 6: ScalarField"]


def test_marked_imports_are_the_tracer_only_names():
    marked = {}
    for path in sorted(SRC.glob("*.py")):
        unmarked = path.read_text().replace(NOQA, "")
        names = {entry.split(": ")[1] for entry in unused_imports(unmarked)}
        if names:
            marked[path.stem] = names
    assert marked == {"dynamics": {"cell_laplacian_neumann",
                                   "weighted_cell_flux_divergence"}}


def test_every_module_level_name_is_read():
    # by name: a read anywhere in the repository's Python, or a rebinding
    # by the benchmark's tracer, counts for a name of any module
    read = set().union(*REBOUND.values(), *(read_names(path.read_text())
                                            for path in PYTHON))
    unread = [f"{path.name}: {name}" for path in sorted(SRC.glob("*.py"))
              for name in defined_names(path.read_text()) if name not in read]
    assert unread == []


def test_every_dataclass_field_is_read():
    # an attribute load or a string naming the field, anywhere in the
    # repository's Python; a field that is only ever constructed is unread
    read = set().union(*(field_reads(path.read_text()) for path in PYTHON))
    unread = [f"{path.name}: {cls}.{name}" for path in sorted(SRC.glob("*.py"))
              for cls, name in dataclass_fields(path.read_text())
              if name not in read]
    assert unread == []


def test_dataclass_field_check_sees_what_it_should():
    text = ("from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Row:\n"
            "    x: float\n"
            "    y: float\n"
            "    tag: str = ''\n"
            "    def f(self):\n"
            "        return self.x\n"
            "@dataclass\n"
            "class Count:\n"
            "    n: int\n"
            "class Plain:\n"
            "    z: int\n"
            "COLUMNS = ('tag',)\n"
            "row = Row(x=1.0, y=2.0)\n"
            "row.y = 3.0\n")
    assert dataclass_fields(text) == [("Row", "x"), ("Row", "y"),
                                      ("Row", "tag"), ("Count", "n")]
    read = field_reads(text)
    assert {"x", "tag"} <= read and not {"y", "n"} & read


def test_module_level_name_check_sees_what_it_should():
    text = ("from .grid import GridSpec\n"
            "_SIGN = (1.0, -1.0)\n"
            "LO, HI = 0, 1\n"
            "TOL: float = 1e-10\n"
            "__version__ = '1'\n"
            "class Face:\n"
            "    spec: GridSpec\n"
            "def trace(face):\n"
            "    return face.spec.hx * HI\n")
    assert defined_names(text) == ["_SIGN", "LO", "HI", "TOL", "Face",
                                   "trace"]
    assert read_names(text) & set(defined_names(text)) == {"HI"}
    assert {"GridSpec", "spec", "hx"} <= read_names(text)


def test_readme_lists_every_config_key_with_its_default():
    rows = re.findall(r"^\| `\[(\w+)\]` \| `(\w+)` \| (.*) \|$",
                      (ROOT / "README.md").read_text(), re.M)
    assert [(section, key) for section, key, _ in rows] == [
        (section, key) for section, keys in harness.CONFIG_KEYS.items()
        for key in keys]
    for section, key, default in rows:
        value = getattr(harness._owner(harness.DEFAULT, section),
                        harness.CONFIG_KEYS[section][key])
        shown = re.match(r"`([^`]*)`", default)
        assert shown is None or shown.group(1) == str(value), (section, key)
        # the runs that read the key: its READERS row and SWEEP_IGNORES
        readers = re.search(r"read by ([^;]*?)(, not by a sweep)?$", default)
        assert (set(re.split(r", | and ", readers.group(1))) if readers
                else set()) == set(harness.READERS.get((section, key), ())), (
            section, key)
        assert (readers is not None and readers.group(2) is not None) == (
            key in harness.SWEEP_IGNORES.get(section, ())), (section, key)
        # the q sources with which a model that reads [q] reads the key
        sources = harness._CHOICES["source"]
        read_with = [source for source in sources if not harness._unread(
            replace(harness.DEFAULT, model="STATIONARY", q_source=source),
            section, key)]
        assert re.findall(r"with `source = (\w+)`", default) == (
            [] if len(read_with) == len(sources) else read_with), (section, key)


@pytest.mark.parametrize("readme", ["README.md", "demos/README.md"])
def test_readme_commands_exist(readme):
    # a subcommand that does not exist makes argparse exit 2, not 0
    blocks = re.findall(r"^```\w*\n(.*?)^```", (ROOT / readme).read_text(),
                        re.M | re.S)
    words = {word for block in blocks
             for word in re.findall(r"^tissueflow (\w+)", block, re.M)}
    assert words
    for word in sorted(words):
        with pytest.raises(SystemExit) as exc:
            harness.run_cli([word, "--help"])
        assert exc.value.code == 0, word
