"""Names in prose resolve, so a deleted helper cannot linger in the text.

Every _private name in a package docstring or comment, and every
backticked identifier in README, must name something the package defines:
a module, class, function, argument, assigned name or attribute, or an
identifier-shaped string it holds (a JSON key, a subcommand). A README
name may also be a test or a benchmark workload. One letter with at most
a one-character subscript (`F`, `e_i`, `C(u)`) is notation, and so is a
subscript after a bracket, a prime or a norm ([v]_x, P'_i, |d|_inf); a file
name, a builtin or math function and a name under a module the package
imports from outside are not checked.
"""

import ast
import builtins
import io
import json
import math
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "stereowire").glob("*.py"))
PRIVATE = re.compile(r"(?<![\w|\])'])_[A-Za-z]\w*")
IDENTIFIER = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(?:\(.*\))?")
NOTATION = re.compile(r"[A-Za-z](?:_[A-Za-z0-9])?")
FILE_SUFFIXES = (".json", ".py", ".txt")


def package_names() -> tuple[set, set]:
    """(names the package defines, names it imports from outside the package)."""
    names, external = {"stereowire"}, set()
    for path in SOURCES:
        names.add(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                outside = isinstance(node, ast.Import) or node.level == 0
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    (external if outside else names).add(bound)
    return names, external


def prose(path: Path):
    """(line, text) of every docstring and comment of a source file."""
    source = path.read_text()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                yield node.body[0].lineno, doc
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            yield token.start[0], token.string


def test_every_private_name_in_package_prose_is_defined():
    names, _ = package_names()
    missing = [f"{path.name}:{line} {name}" for path in SOURCES
               for line, text in prose(path) for name in PRIVATE.findall(text)
               if name not in names]
    assert missing == []


def test_every_backticked_identifier_in_readme_is_defined():
    names, external = package_names()
    names |= {node.name for path in (ROOT / "tests").glob("test_*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    names |= {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    missing = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = IDENTIFIER.fullmatch(span)
        if not match or span.endswith(FILE_SUFFIXES) or NOTATION.fullmatch(match.group(1)):
            continue
        parts = match.group(1).split(".")
        if parts[0] in external or hasattr(builtins, parts[0]) or hasattr(math, parts[0]):
            continue
        missing += [span for part in parts if part not in names][:1]
    assert missing == []
