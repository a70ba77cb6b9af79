import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stereowire"
ALLOWED = sys.stdlib_module_names | {"numpy", "stereowire"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_imports_only_the_standard_library_and_numpy(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative one is the package
            imported.append(node.module)
    assert {name.partition(".")[0] for name in imported} <= ALLOWED
