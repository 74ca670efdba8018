import ast
from pathlib import Path

from vulnaudit import schema


def test_schema_imports_no_vulnaudit_module():
    # every module imports schema, so schema importing one of them is a cycle
    tree = ast.parse(Path(schema.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported, "no imports found: the test reads the wrong file"
    assert [name for name in imported
            if name.startswith(".") or name.split(".")[0] == "vulnaudit"] == []
