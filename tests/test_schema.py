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


def test_no_module_uses_another_modules_private_names():
    # a leading underscore marks a name its module may change at will
    package = Path(schema.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()  # local names bound to a vulnaudit module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                ours = node.level > 0 or source.split(".")[0] == "vulnaudit"
                for alias in node.names if ours else ():
                    if alias.name in modules and source in ("", "vulnaudit"):
                        aliases.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.append(f"{path.name}: imports {alias.name}")
            elif isinstance(node, ast.Import):
                aliases.update(alias.asname for alias in node.names
                               if alias.name.startswith("vulnaudit.") and alias.asname)
        found += [f"{path.name}: reads {node.value.id}.{node.attr}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    assert len(modules) > 5, "too few modules found: the test reads the wrong directory"
    assert found == []
