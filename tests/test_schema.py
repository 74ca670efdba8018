import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def scipy_modules_after(argv: list[str] | None, cwd: Path) -> tuple[int | None, list[str]]:
    """Import ``vulnaudit.cli`` in a new interpreter with only the package's
    source on the path, run ``cli.main(argv)`` unless argv is None, and
    return its exit code and the scipy modules loaded by then."""
    script = ("import json, sys\nfrom vulnaudit import cli\n"
              f"code = None if {argv!r} is None else cli.main({argv!r})\n"
              "print(json.dumps([code, sorted(m for m in sys.modules"
              " if m.split('.')[0] == 'scipy')]))")
    env = {**os.environ, "PYTHONPATH": str(Path(schema.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, modules


def test_prepare_and_audit_never_load_scipy(tmp_path):
    # scipy.sparse is graph_build's to import, when a stage builds a graph
    (tmp_path / "spec.json").write_text(json.dumps(
        {"width": 16, "height_px": 16, "timesteps": 2, "k": 2,
         "mean_log_heights": [0.5, 2.0], "std_log_heights": [0.3, 0.3],
         "block_size": 4, "seed": 7, "corruption": 0.1}))
    (tmp_path / "config.json").write_text(json.dumps(
        {"heights": "data/heights", "prior_counts": "data/prior_counts", "out_dir": "out",
         "tile_size": 8, "upsample_factor": 4, "train": {"epochs": 1}}))
    config = ["--config", "config.json"]
    assert scipy_modules_after(None, tmp_path) == (None, [])
    assert scipy_modules_after(["synth", "--spec", "spec.json", "--out", "data"],
                               tmp_path)[0] == 0
    assert scipy_modules_after(["prepare", *config], tmp_path) == (0, [])
    code, modules = scipy_modules_after(["train", *config], tmp_path)
    assert code == 0 and "scipy.sparse" in modules, "train must show the check reads sys.modules"
    assert scipy_modules_after(["infer", *config, "--checkpoint", "out/checkpoint"],
                               tmp_path)[0] == 0
    assert scipy_modules_after(["audit", *config, "--posteriors", "out/posteriors"],
                               tmp_path) == (0, [])
    assert (tmp_path / "out" / "audit" / "index.json").is_file()


@pytest.mark.parametrize("value", [[1, 2], "ab", 3, None], ids=["list", "string", "int", "null"])
def test_dict_field_takes_only_an_object(value):
    assert schema.convert(dict[str, int], {"a": 1}, "here") == {"a": 1}
    with pytest.raises(schema.ConfigError, match=r"^here: expected an object, got "):
        schema.convert(dict[str, int], value, "here")
