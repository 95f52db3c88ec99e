"""The public surface: every exported name exists, each has one import
path, the README's library example runs, and warnings leave the package
through one seam."""
import ast
import importlib
import inspect
import json
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest

import trialmix
from trialmix import io
from trialmix.io import write_map_pgm

from helpers import config_fields


def test_public_names_resolve():
    # perfbench's tracer wraps exactly these names, so a stale entry
    # would drop a layer from its spans without an error
    modules = [trialmix] + [
        importlib.import_module(f"trialmix.{m.name}")
        for m in pkgutil.iter_modules(trialmix.__path__)
        if m.name != "__main__"
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 10
    assert missing == []


# public names that no module of the package refers to, with the reason
# each stays public
UNREACHED = {
    "kernels.backend_name": "perfbench/run.py's set-up probe calls it; "
                            "ROADMAP item 1 deletes it together with that call",
}


def _references(tree: ast.Module) -> set[str]:
    """Names a module refers to: loaded names, attributes and imported
    names, each outside the definition that binds it."""
    found = set()

    def visit(node, owners):
        for child in ast.iter_child_nodes(node):
            inner = owners
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = owners | {child.name}
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, ast.alias):
                name = child.name
            else:
                name = None
            if name is not None and name not in owners:
                found.add(name)
            visit(child, inner)

    visit(tree, frozenset())
    return found


def test_every_public_name_is_reached():
    # a public name no module calls is reached only by tests, and belongs
    # in tests/helpers.py or nowhere
    package = pathlib.Path(trialmix.__file__).parent
    exported, referenced = [], set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        referenced |= _references(tree)
        exported += [(path.stem, name) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                     for name in ast.literal_eval(node.value)]
    unreached = {f"{module}.{name}" for module, name in exported
                 if name not in referenced}
    assert unreached == set(UNREACHED)


# every run config setting, with what sets it: a benchmark workload
# (perfbench/run.py), the README's config or library example, an
# acceptance criterion, a pipeline test, or for snr, noise_var and tr the
# scenario quantity a simulation study varies. A value nothing sets is a
# module constant, not a setting
SETTINGS = {
    (None, "seed"): "README config example; simulate --seed in every workload",
    ("simulate", "n_times"): "README config example; criterion 09",
    ("simulate", "n_epochs"): "README config example; criterion 09",
    ("simulate", "n_voxels"): "every workload",
    ("simulate", "n_covariates"): "README config example; criterion 09",
    ("simulate", "tr"): "the scenario's sampling interval",
    ("simulate", "active_frac"): "every workload",
    ("simulate", "snr"): "the scenario's signal",
    ("simulate", "within_rho"): "criterion 09",
    ("simulate", "between_rho"): "criterion 09",
    ("simulate", "noise_var"): "the scenario's noise",
    ("simulate", "phase"): "stages-20k",
    ("preprocess", "smooth_fwhm"): "stages-20k",
    ("preprocess", "voxel_size"):
        "test_dataset_smoothing_matches_per_image_bits",
    ("preprocess", "align_trials"): "stages-20k",
    ("preprocess", "highpass_cutoff"): "stages-20k; README config example",
    ("preprocess", "center"): "stages-20k",
    ("em", "tol"): "README config example",
    ("em", "max_iter"): "README config example; criteria 09 and 12",
    ("fit", "model"): "fit-50k",
    ("inference", "q"): "README config and library examples",
    ("inference", "screen_alpha"):
        "test_activation_map_screen_none_adjusts_everything",
    ("inference", "min_cluster"): "README config example; criterion 12",
    ("pcs", "n_components"): "README config and library examples",
    ("compare", "models"): "README config example",
}


def test_every_setting_is_set_by_a_run():
    # the config's version of test_every_public_name_is_reached
    assert {(section, name) for section, name, _ in config_fields()} \
        == set(SETTINGS)


# (module imported, prefix of the modules it must not load): the package
# root re-exports nothing, and the value types, the command line and the
# generator load no scipy (test_cli checks that no command does)
LEAN_IMPORTS = [("trialmix", "trialmix."), ("trialmix.types", "scipy"),
                ("trialmix.cli", "scipy"), ("trialmix.simulate", "scipy"),
                # the comparison worker is a bare os.fork: no command
                # pays for a process pool's import
                ("trialmix.cli", "multiprocessing"),
                ("trialmix.cli", "concurrent")]


@pytest.mark.parametrize("module, absent", LEAN_IMPORTS)
def test_import_loads_only_what_it_needs(module, absent):
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in sys.modules if m.startswith({absent!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# perfbench/tracer.py reads these arguments by name from the calls it
# wraps; renaming one would fail every traced run with a KeyError
TRACED_ARGUMENTS = {
    **{f"io.{name}": ("path",) for name in (
        "write_csv", "read_params_json", "write_params_json", "read_dataset",
        "write_dataset", "write_map_pgm")},
    **{f"kernels.{name}": ("resid",) for name in (
        "quad_forms_kron", "scatter_within", "scatter_between")},
    "em.em_fit": ("config", "structure"),
    "modelsel.fit_model": ("model_id",),
    # perfbench/run.py calls this in its set-up probe; ROADMAP item 1
    # deletes it together with that call
    "kernels.backend_name": (),
}


def test_traced_arguments_keep_their_names():
    missing = []
    for name, arguments in TRACED_ARGUMENTS.items():
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"trialmix.{module}"), attr)
        params = inspect.signature(fn).parameters
        missing += [f"{name}({a})" for a in arguments if a not in params]
    assert missing == []


def test_map_sidecar_lists_the_slice_files(tmp_path):
    # the tracer counts the bytes of the files the sidecar lists
    write_map_pgm(np.arange(12.0).reshape(2, 2, 3), str(tmp_path / "m.pgm"))
    with open(tmp_path / "m.json") as f:
        files = json.load(f)["files"]
    assert files == ["m_s000.pgm", "m_s001.pgm", "m_s002.pgm"]
    assert all((tmp_path / name).is_file() for name in files)


def _call_sites(name: str) -> list[str]:
    """module.function (module.Class.method in a class) of every call to
    ``name``, bare or as an attribute, in the package's source files."""
    sites = []

    def visit(node, owner, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{node.name}.{child.name}"
                      if isinstance(node, ast.ClassDef) else child.name, path)
                continue
            func = child.func if isinstance(child, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == name) or (
                    isinstance(func, ast.Name) and func.id == name):
                sites.append(f"{path.stem}.{owner}")
            visit(child, owner, path)

    package = pathlib.Path(trialmix.__file__).parent
    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return sites


def test_warnings_leave_the_package_through_one_seam():
    assert _call_sites("warn") == ["types._intervene"]


def test_child_processes_start_and_end_in_one_seam():
    # kernels.Child alone forks, opens pipes, kills and reaps, for the
    # comparison worker and the fit's helper alike, and cli reaches no
    # private name of kernels: a second copy of that code would keep its
    # own faults after the first was mended
    assert {name: _call_sites(name) for name in (
        "fork", "pipe", "kill", "waitpid")} == {
        "fork": ["kernels._fork"],
        "pipe": ["kernels.Child.__enter__"],
        "kill": ["kernels.Child.__exit__"],
        "waitpid": ["kernels.Child.__exit__", "kernels.Child._lost"],
    }
    cli = pathlib.Path(trialmix.__file__).with_name("cli.py")
    names = []
    for node in ast.walk(ast.parse(cli.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "kernels":
            names += [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) == "kernels"):
            names.append(node.attr)
    assert [name for name in names if name.startswith("_")] == []


def test_one_function_builds_the_responding_design():
    # the fit's mean block and the amplitude t-test share one product of
    # the design with the responding precision; a second one would let
    # their bits drift apart
    assert _call_sites("kron_apply") == ["inference._gls_design"]
    assert _call_sites("kron") == []


def test_readme_names_every_declared_file():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    assert [name for name in io.ARTIFACTS if f"`{name}`" not in readme] == []


def test_readme_library_example_runs():
    readme = pathlib.Path(__file__).parents[1] / "README.md"
    section = readme.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "InferenceConfig(q=0.05)" in code
    assert "PcsConfig(n_components=3)" in code
    exec(compile(code, str(readme), "exec"), {})
