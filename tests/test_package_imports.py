"""The package namespace: names resolve from their home module on first use."""

import importlib
import pathlib
import subprocess
import sys

import pytest

import digitaudit

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_law_import_loads_only_the_law_module():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "from digitaudit import nth_digit_prob\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'digitaudit'))\n"
        "print('dataclasses' in sys.modules)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    loaded, dataclasses_loaded = done.stdout.splitlines()
    assert loaded == str(["digitaudit", "digitaudit.digit_laws", "digitaudit.errors"])
    assert dataclasses_loaded == "False"


def test_gof_tests_does_not_load_the_transform_layer():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import digitaudit.gof_tests\n"
        "print('digitaudit.transforms' in sys.modules, 'digitaudit.series' in sys.modules)\n"
        "import digitaudit.report\n"
        "print(digitaudit.run_battery is digitaudit.report.run_battery)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.splitlines() == ["False False", "True"]


def test_every_public_name_is_its_home_object():
    assert len(digitaudit.__all__) == len(set(digitaudit.__all__))
    for name in digitaudit.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"digitaudit.{digitaudit._HOME[name]}")
        assert getattr(digitaudit, name) is getattr(home, name), name


def test_dir_and_star_import_cover_all():
    assert set(digitaudit.__all__) <= set(dir(digitaudit))
    namespace = {}
    exec("from digitaudit import *", namespace)
    assert set(digitaudit.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        digitaudit.no_such_name
    assert not hasattr(digitaudit, "no_such_name")


def test_submodule_resolves_after_bare_import():
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r})\n"
        "import digitaudit\n"
        "print(digitaudit.gof_tests.__name__)\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == "digitaudit.gof_tests"


def test_wrapper_set_on_the_package_is_seen_and_restored():
    # The benchmark tracer's pattern: hasattr, setattr a wrapper, restore.
    assert hasattr(digitaudit, "load_csv")
    raw = digitaudit.load_csv
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    setattr(digitaudit, "load_csv", wrapper)
    try:
        assert digitaudit.load_csv is wrapper
        digitaudit.load_csv(digitaudit.bundled_data_dir() / "synthetic_budget.csv")
        assert len(calls) == 1
    finally:
        setattr(digitaudit, "load_csv", raw)
    assert digitaudit.load_csv is raw
    assert digitaudit.load_csv is digitaudit.ingest.load_csv
