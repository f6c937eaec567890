"""The package's public names and submodules, each loaded on first use."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import kuniform

SRC = Path(__file__).resolve().parents[1] / "src"
LOADED = "print(sorted(m for m in sys.modules if m.startswith('kuniform')))\n"


def _probe(code):
    """What `code` prints in a fresh interpreter that finds the package in SRC."""
    code = f"import sys\nsys.path.insert(0, {str(SRC)!r})\n{code}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_package_name_is_its_module_object():
    assert len(kuniform._EXPORTS) == 41  # the names once imported at package import
    for name, module in kuniform._EXPORTS.items():
        assert not name.startswith("_"), name
        defined = getattr(importlib.import_module(f"kuniform.{module}"), name)
        assert getattr(kuniform, name) is defined, name


def test_dir_and_star_import_list_every_name():
    names = set(kuniform._EXPORTS)
    assert names <= set(dir(kuniform)) and set(kuniform.__all__) == names
    namespace = {}
    exec("from kuniform import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == names
    assert all(namespace[name] is getattr(kuniform, name) for name in namespace)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        kuniform.no_such_name  # noqa: B018
    assert not hasattr(kuniform, "_c_numerators")  # a private name is not exported


def test_names_load_their_module_at_first_read():
    # `import kuniform` loads no submodule; a name loads only its module,
    # and `from kuniform import <submodule>` still imports the submodule
    probe = (
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('kuniform'))\n"
        "import kuniform\n"
        "print(loaded(), 'ame_verdict' in vars(kuniform))\n"
        "verdict = kuniform.ame_verdict\n"
        "print(loaded(), vars(kuniform)['ame_verdict'] is verdict)\n"
        "from kuniform import bounds\n"
        "print(loaded(), bounds.__name__)\n"
    )
    assert _probe(probe).splitlines() == [
        "['kuniform'] False",
        "['kuniform', 'kuniform.errors', 'kuniform.exact', 'kuniform.hetero'] True",
        "['kuniform', 'kuniform.bounds', 'kuniform.enumerators', 'kuniform.errors',"
        " 'kuniform.exact', 'kuniform.hetero'] kuniform.bounds",
    ]


def test_the_submodule_names_are_the_module_files():
    stems = {path.stem for path in (SRC / "kuniform").glob("*.py")}
    assert kuniform._MODULES == stems - {"__init__"}


@pytest.mark.parametrize("name", sorted(kuniform._MODULES))
def test_a_submodule_loads_at_its_first_read_what_its_import_loads(name):
    # the read binds the module in the package, so later reads are plain
    read = _probe(
        f"import kuniform\nmodule = kuniform.{name}\n"
        f"print(vars(kuniform)[{name!r}] is module is sys.modules['kuniform.{name}'])\n{LOADED}"
    )
    assert read == "True\n" + _probe(f"import kuniform.{name}\n{LOADED}")


def test_an_unknown_or_protocol_name_imports_nothing():
    # `inspect.unwrap` asks for __wrapped__; it is no submodule to import
    probe = (
        "import kuniform\n"
        "for name in ('no_such_module', '__wrapped__'):\n"
        "    try:\n"
        "        getattr(kuniform, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    assert _probe(probe + LOADED).splitlines() == [
        "module 'kuniform' has no attribute 'no_such_module'",
        "module 'kuniform' has no attribute '__wrapped__'",
        "['kuniform']",
    ]
