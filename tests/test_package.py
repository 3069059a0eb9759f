"""The package namespace: every public name is served lazily."""

import importlib
import inspect

import pytest

import resokit


def test_names_are_the_objects_of_their_defining_modules():
    for name, module_name in resokit._EXPORTS.items():
        module = importlib.import_module(f"resokit.{module_name}")
        obj = getattr(resokit, name)
        assert obj is getattr(module, name), name
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name


def test_dir_lists_every_name():
    assert set(resokit.__all__) <= set(dir(resokit))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from resokit import *", namespace)
    for name in resokit.__all__:
        assert namespace[name] is getattr(resokit, name), name


@pytest.mark.parametrize("name", ["no_such_name", "_EXPORTS_", "cli_main"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(resokit, name)
    assert not hasattr(resokit, name)


def test_one_error_class_per_kind_of_failure():
    from resokit import errors

    classes = {name: obj.__bases__ for name, obj in vars(errors).items() if inspect.isclass(obj)}
    assert classes == {
        "ResokitError": (Exception,),
        "InvalidInput": (errors.ResokitError, ValueError),
        "ParseError": (errors.InvalidInput,),
        "NumericalFailure": (errors.ResokitError,),
        "NoBoundState": (errors.NumericalFailure,),
        "RootAtGridBoundary": (UserWarning,),
    }
