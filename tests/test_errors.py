import inspect
import pickle

import pytest

from boxgap import errors

_CLASSES = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.BoxgapError)
]


def _instances():
    for cls in _CLASSES:
        if cls is errors.BoxgapError:
            yield errors.BoxgapError("a message")
            continue
        params = inspect.signature(cls).parameters.values()
        required = [p for p in params if p.default is inspect.Parameter.empty]
        yield cls(*range(1, len(required) + 1))
        if len(required) < len(params):  # the optional detail too
            yield cls(*range(1, len(required) + 1), "detail")


def test_every_class_is_covered():
    assert len(_CLASSES) > 15
    assert {type(e) for e in _instances()} == set(_CLASSES)


@pytest.mark.parametrize("exc", list(_instances()), ids=repr)
def test_pickle_round_trip(exc):
    # Worker processes send their exceptions back pickled.
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)
