import types

import hypermatch


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(hypermatch).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert all(hasattr(hypermatch, name) for name in hypermatch.__all__)
    assert sorted(hypermatch.__all__) == sorted(public)
