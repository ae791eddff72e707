import types

import tgcl


def test_all_lists_exactly_the_public_names():
    # a stale entry breaks `from tgcl import *` but not `import tgcl`
    public = {name for name, value in vars(tgcl).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(tgcl.__all__)) == len(tgcl.__all__)
    assert set(tgcl.__all__) == public | {"__version__"}
    namespace = {}
    exec("from tgcl import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(tgcl.__all__)
