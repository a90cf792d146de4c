"""Every public name a module lists in `__all__` must exist, so that
`from quasiphase.<module> import *` keeps working after a deletion."""

import pytest

from quasiphase import analysis, channels, cli, fock, phasespace


@pytest.mark.parametrize("module", [fock, phasespace, channels, analysis, cli],
                         ids=lambda m: m.__name__)
def test_all_names_exist(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
