"""Shared test configuration: async test support and pattern oracles.

The asyncio lane prefers ``pytest-asyncio`` (pinned in the ``[test]``
extras, ``asyncio_mode = "auto"`` in pyproject.toml).  Offline
environments without the plugin still run every async test: the hook
below detects plain ``async def`` tests and drives each through
``asyncio.run`` with its (synchronous) fixtures resolved as usual.

``pattern_mode`` runs a test twice: on the compiled ``Pattern`` paths
and on the reference walkers that specify them (``pattern_oracle``).
"""

import asyncio
import inspect

import pytest

@pytest.fixture
def reference_patterns(monkeypatch):
    """Patch every compiled ``Pattern`` method to its segment-walking
    specification in ``pattern_oracle`` (same signature) for the rest
    of the test, so the oracle serves every match, slot tuple and
    expansion the code under test asks for."""
    import pattern_oracle
    from repro.core.pattern import Pattern

    for name in ("match", "slot_tuple", "expand"):
        monkeypatch.setattr(
            Pattern, name, getattr(pattern_oracle, f"{name}_reference")
        )


@pytest.fixture(params=["compiled", "reference"])
def pattern_mode(request):
    """Parametrize over the compiled paths and the reference walkers;
    a module opts in whole with ``pytest.mark.usefixtures``."""
    if request.param == "reference":
        request.getfixturevalue("reference_patterns")
    return request.param


@pytest.hookimpl(tryfirst=True)
def pytest_pyfunc_call(pyfuncitem):
    if pyfuncitem.config.pluginmanager.hasplugin("asyncio"):
        return None  # pytest-asyncio owns async tests when installed
    func = pyfuncitem.obj
    if not inspect.iscoroutinefunction(func):
        return None
    kwargs = {
        name: pyfuncitem.funcargs[name]
        for name in pyfuncitem._fixtureinfo.argnames
    }
    asyncio.run(func(**kwargs))
    return True
