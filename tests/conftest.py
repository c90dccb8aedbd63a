"""Fixtures shared by the unit and acceptance tests."""

import pytest

import permsym.kickedtop as kickedtop


@pytest.fixture(autouse=True)
def cold_otoc_setup():
    """Start and end every test with an empty OTOC set-up cache.

    A set-up left warm by an earlier test would skip the checks that a
    monkeypatched kernel must fail, so those tests would depend on order.
    """
    kickedtop.clear_otoc_setup()
    yield
    kickedtop.clear_otoc_setup()
