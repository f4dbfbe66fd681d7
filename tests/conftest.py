"""Shared test configuration: property tests run deterministically."""

from hypothesis import settings

settings.register_profile("levelcross", derandomize=True, deadline=None, database=None)
settings.load_profile("levelcross")
