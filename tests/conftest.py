"""Shared test configuration: reproducible hypothesis runs."""

from hypothesis import settings

# derandomize: every run draws the same examples; no deadline, because
# timing on a shared machine is not a property of the code
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")
