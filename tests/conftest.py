import os

from hypothesis import settings

# CI selects a reproducible run with HYPOTHESIS_PROFILE=ci; local runs keep the default.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
