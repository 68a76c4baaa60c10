"""Shared test settings.

Property tests run under a fixed hypothesis profile: derandomized, so the
suite explores the same examples on every run, with no per-example
deadline (the first call of a run pays import and set-up costs) and a
bounded example count, so the properties add only a few seconds.
"""

from hypothesis import settings

settings.register_profile(
    "rmrsim", derandomize=True, deadline=None, max_examples=100, database=None
)
settings.load_profile("rmrsim")
