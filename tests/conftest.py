"""One Hypothesis profile for the whole suite: every property test draws the
same examples on every run (seeded from the test itself, with no example
database to replay), and no example has a deadline."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
