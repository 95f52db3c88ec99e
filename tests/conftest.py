from hypothesis import settings

# tier-1 draws the same examples on every run, and a slow example (a
# whole pipeline run) is not a failure
settings.register_profile("tier1", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tier1")
