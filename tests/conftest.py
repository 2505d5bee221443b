try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # derandomized: every run draws the same examples, so a property test
    # passes or fails the same way on every machine and rerun
    settings.register_profile("charspec", derandomize=True, database=None, deadline=None)
    settings.load_profile("charspec")
