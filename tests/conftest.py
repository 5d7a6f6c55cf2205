from hypothesis import settings

# derandomized so that every run of the suite draws the same examples
settings.register_profile("stefansim", derandomize=True, max_examples=12,
                          deadline=None)
settings.load_profile("stefansim")
