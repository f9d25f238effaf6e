from hypothesis import settings

# every property test draws 40 examples from a fixed derivation, so a run is
# reproducible and no example is held to a wall-clock deadline
settings.register_profile("derandomized", max_examples=40, deadline=None, derandomize=True)
settings.load_profile("derandomized")
