from hypothesis import settings

# `ci`, the default, draws the same examples on every run; `stress` draws new
# ones each time: pytest --hypothesis-profile=stress tests/test_solver_oracle.py
settings.register_profile("ci", deadline=None, derandomize=True, max_examples=50)
settings.register_profile("stress", deadline=None, derandomize=False, max_examples=2000)
settings.load_profile("ci")
