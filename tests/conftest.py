import os

from hypothesis import HealthCheck, settings

settings.register_profile(
    "ssderiv",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# a longer search for the differential tests, selected with HYPOTHESIS_PROFILE=deep
settings.register_profile("deep", settings.get_profile("ssderiv"), max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ssderiv"))
