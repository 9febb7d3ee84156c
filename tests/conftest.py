from hypothesis import HealthCheck, settings

# Big-integer examples can blow the default per-example deadline on slow
# boxes; determinism matters more than wall-clock here.
settings.register_profile(
    "enumtree",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("enumtree")
