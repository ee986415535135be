from hypothesis import settings

settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
