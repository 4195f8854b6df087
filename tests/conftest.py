"""One hypothesis profile for the whole suite: no per-example deadline,
since FFT, matmul and sampler property tests vary in speed from run to
run on a shared machine.  Each test still sets its own max_examples."""

from hypothesis import settings

settings.register_profile("mathieu-geom", deadline=None)
settings.load_profile("mathieu-geom")
