from setuptools import Extension, setup

# The sampler is plain C (no Python API) loaded through ctypes by
# autocam360/_resample.py.  -ffp-contract=off keeps it bit-identical to the
# NumPy fallback (no FMA contraction of the bilinear blend).  The build is
# optional: without a C compiler the package uses the NumPy kernel.
setup(
    ext_modules=[
        Extension(
            "autocam360._resample_c",
            ["src/autocam360/_resample_c.c"],
            extra_compile_args=["-O3", "-ffp-contract=off"],
            optional=True,
        )
    ],
)
