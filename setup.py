from setuptools import Extension, setup

# The C kernel is an optional speedup: when it cannot be compiled, the
# build warns and the package runs on the pure-Python kernel in
# lexext._core_py.
setup(
    ext_modules=[
        Extension(
            "lexext._core_c",
            ["src/lexext/_core_c.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
