"""Build script: compiles the optional C kernel ``zoomgrad/_ckernel.c``,
whose header comment describes it.

The package is pure Python by default.  The extension is optional, so a
missing compiler or a failed compile downgrades to a pure install.  After
editing the C file, rebuild the in-place module with
``python3 setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "zoomgrad._ckernel",
            ["src/zoomgrad/_ckernel.c"],
            optional=True,
        )
    ]
)
