"""Build script: compiles the optional consensus kernel.

The package is pure Python by default.  With a C compiler, setuptools also
builds ``zoomgrad/consensus/_ckernel.c``, a hand-written C99 extension that
the engine picks up at import time.  The extension is optional, so a missing
compiler or a failed compile downgrades to a pure install.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "zoomgrad.consensus._ckernel",
            ["src/zoomgrad/consensus/_ckernel.c"],
            optional=True,
        )
    ]
)
