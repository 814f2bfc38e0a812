"""Build script: compiles the optional C kernel.

The package is pure Python by default.  With a C compiler, setuptools also
builds ``zoomgrad/_ckernel.c``, a hand-written C99 extension that holds the
consensus rounds, the random digraph's edge draws, the graph's diameter,
bulk bounded draws and the optimizer's class arithmetic; the graph module
picks it up at import time and the consensus engine binds the same module.
The extension is optional, so a missing compiler or a failed compile downgrades
to a pure install.  After editing the C file, rebuild the in-place module
with ``python3 setup.py build_ext --inplace``.
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
