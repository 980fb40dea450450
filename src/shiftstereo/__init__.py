"""Stereo matching with a shared 2D matching network per disparity shift.

Submodules: ``tensor``/``ops``/``gradcheck`` (autodiff kernel), ``model``
(the four-stage network), ``baseline`` (the resource estimator),
``training``, ``datasets``, ``evaluation``, ``cli``.

Imports are lazy so the CLI can pin thread environment variables before
numpy loads.
"""

__version__ = "0.1.0"

_SUBMODULES = ("tensor", "ops", "gradcheck", "model", "baseline",
               "training", "datasets", "evaluation", "cli", "errors")


def __getattr__(name):
    if name in _SUBMODULES:
        import importlib
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
