"""numpy for the numeric modules, loaded on first use.

The exact layer (``rootsys``, ``cascade``, ``nilalg``, ``plancherel``,
``limits``) is pure rational arithmetic, but ``cli`` imports the numeric
modules, which name numpy.  ``np`` here is numpy itself when numpy was
imported before stepsq, and otherwise a module that ``LazyLoader`` (the
standard-library recipe for start-up-critical programs) loads on its first
attribute access.  So ``roots``, ``cascade``, ``layers``, ``axioms`` and
``pfaffian`` never load numpy, and the numeric commands load it at their first
``np.*``.

Two rules keep it lazy:
- no stepsq module has an ``import numpy`` statement, since importing a
  module already in ``sys.modules`` reads its ``__spec__``, which loads it;
- no module-level code touches ``np.*`` (annotations are strings under
  ``from __future__ import annotations``).

``LazyLoader`` is not thread-safe on Python 3.11; stepsq is single-threaded.
"""

import importlib.util
import sys


def _numpy():
    """numpy if imported, else a numpy module that loads on first use."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _numpy()
