"""The LAPACK routines the package calls, loaded without scipy.linalg.

Importing scipy.linalg costs about 0.3 s and 24 MB, mostly in an array-API
layer that pulls in numpy.f2py, numpy.testing and numpy.ma.  The routines
live in one extension, loaded here by file under its real name,
scipy.linalg._flapack: a later ``import scipy.linalg`` reuses this module,
so each routine below is the very object scipy.linalg.lapack exposes.
"""

import importlib.util
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"
_FOLDER = Path(scipy.__file__).parent / "linalg"
_FILES = [_FOLDER / f"_flapack{s}" for s in EXTENSION_SUFFIXES
          if (_FOLDER / f"_flapack{s}").is_file()]
_lib = sys.modules.get(_NAME)
if _lib is None and _FILES:
    _spec = importlib.util.spec_from_file_location(_NAME, _FILES[0])
    _lib = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_lib)
    sys.modules[_NAME] = _lib
if _lib is None:
    from scipy.linalg import _flapack as _lib    # a layout without the file

dgtsv, dpbtrf, dpbtrs = _lib.dgtsv, _lib.dpbtrf, _lib.dpbtrs
dpttrf, dpttrs, dstebz = _lib.dpttrf, _lib.dpttrs, _lib.dstebz
