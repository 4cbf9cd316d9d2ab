"""Sign-free number systems with exact Q(sqrt 3) arithmetic.

Three systems, each encoding signed quantities positionally instead of
with a sign symbol:

* :class:`UnsignedPair` -- signed reals as ``{plus, minus}``;
* :class:`CyclicTriple` -- complex numbers as nonnegative ``(a, b, c)``
  with a cyclic product rule;
* :class:`CyclicMatrix` -- a commutative hypercomplex system of 3x3
  nonnegative matrices read as three triple columns, with sixteen named
  unit constants, 27 rotation zeros and a multiplicative seminorm.

All arithmetic is exact over Q(sqrt 3); floating point appears only in
diagnostic output (norms, complex conversions, characters).
"""

from . import scalars, pairs, triples, matrices, units, expressions, verify  # dependency order
from .scalars import *
from .pairs import *
from .triples import *
from .matrices import *
from .units import *
from .expressions import *
from .verify import *

__version__ = "0.1.0"

# every module's public names, in import order; `cli` is not imported
__all__ = [
    name
    for module in (scalars, pairs, triples, matrices, units, expressions, verify)
    for name in module.__all__
]
