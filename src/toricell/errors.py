"""The three errors of toricell, one for each nonzero exit code of the CLI.

Whose fault a failure is decides its class: the caller's (InputError,
exit 2), the mathematics' (ConstructionError, exit 1), or toricell's own
(InternalError, exit 3).  Every raise in the package names one of them.
"""


class InputError(ValueError):
    """The input document, an option, an argument or a requested bound is
    invalid or too large.  The CLI exits 2 on it."""


class ConstructionError(ValueError):
    """The input is valid, but the construction it asks for does not
    exist: no cell complex, no incidence function, d.d != 0, no torus
    tiling.  The CLI exits 1 on it."""


class InternalError(RuntimeError):
    """A check that holds for every valid input has failed: a bug in
    toricell, not a fault of the input.  Not a ValueError, so no caller
    mistakes it for invalid input; the CLI exits 3 on it."""
