"""The error for a broken invariant of the library itself."""


class InternalError(RuntimeError):
    """A check that holds for every valid input has failed: a bug in
    toricell, not a fault of the input.  Not a ValueError, so no caller
    mistakes it for invalid input; the CLI exits 3 on it."""
