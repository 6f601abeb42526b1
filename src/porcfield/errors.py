"""Exception types shared across the package."""


class ScaleCapError(Exception):
    """A size cap was exceeded; the message names the cap."""


class ConsistencyError(Exception):
    """An internal exactness invariant failed; indicates a synthesis bug."""
