"""Exception types shared across the package."""


class PathAuctionError(Exception):
    """Base class for every domain error raised by this package."""


class FormatError(PathAuctionError, ValueError):
    """Malformed input: cost strings, graph files, bid files, configs."""


class Disconnected(PathAuctionError):
    """No source-to-sink path exists in the (sub)graph at hand."""


class TooLarge(PathAuctionError):
    """Brute-force enumeration guard exceeded."""


class TieError(PathAuctionError):
    """Two alternatives tie in cost where a strict order is required."""


class InsufficientPaths(PathAuctionError):
    """The supplied ranked path list is too short to settle the question."""


class EmptyGroup(PathAuctionError):
    """A profit share was requested for a group with no members."""


class NonpositiveProfit(PathAuctionError):
    """A profit share was requested for a nonpositive pool."""


class GridTooLarge(PathAuctionError):
    """The bid-grid product space exceeds the enumeration guard."""


class GenerationFailed(PathAuctionError):
    """Random instance generation exhausted its retry budget."""
