"""Exception hierarchy shared by all choilab modules."""


class ChoilabError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(ChoilabError):
    pass


class IndexOutOfRange(ChoilabError):
    pass


class UnknownParty(ChoilabError):
    pass


class BadWeights(ChoilabError):
    pass


class NotPSD(ChoilabError):
    pass


class OverlappingGroups(ChoilabError):
    pass


class NotSchmidtRank2(ChoilabError):
    pass


class LocalizationFailed(ChoilabError):
    pass


class ParseError(ChoilabError):
    pass
