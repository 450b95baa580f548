"""The one exception type that choilab raises to refuse an input."""


class ChoilabError(Exception):
    """Every refusal raised by this package; the CLI prints its message and exits 2."""
