"""Exception types shared across the package.  A run the engine cannot take,
with a key ill-typed or past a size budget, raises ``ConfigError``; its
message starts with that key, and the CLI exits 2 on it."""


class CapabilityError(ValueError):
    """A model was asked for an oracle it does not expose."""


class ConfigError(ValueError):
    """A run configuration failed validation; message names the offending key."""
