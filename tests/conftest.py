"""Set-up shared by every test module."""

import warnings

# hypothesis's pytest plugin imports hypothesis.extra._patching to report a
# failing example. Where libcst is installed, that import raises
# mypy_extensions' TypedDict DeprecationWarning, which under
# filterwarnings = ["error"] or -W error ends the session with an
# INTERNALERROR: no falsifying example is printed and no later test runs.
# Imported once here with its warnings ignored, the module is cached for the
# plugin. An ini filter cannot do this, because -W error overrides it.
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # without libcst the plugin does not report patches
        pass
