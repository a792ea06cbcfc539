"""``python -m repro`` entry point.

User errors (a bad flag combination, an unknown scenario) print one
``repro: error: ...`` line and exit 2, the code argparse uses for usage
errors; :func:`repro.cli.main` itself keeps raising, for callers that
catch :class:`~repro.errors.ConfigurationError`.
"""

import sys

from repro.cli import main
from repro.errors import ConfigurationError

try:
    sys.exit(main())
except ConfigurationError as exc:
    print(f"repro: error: {exc}", file=sys.stderr)
    sys.exit(2)
