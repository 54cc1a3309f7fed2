"""Command-line utilities built on the library.

* ``python -m repro.tools.replay`` — replay a saved protocol trace (or a
  ``.slimpm`` bundle's wire capture) over a simulated link at any
  bandwidth and report the added-delay profile (the Figure 6
  methodology as a tool).
* ``python -m repro.tools.capacity`` — size a server for a workgroup mix
  (the Figure 9/12 machinery as a planner).
* ``python -m repro.tools.postmortem`` — the one reader of ``.slimpm``
  bundles, the runner's ``--record`` and the flight recorder's: what
  fired, per-stage blame, stage-latency percentiles, the loss-recovery
  timeline, per-command wire statistics, the windowed series as
  sparklines, the saved SLO verdict as a gate, and one Chrome
  ``trace_event`` export of the traces and the series.

Run as processes they share one exit contract (:func:`run_cli`): input
the tool cannot read is one ``invalid input: ...`` line and exit 2,
never a traceback.
"""

import sys
from typing import Callable

from repro.errors import ReproError

__all__ = ["run_cli"]


def run_cli(main: Callable[[], int]) -> None:
    """Exit with ``main()``'s status; a named error or an unreadable
    file exits 2 with one line on stderr, a closed pipe exits 0."""
    try:
        sys.exit(main())
    except BrokenPipeError:  # `... --timeline | head` is a normal workflow
        sys.exit(0)
    except (ReproError, OSError, ValueError) as exc:  # incl. UnicodeDecodeError
        print(f"invalid input: {exc}", file=sys.stderr)
        sys.exit(2)
