"""Command-line tools: ``python -m repro.tools.<name>``.

``run``, ``sched`` and ``bench`` describe each run as a
:class:`repro.runspec.FarmJob` and execute it through
:mod:`repro.runspec`, the path ``farm`` batches take too; ``run`` is
the one that traces a run.  ``check`` and ``report`` run nothing.  Flags that several tools take are declared
once in :mod:`repro.tools.flags`.
"""
