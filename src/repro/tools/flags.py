"""The flags and source reading the tools share.

A tool that names a machine, an engine, a scheduling policy or compile
options declares the flag here, so it has the same choices, default and
wording wherever it appears, and a new target, engine, policy or cache
kind reaches every tool at once.  The parsed
values describe a :class:`repro.runspec.FarmJob`.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.compiler.driver import CompileOptions
from repro.machine.config import default_target, target_names
from repro.runtime.cachekinds import CACHE_KIND_CHOICES
from repro.sched.policy import POLICY_NAMES
from repro.vm.interpreter import DEFAULT_ENGINE, ENGINE_NAMES


def add_target_flag(
    parser: argparse.ArgumentParser,
    help: str = "registered machine target (default: cell, or REPRO_TARGET)",
    **kwargs,
) -> None:
    kwargs.setdefault("default", default_target())
    parser.add_argument(
        "--target", choices=list(target_names()), help=help, **kwargs
    )


def add_engine_flag(
    parser: argparse.ArgumentParser,
    help: str = "execution engine (default: repro.vm.DEFAULT_ENGINE — "
                f"REPRO_VM_ENGINE if set, currently {DEFAULT_ENGINE!r})",
) -> None:
    parser.add_argument(
        "--engine", choices=list(ENGINE_NAMES), default=None, help=help
    )


def add_policy_flag(parser: argparse.ArgumentParser, help: str) -> None:
    """What naming a policy *means* is each tool's to say."""
    parser.add_argument(
        "--policy", choices=list(POLICY_NAMES), default=None, help=help
    )


def add_queue_depth_flag(
    parser: argparse.ArgumentParser, note: str = ""
) -> None:
    parser.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="bound each accelerator's ready queue at N jobs (0 = "
             "unbounded; default: the target's sched_queue_depth); a "
             "full queue stalls the host (backpressure)" + note,
    )


def add_compile_flags(parser: argparse.ArgumentParser) -> None:
    """The compile group; read back with :func:`compile_options`."""
    parser.add_argument("--optimize", action="store_true",
                        help="run the IR optimiser")
    parser.add_argument("--demand-load", action="store_true",
                        help="enable on-demand code loading")
    parser.add_argument(
        "--cache", choices=list(CACHE_KIND_CHOICES), default="none",
        help="default software cache for un-annotated offloads",
    )
    parser.add_argument(
        "--wordaddr", choices=["hybrid", "emulate"], default="hybrid",
        help="Section 5 addressing mode on word-addressed targets",
    )


def compile_options(args: argparse.Namespace) -> CompileOptions:
    return CompileOptions(
        wordaddr_mode=args.wordaddr,
        default_cache=args.cache,
        optimize=args.optimize,
        demand_load=args.demand_load,
    )


def read_source(path: str) -> Optional[str]:
    """The text of ``path``, or None after printing why it can't be read."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
