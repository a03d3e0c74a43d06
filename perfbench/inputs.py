"""Seeded input generation: every source the workloads feed the program.

Shapes (entity, pair, particle, object and type counts) are drawn from
one ``random.Random(seed)``; the program under test only ever sees the
generated source text.  Draws are *balanced*: a jitter added to one shape
is subtracted from its partner, so the total amount of work in a pass is
nearly the same for every seed and the end-to-end timings of two seeds
can be compared within the benchmark's bounds.  What the seed changes is
which shape lands on which job, the shapes themselves within a narrow
band, and the order jobs run in.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

from repro.compiler import CompileOptions
from repro.farm import FarmJob
from repro.game import sources as game
from repro.machine import target_names

_HERE = os.path.dirname(os.path.abspath(__file__))

#: Scheduling policy of every simulated job (the paper's data-locality
#: placement; it makes ``sched`` do real work on ``manycore``).
POLICY = "locality"


def _balanced(rng: random.Random, count: int, spread: int) -> list[int]:
    """``count`` distinct non-zero jitters in ``[-spread, spread]`` that
    sum to zero (``count`` even): each draw is paired with its negation.
    Distinct, so no two shapes coincide and share a compiled program."""
    half = rng.sample(range(1, spread + 1), count // 2)
    jitters = half + [-j for j in half]
    rng.shuffle(jitters)
    return jitters


def _figure2_shapes(rng: random.Random, count: int, entities: int,
                    spread: int) -> list[tuple[int, int]]:
    """(entity_count, pair_count) per Figure 2 frame."""
    return [
        (entities + j, entities + j - 12)
        for j in _balanced(rng, count, spread)
    ]


# ---------------------------------------------------------------- sim_*


def sim_jobs(seed: int, unified: bool) -> list[FarmJob]:
    """The warm simulation mix: four Figure 2 frames, a fifth on a
    second target, the whole-frame demo, the AI kernel and the
    accessor-staged move loop.

    ``unified=False`` compiles them for the scratch-pad targets (``cell``,
    one frame on ``manycore``); ``unified=True`` compiles the *same
    sources* for the unified-memory targets (``apu``, one frame on
    ``smp``) and adds the host-only Figure 2 frame on ``cell`` — none of
    which issues a DMA, probes a software cache or uploads code.
    """
    rng = random.Random(seed)
    frames = _figure2_shapes(rng, 4, entities=42, spread=2)
    extra_entities = 40 + rng.randint(-1, 1)
    particles = 12 + rng.randint(-2, 2)
    ai_entities = 128 + 4 * rng.randint(-2, 2)
    objects = 512 + 16 * rng.randint(-2, 2)
    main, second = ("apu", "smp") if unified else ("cell", "manycore")
    specs = [
        (f"figure2-{n}", game.figure2_source(e, p, frames=1), main)
        for n, (e, p) in enumerate(frames)
    ]
    extra = game.figure2_source(extra_entities, extra_entities - 12, frames=1)
    specs += [
        ("figure2-second-target", extra, second),
        ("game-demo",
         game.game_demo_source(24, 16, particles, frames=2), main),
        ("ai-kernel",
         game.ai_kernel_source(ai_entities, 4, cache="direct"), main),
        ("move-loop-accessor",
         game.move_loop_source(objects, use_accessor=True, cache="direct"),
         main),
    ]
    if unified:
        specs.append((
            "figure2-host-only",
            game.figure2_source(
                extra_entities, extra_entities - 12, frames=1,
                offloaded=False,
            ),
            "cell",
        ))
    return [
        FarmJob(workload=name, source=source, target=target, policy=POLICY)
        for name, source, target in specs
    ]


# ------------------------------------------------------------ edit_cold


@dataclass(frozen=True)
class EditVariant:
    """One program a developer keeps editing: the base source (every
    measured job appends a unique comment to it), target and options."""

    name: str
    source: str
    target: str
    options: CompileOptions

    def job(self, edit: str) -> FarmJob:
        return FarmJob(
            workload=self.name,
            source=f"{self.source}\n// edit {edit}\n",
            target=self.target,
            policy=POLICY,
            options=self.options,
        )


#: (types, methods) of the component systems.  Fixed: they set how much
#: code there is to compile and analyse, so letting the seed draw them
#: would move every compile-bound timing by tens of per cent.  The seed
#: draws the entity counts instead, which only the simulation sees.
_ABSTRACT_SHAPE = (4, 6)
_SPECIALIZED_SHAPE = (3, 4)


def edit_variants(seed: int) -> list[EditVariant]:
    """Six small programs: the component system (abstract and
    type-specialised) and the whole-frame demo, each for ``cell`` and
    ``apu``; the demo is compiled with the IR optimiser on, so the
    ``optimize`` pass is exercised by one kind in three."""
    rng = random.Random(seed)
    a_types, a_methods = _ABSTRACT_SHAPE
    s_types, s_methods = _SPECIALIZED_SHAPE
    entities = _balanced(rng, 2, 1)
    particles = 8 + rng.randint(-1, 1)
    plain = CompileOptions()
    optimized = CompileOptions(optimize=True)
    variants = []
    for target in ("cell", "apu"):
        variants += [
            EditVariant(
                f"components-abstract-{target}",
                game.component_system_source(
                    a_types, 4 + entities[0], a_methods),
                target, plain,
            ),
            EditVariant(
                f"components-specialized-{target}",
                game.component_system_source(
                    s_types, 4 + entities[1], s_methods, specialized=True),
                target, plain,
            ),
            EditVariant(
                f"game-demo-{target}",
                game.game_demo_source(12, 8, particles, frames=1),
                target, optimized,
            ),
        ]
    return variants


# ------------------------------------------------------- check_verdicts


def _known_bad(name: str) -> str:
    with open(os.path.join(_HERE, "sources", name), encoding="utf-8") as fh:
        return fh.read()


def expected_verdicts() -> dict[str, dict[str, list[str]]]:
    """program -> target -> the error codes it must get there (the
    hand-written ``expected_verdicts.json``; unlisted pairs: none)."""
    path = os.path.join(_HERE, "expected_verdicts.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["programs"]


def check_corpus(seed: int) -> list[tuple[str, str]]:
    """(program name, source): ``repro.tools.check``'s nine game-corpus
    generators with seeded shapes, the racy Figure 1 variant, and the two
    hand-written known-bad programs under ``perfbench/sources/``."""
    rng = random.Random(seed)
    a_types, a_methods = _ABSTRACT_SHAPE
    s_types, s_methods = _SPECIALIZED_SHAPE
    entities = 40 + rng.randint(-8, 8)
    per_type = 4 + rng.randint(-1, 1)
    return [
        ("figure1", game.figure1_source(entities // 2, entities // 4)),
        ("figure2", game.figure2_source(entities, entities - 12)),
        ("components-abstract",
         game.component_system_source(a_types, per_type, a_methods)),
        ("components-specialized",
         game.component_system_source(
             s_types, per_type, s_methods, specialized=True)),
        ("ai-kernel", game.ai_kernel_source(entities, 4)),
        ("move-loop", game.move_loop_source(entities)),
        ("move-loop-accessor",
         game.move_loop_source(entities, use_accessor=True, cache="direct")),
        ("word-struct", game.word_struct_source(entities)),
        ("game-demo", game.game_demo_source(entities, entities - 12, 16)),
        ("figure1-racy", game.figure1_racy_source()),
        ("dma-overrun", _known_bad("dma_overrun.om")),
        ("local-overflow", _known_bad("local_overflow.om")),
    ]


def check_specs(seed: int) -> list[tuple[str, str, str]]:
    """(program name, source, target) for every program x registry
    target, in a seeded order."""
    specs = [
        (name, source, target)
        for name, source in check_corpus(seed)
        for target in target_names()
    ]
    random.Random(seed).shuffle(specs)
    return specs


# -------------------------------------------------------- farm_diskwarm

#: Each program appears this many times in a batch: the first occurrence
#: is served from the disk cache, the repeats from its worker's memo.
#: With five, first occurrences are the slowest fifth of the jobs, so the
#: 90th percentile falls in the middle of them and the median well inside
#: the repeats; with two or three both sit at the edge of a group.
FARM_REPEATS = 5


def farm_batch(seed: int) -> list[FarmJob]:
    """One CI/DSE-shaped batch: eight short Figure 2 frames x ``cell`` and
    ``apu`` x :data:`FARM_REPEATS` = 80 jobs, shuffled."""
    rng = random.Random(seed)
    shapes = _figure2_shapes(rng, 8, entities=26, spread=6)
    jobs = [
        FarmJob(
            workload=f"figure2-{n}-{target}",
            source=game.figure2_source(e, p, frames=1),
            target=target,
            policy=POLICY,
        )
        for n, (e, p) in enumerate(shapes)
        for target in ("cell", "apu")
    ] * FARM_REPEATS
    rng.shuffle(jobs)
    return jobs
