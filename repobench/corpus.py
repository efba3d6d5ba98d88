"""Seeded benchmark inputs with known answers.

Every unit the benchmark checks comes from one of two sources:

* the 30 paper snippets (``SNIPPETS + STABLE_SNIPPETS``), fixed, with the
  known answer ``Snippet.is_unstable``;
* programs from :class:`repro.fuzz.generator.ProgramGenerator`, drawn from a
  ``random.Random(seed)``, with the known answer
  ``GeneratedProgram.expected_unstable``.

The seed changes only the generated part, and only its constants and
names: every seed's programs have the shapes of one fixed reference draw
(see :func:`fuzz_items`), which keeps the amount of work per run nearly
the same across seeds.

An :class:`Item` is a template; :meth:`Item.unit` renders it under a tag,
which goes into every global identifier and into the unit name.  Re-rendering
under another tag gives a structurally identical unit under fresh names —
what the warm workloads use to hit the solver-query cache.
:func:`verdict_digest` hashes the ``verdict_view``-normalised unit records
with each unit's tag replaced by ``{S}``, so renderings of one corpus under
different tags share one digest.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.corpus.snippets import SNIPPETS, STABLE_SNIPPETS
from repro.engine import WorkUnit, verdict_view
from repro.engine.sink import report_to_dict
from repro.fuzz.generator import (ALL_SCENARIOS, GeneratedProgram,
                                  ProgramGenerator, build_ir_module)

#: The fixed part of every corpus.
SNIPPET_TEMPLATES = list(SNIPPETS) + list(STABLE_SNIPPETS)

#: Generator scenarios that produce MiniC source (the rest build raw IR).
MINIC_SCENARIOS = tuple(s for s in ALL_SCENARIOS if not s.startswith("ir_"))


@dataclass(frozen=True)
class Item:
    """One template with its known answer."""

    base: str                               # stable name, tag-free
    kind: str                               # "snippet" | "minic" | "ir"
    expected_unstable: bool
    template: str = ""                      # MiniC with a {S} placeholder
    ir_spec: Optional[Dict[str, object]] = None

    def unit(self, tag: str) -> WorkUnit:
        """The work unit of this template rendered under ``tag``."""
        name = f"{self.base}__{tag}"
        if self.kind == "ir":
            spec = dict(self.ir_spec or {}, tag=tag)
            return WorkUnit(name=name, module=build_ir_module(spec))
        return WorkUnit(name=name, source=self.template.replace("{S}", tag))


def snippet_items() -> List[Item]:
    """The 30 paper snippets, in their fixed order."""
    return [Item(base=s.name, kind="snippet", expected_unstable=s.is_unstable,
                 template=s.source_template) for s in SNIPPET_TEMPLATES]


#: Programs per (verdict, IR width) bucket of each scenario.
MINIC_QUOTA = {True: 5, False: 2}
IR_QUOTA = {(expected, width): 1 for expected in (True, False)
            for width in (16, 32, 64)}

#: The seed whose programs fix the shapes of every generated corpus.  Fixed.
SHAPE_SEED = 0
#: Draws spent looking for a program of one shape before falling back to
#: the reference program itself.
MAX_DRAWS = 5000


def shape(program: GeneratedProgram) -> tuple:
    """What sets a generated MiniC program's checking cost.

    The scenario and verdict, and the code with every number blanked
    (chain length, guard order, types).  Two programs of one shape differ
    only in their constants; programs of different shapes differ by up to
    100x in SAT work.
    """
    return (program.scenario, program.expected_unstable,
            re.sub(r"[0-9]+", "#", program.template))


def _bucketed(seed: int, scale: int, scenarios: Sequence[str],
              minic_quota: Dict[bool, int]) -> List[GeneratedProgram]:
    """Programs drawn from ``seed`` while their bucket has room."""
    generator = ProgramGenerator(random.Random(seed))
    programs: List[GeneratedProgram] = []
    index = 0
    for scenario in scenarios:
        minic = scenario in MINIC_SCENARIOS
        room = {key: quota * scale for key, quota in
                (minic_quota if minic else IR_QUOTA).items()}
        while any(room.values()):
            program = generator.generate(index, scenario=scenario)
            index += 1
            key = program.expected_unstable if minic else \
                (program.expected_unstable, program.ir_spec["width"])
            if room.get(key):
                room[key] -= 1
                programs.append(program)
    return programs


def fuzz_items(seed: int, scale: int = 1,
               scenarios: Sequence[str] = ALL_SCENARIOS,
               minic_quota: Dict[bool, int] = MINIC_QUOTA) -> List[Item]:
    """Generated programs from ``seed``, one per reference program.

    The reference programs come from :data:`SHAPE_SEED`, ``scale`` times
    the bucket quotas.  For each MiniC reference, ``random.Random(seed)``
    draws programs of its scenario until one has its :func:`shape`: a new
    seed changes every MiniC program's constants, but not how much work
    the corpus is, so runs with different seeds measure the same amount of
    work.  IR programs are the reference programs themselves: the
    constants of a 64-bit overflow chain alone move its SAT work by half.
    """
    generator = ProgramGenerator(random.Random(seed))
    items: List[Item] = []
    index = 0
    for reference in _bucketed(SHAPE_SEED, scale, scenarios, minic_quota):
        program = reference
        wanted = shape(reference) if reference.mode == "minic" else None
        for _ in range(MAX_DRAWS if wanted else 0):
            candidate = generator.generate(index, scenario=reference.scenario)
            index += 1
            if shape(candidate) == wanted:
                program = candidate
                break
        base = f"fuzz{program.index:05d}_{program.scenario}"
        if program.mode == "minic":
            items.append(Item(base=base, kind="minic",
                              expected_unstable=program.expected_unstable,
                              template=program.template))
        else:
            spec = {k: v for k, v in program.ir_spec.items() if k != "tag"}
            items.append(Item(base=base, kind="ir",
                              expected_unstable=program.expected_unstable,
                              ir_spec=spec))
    return items


def tag_for(rendering: int, index: int) -> str:
    """The identifier tag of unit ``index`` in rendering ``rendering``.

    Tags have a fixed width: diagnostic columns shift with identifier
    length, and the digest must not see a difference between renderings.
    """
    return f"Q{rendering:02d}q{index:04d}"


def render(items: Sequence[Item], rendering: int) -> List[WorkUnit]:
    """Every item rendered under the tags of ``rendering``."""
    return [item.unit(tag_for(rendering, index))
            for index, item in enumerate(items)]


def flagged(report) -> bool:
    """A unit's verdict: did the checker report anything?"""
    return bool(report.bugs)


def normalised_record(result, tag: str) -> str:
    """One unit result as ``verdict_view`` JSON with its tag replaced."""
    record = verdict_view(report_to_dict(
        result.name, result.report, attempts=result.attempts,
        escalated=result.escalated, error=result.error, meta=result.meta))
    return json.dumps(record, sort_keys=True).replace(tag, "{S}")


def verdict_digest(records: Sequence[str]) -> str:
    """sha256 over normalised unit records, in corpus order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]
