"""repro — reproduction of "Evaluating SQL Understanding in Large Language
Models" (EDBT 2025).

The package provides:

* :mod:`repro.sql` — SQL lexer/parser/AST/renderer + syntactic properties;
* :mod:`repro.schema`, :mod:`repro.data` — schema catalogs and seeded
  SQLite instances;
* :mod:`repro.analysis` — the semantic analyzer used as ground-truth oracle;
* :mod:`repro.workloads` — SDSS / SQLShare / Join-Order / Spider generators;
* :mod:`repro.corrupt` — syntax-error injection and token removal;
* :mod:`repro.equivalence` — equivalence transforms and execution checking;
* :mod:`repro.perf` — the runtime cost model behind performance_pred;
* :mod:`repro.llm`, :mod:`repro.prompts`, :mod:`repro.parsing` — simulated
  models, task prompts and response post-processing;
* :mod:`repro.tasks`, :mod:`repro.evalfw` — task datasets, metrics and the
  experiment runner;
* :mod:`repro.engine` — the chunked, parallel, cache-backed evaluation
  engine everything above runs through;
* :mod:`repro.experiments` — one entry point per paper table/figure;
* :mod:`repro.reporting` — run records and Markdown/HTML/JSON report
  bundles built from the engine cache.

See ``docs/ARCHITECTURE.md`` for the module map and data flow, and
``docs/TASKS.md`` for the task-to-paper-artifact mapping.
"""

__version__ = "1.0.0"
