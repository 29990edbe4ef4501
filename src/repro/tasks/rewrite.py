"""rewrite_equivalence and rewrite_speedup tasks (rewrite extension).

Both tasks consume the labeled pair stream that the shared generator
:func:`repro.equivalence.pairs.iter_verified_pairs` draws through
:class:`repro.rewrite.pairs.RewritePairs`:

* ``rewrite_equivalence`` shows the model an original query and a
  candidate rewrite and asks whether the rewrite preserves semantics.
  Positives are multi-step catalog chains (hard positives); negatives
  are counter-transform lookalikes.  ``label_type`` carries the
  "+"-joined family chain for positives and the counter-transform type
  for negatives, which is what the per-family report sections group by.
* ``rewrite_speedup`` takes only the *equivalent* pairs and asks whether
  the rewritten form is cheaper.  Ground truth comes from the analytical
  cost model (:func:`repro.perf.cost_model.base_cost_ms`) evaluated on
  both sides' extracted properties — deterministic, so labels never
  depend on simulation noise.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.equivalence.pairs import iter_verified_pairs
from repro.parsing import extract_equivalence, extract_label, extract_yes_no
from repro.perf.cost_model import base_cost_ms
from repro.rewrite.pairs import RewritePairs
from repro.sql.properties import extract_properties
from repro.tasks.base import (
    REWRITE_EQUIVALENCE,
    REWRITE_SPEEDUP,
    ModelAnswer,
    TaskInstance,
)


def _rewrite_pairs(source, seed: int, max_pairs: Optional[int] = None):
    """The verified rewrite pairs of *source*, under its spec's families."""
    from repro.workloads.synthetic import rewrite_families_of

    recipe = RewritePairs(rewrite_families_of(source.name) or None)
    return iter_verified_pairs(source, recipe, seed=seed, max_pairs=max_pairs)


# -- rewrite_equivalence ----------------------------------------------------


def iter_rewrite_equivalence_instances(
    source, seed: int = 0, max_pairs: Optional[int] = None
) -> Iterator[TaskInstance]:
    """Yield rewrite_equivalence instances lazily from the pair stream.

    Pairs come from verified multi-step rewrite chains (positives) and
    counter-transform lookalikes (negatives).  ``source`` is a
    :class:`~repro.workloads.base.Workload` or ``WorkloadStream``.
    """
    for pair in _rewrite_pairs(source, seed, max_pairs):
        yield TaskInstance(
            instance_id=pair.pair_id,
            task=REWRITE_EQUIVALENCE,
            workload=source.name,
            schema_name=pair.schema_name,
            payload={"query_1": pair.first_text, "query_2": pair.second_text},
            label=pair.equivalent,
            label_type=pair.pair_type,
            source_query_id=pair.source_query_id,
            props=pair.first_props,
            detail=pair.detail,
        )


def parse_rewrite_equivalence_response(
    instance: TaskInstance, text: str, model_name: str
) -> ModelAnswer:
    """Extract the equivalence verdict (and any named rewrite) from text."""
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        predicted=extract_equivalence(text),
        predicted_type=_extract_pair_type(instance, text),
    )


def _extract_pair_type(instance: TaskInstance, text: str) -> Optional[str]:
    """Match the response against the instance's own label vocabulary.

    Chain labels are open-ended ("or-in+const-fold"), so unlike
    query_equiv there is no closed pool to scan for; the secondary
    signal worth extracting is whether the model named *this* pair's
    label.
    """
    if instance.label_type is None:
        return None
    return extract_label(text, (instance.label_type,))


# -- rewrite_speedup --------------------------------------------------------


def iter_rewrite_speedup_instances(
    source, seed: int = 0, max_instances: Optional[int] = None
) -> Iterator[TaskInstance]:
    """Yield rewrite_speedup instances from the *equivalent* pairs only.

    Labels compare the analytical base cost of both sides; the cap
    counts emitted instances (roughly half the pair stream carries a
    positive equivalence label and so survives the filter), and no pair
    is drawn once it is reached.
    """
    if max_instances is not None and max_instances <= 0:
        return
    produced = 0
    for pair in _rewrite_pairs(source, seed):
        if not pair.equivalent:
            continue
        cost_first = base_cost_ms(pair.first_props)
        cost_second = base_cost_ms(extract_properties(pair.second_text))
        yield TaskInstance(
            instance_id=f"{pair.pair_id}-speed",
            task=REWRITE_SPEEDUP,
            workload=source.name,
            schema_name=pair.schema_name,
            payload={"query_1": pair.first_text, "query_2": pair.second_text},
            label=cost_second < cost_first,
            # No label_type: the model is never asked to name the
            # transform, so typed.* metrics would be vacuously zero.
            # The family chain rides in ``detail`` for the per-family
            # report sections instead.
            source_query_id=pair.source_query_id,
            props=pair.first_props,
            detail=(
                f"families={pair.pair_type} "
                f"cost_original={cost_first:.2f}ms "
                f"cost_rewritten={cost_second:.2f}ms"
            ),
        )
        produced += 1
        if produced == max_instances:
            return


def parse_rewrite_speedup_response(
    instance: TaskInstance, text: str, model_name: str
) -> ModelAnswer:
    """Extract the faster/not-faster judgement from one response text."""
    return ModelAnswer(
        instance_id=instance.instance_id,
        model=model_name,
        response_text=text,
        predicted=extract_yes_no(text),
    )
