"""Windowed causal discovery from discretized time series.

Candidate causes are probabilistic temporal logic formulae checked against
trace frequencies (or an inferred discrete-time Markov chain); prima facie
causes are scored by their average predictive impact against rival causes,
and significance is decided by empirical-null local false discovery rate
control.
"""

from .causal import (HypothesisFamily, ScoreTable, enumerate_pairwise,
                     score_hypotheses)
from .checker import (FrequencyEstimate, eval_on_trace, leads_to_prob,
                      sat_set, trace_leads_to, until_prob)
from .dtmc import Dtmc, build_dtmc, encode_labels
from .errors import (CheckError, DataError, EmptyWindowError, FitError,
                     FormulaParseError, TlcausalError, UsageError)
from .fdr import (MixtureDensity, NullModel, ZScores, classify, fit_mixture,
                  fit_null, local_fdr, z_scores)
from .pctl import (INFINITY, And, Atom, Formula, Implies, LeadsTo, Not, Or,
                   PathFormula, ProbBound, StateFormula, TimeBound, Until,
                   parse, print_formula)
from .pipeline import PipelineConfig, Report, run_pipeline
from .synthgen import GenConfig, GroundTruth, StructureSpec, generate, preset
from .traces import (EventList, Trace, TraceSet, discretize, events_of,
                     load_events, write_events)

__version__ = "0.1.0"
