"""Graded acceptability for abstract argumentation frameworks.

The package computes graded neutrality and defense, enumerates and
constructs lmn-extension families, derives contextual and absolute
argument rankings, checks ranking postulates, and instantiates defeat
graphs from stratified propositional knowledge bases.
"""
from .errors import (AtomBoundError, ConstraintViolatedError,
                     FormulaParseError, FrameworkParseError, GradargError,
                     KnowledgeBaseError, NoExtensionError, NotAdmissibleError,
                     NotExpandableError, NotReachingError, TooLargeError)
from .framework import (ArgumentId, ArgumentSet, ArgumentationFramework,
                        connected_components, disjoint_union,
                        random_framework, relabel)
from .formats import (detect_format, parse, parse_apx, parse_tgf, write,
                      write_apx, write_tgf)
from .kernel import (DefenseGrade, GradeOrdering, GradeParams,
                     IterationStream, compare_grades, gfp_from,
                     graded_defense, graded_neutrality, lfp_from,
                     saturation_bound, unattacked_closure)
from .semantics import (ConvergenceReport, Existence, ExtensionFamily,
                        JustificationMode, JustifiedReport, Semantics,
                        Witness, complete_closure, enumerate_extensions,
                        grounded_by_construction, is_l_conflict_free,
                        is_lmn_admissible, is_lmn_complete, is_lmn_stable,
                        justified, preferred_by_reachability,
                        stable_convergence_check)
from .ranking import (ArgumentPartialOrder, JustificationSignature, Relation,
                      absolute_rank, absolute_signature,
                      contextual_equals_grounded, contextual_rank,
                      contextual_signature)
from .logic import (Atom, And, Formula, Implies, Not, Or, atoms, entails,
                    evaluate, format_formula, is_consistent, parse_formula)
from .instantiate import (ClassicalArgument, CorrespondenceReport,
                          DefeatGraph, InferenceReport, KnowledgeBase,
                          build_defeat_graph, generate_arguments,
                          graded_inference, parse_kb, preferred_subtheories,
                          ps_correspondence_check)
from .postulates import (CheckResult, PostulateVerdict, PostulateWitness,
                         check_abstraction, check_attack_path_addition,
                         check_attack_path_increase,
                         check_cardinality_precedence,
                         check_counter_transitivity,
                         check_defense_path_increase,
                         check_defense_precedence, check_independence,
                         check_named_counterexamples, check_quality_precedence,
                         check_self_contradiction, check_strict_independence,
                         check_unattacked_equivalence, check_void_precedence,
                         corpus_checks, named_counterexamples_match)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
