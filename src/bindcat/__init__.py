"""Finite, checkable category theory for binding syntax: signatures and
well-scoped terms, table-driven (monoidal, displayed) categories with
exhaustive law checkers, and initial-algebra constructions with
generalized Mendler and parametrized iteration."""

from .displayed import (DisplayedCategory, DisplayedMonoidal, Section,
                        check_displayed_category, check_displayed_monoidal,
                        from_displayed_doc, lift_section, load_displayed,
                        projection_functor, total_category, total_monoidal,
                        trivial_displayed, trivial_displayed_monoidal)
from .fincat import (FinCategory, FinFunctor, FinNatTrans, TableError,
                     chain_category, check_category_laws, check_functor,
                     check_nat_trans, compose_functors, constant_functor,
                     discrete_category, from_doc, hom_enumerate,
                     identity_functor, identity_nat_trans, product_category,
                     terminal_category, to_doc, walking_arrow)
from .monoidal import (EndofunctorMonoidal, EnumerationOverflow, Monad, Monoid,
                       MonoidalCategory, WhiskeredBifunctor,
                       check_monad, check_monoid, check_monoidal_laws,
                       check_whiskered_bifunctor, classical_from_whiskered,
                       endofunctor_monoidal, enumerate_endofunctors,
                       enumerate_monoids, from_monoidal_doc, functor_category,
                       monad_to_monoid, monoid_to_monad, to_monoidal_doc,
                       whiskered_from_classical)
from .omega import (ChainError, EnumEndofunctor, EnumSetObj, InitialAlgebra,
                    IterationError, NaturalityError, OmegaChain,
                    ParamAlgebraFamily, ParamBifunctor, adamek_initial_algebra,
                    check_initial_algebra, check_initiality,
                    check_mendler_fixed_point, check_param_bifunctor,
                    check_param_initiality, count_mendler_solutions,
                    gen_mendler_iteration, mu_on_morphism, param_initial_algebras,
                    parametrized_initiality, poset_initial_algebra,
                    check_poset_initiality, run_param_demo)
from .report import LawReport, Violation
from .signature import (BindingSignature, Constructor, ParseError,
                        load_signature, parse_signature, render_signature,
                        signature_functor)
from .terms import (Ctor, ScopeError, Substitution, Term, Var,
                    check_monad_laws, check_subst_via_mendler, check_term,
                    compose_substitutions, construct, enumerate_terms,
                    parse_term, render_term, run_evenness_demo,
                    scoped_signature_functor, subst_via_mendler, substitute,
                    unit_substitution)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
