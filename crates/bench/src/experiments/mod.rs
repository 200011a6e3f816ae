//! The experiment registry: one [`Experiment`] per
//! paper figure/table family, in paper order. `lab list` prints this index;
//! `lab run <name>` / `lab all` execute entries through the shared runtime.

mod ando_separation;
mod chain_invariant;
mod convergence_rate;
mod error_tolerance;
mod extensions;
mod impossibility;
mod k_scaling;
mod lemmas;
mod safe_regions;
mod separation_matrix;
mod timelines;

use crate::lab::Experiment;

/// Every registered experiment, in paper (figure/table) order.
pub static REGISTRY: &[&'static dyn Experiment] = &[
    &timelines::Timelines,
    &safe_regions::SafeRegions,
    &ando_separation::AndoSeparation,
    &lemmas::Lemmas,
    &chain_invariant::ChainInvariant,
    &separation_matrix::SeparationMatrix,
    &convergence_rate::ConvergenceRate,
    &error_tolerance::ErrorTolerance,
    &k_scaling::KScaling,
    &impossibility::Impossibility,
    &extensions::Extensions,
];
